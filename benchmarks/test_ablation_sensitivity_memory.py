"""Fault-sensitivity ablations: per-register structure and memory faults.

Two more studies the paper's aggregate numbers sit on top of:

* per-register and per-bit-band sensitivity (which architectural state
  manifests/detects how) over the main campaign's records;
* an uncorrected-*memory*-fault campaign (the residual class the paper
  excludes because "combinational logic circuits in CPU are usually not
  protected by ECC" while memory is) — how the same detection stack fares
  when the corruption pre-exists in hypervisor structures.
"""

from __future__ import annotations

import pytest

from repro import rng as rng_mod
from repro.analysis import (
    ComparisonTable,
    coverage_by_technique,
)
from repro.analysis.sensitivity import bit_band_sensitivity, register_sensitivity
from repro.faults import MemoryFaultModel, capture_golden, run_memory_trial
from repro.hypervisor import XenHypervisor
from repro.workloads import VirtMode, WorkloadGenerator, get_profile

from conftest import scaled


def test_register_sensitivity_regenerate(benchmark, campaign_result):
    rows = benchmark(lambda: register_sensitivity(campaign_result.records))
    print("\nPer-register fault sensitivity (campaign records):")
    for label in sorted(rows, key=lambda k: -rows[k].manifestation_rate):
        print("  " + rows[label].row())
    bands = bit_band_sensitivity(campaign_result.records)
    print("\nPer-bit-band sensitivity:")
    for label in ("0-15", "16-31", "32-47", "48-63"):
        if label in bands:
            print("  " + bands[label].row())


def test_rip_and_rsp_are_the_most_lethal(campaign_result):
    rows = register_sensitivity(campaign_result.records)
    ordinary = [r for name, r in rows.items() if name in ("r14", "r15")]
    for critical in ("rip", "rsp"):
        if critical in rows:
            for baseline in ordinary:
                assert (
                    rows[critical].manifestation_rate
                    > baseline.manifestation_rate
                )


@pytest.fixture(scope="module")
def memory_campaign(trained_bundle):
    """A memory-fault campaign over the benchmark mixes."""
    hv = XenHypervisor(seed=88)
    model = MemoryFaultModel()
    records = []
    n_per = max(20, scaled(300))
    for bench in ("postmark", "mcf", "bzip2", "x264"):
        generator = WorkloadGenerator(
            get_profile(bench), VirtMode.PV,
            seed=rng_mod.derive_seed(88, "memcampaign", bench),
        )
        fault_rng = rng_mod.stream(88, "memfaults", bench)
        hv.reset()
        stride = 7  # one target activation + six follow-ups
        stream = generator.activations((n_per // 2) * stride)
        for g in range(n_per // 2):
            activation = stream[g * stride]
            follows = tuple(stream[g * stride + 1 : (g + 1) * stride])
            golden = capture_golden(hv, activation)
            for _ in range(2):
                fault = model.sample(fault_rng, hv.layout)
                records.append(
                    run_memory_trial(
                        hv, activation, fault,
                        detector=trained_bundle.detector,
                        golden=golden, benchmark=bench,
                        followups=follows,
                    )
                )
            # Advance the stream fault-free: the golden run's end state.
            hv.restore(golden.after)
    return tuple(records)


def test_memory_campaign_regenerate(benchmark, memory_campaign, campaign_result):
    summary = benchmark(
        lambda: (
            coverage_by_technique(memory_campaign),
            coverage_by_technique(campaign_result.records),
        )
    )
    mem, reg = summary
    table = ComparisonTable("Memory faults vs register faults (extension)")
    table.add("trials", f"{len(campaign_result)} (register)", f"{len(memory_campaign)} (memory)")
    table.add_percent("manifestation rate",
                      reg.total / len(campaign_result),
                      mem.total / len(memory_campaign))
    table.add_percent("coverage (register)", None, reg.coverage)
    table.add_percent("coverage (memory)", None, mem.coverage)
    print("\n" + table.render())


def test_memory_faults_manifest_less_often(memory_campaign, campaign_result):
    """Most memory words are cold within one activation window, so the
    manifestation rate sits below the register campaign's."""
    mem_rate = coverage_by_technique(memory_campaign).total / len(memory_campaign)
    reg_rate = coverage_by_technique(campaign_result.records).total / len(
        campaign_result
    )
    assert mem_rate < reg_rate


def test_memory_faults_largely_bypass_xentry(memory_campaign):
    """The finding this ablation exists for: Xentry's techniques target
    *in-flight CPU* faults — pre-existing memory corruption mostly delivers
    plausible values through legal control flow, so coverage collapses
    relative to the register campaign.  This is the quantitative argument
    for the paper's scoping ("memory is protected by ECC"): detection-based
    schemes do not substitute for it."""
    cov = coverage_by_technique(memory_campaign)
    if cov.total >= 20:
        assert cov.coverage < 0.6          # far below the register campaign
        assert cov.coverage > 0.02         # but the assertions still bite
