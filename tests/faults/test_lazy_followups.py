"""Golden follow-ups on demand ≡ follow-ups captured eagerly.

Capture keeps the post-run memory (``GoldenRun.after``) and runs no
follow-up; the first trial of a group that reaches its follow-up window
materializes them from ``after`` in the middle of its own run, with its
memory and injection state set aside.  These tests hold that path to the
eager oracle (:mod:`tests.faults.eager`): every record is bit-identical,
across fault classes and with twin batching on and off, including a flip
still pending past the activation and an activation watch still armed.
"""

import dataclasses

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.faults import (
    BurstFaultModel,
    CampaignConfig,
    FaultInjectionCampaign,
    FaultModel,
    MemoryFaultModel,
    MultiBitFaultModel,
    capture_golden,
    run_spec_trial,
    run_twin_batch,
)
from repro.faults.campaign import benchmark_geometry, run_benchmark_groups
from repro.faults.outcomes import FaultSpec
from repro.faults.propagation import materialize_followups
from repro.hypervisor import XenHypervisor
from repro.metrics import CampaignCounters, counted
from repro.workloads import VirtMode, WorkloadGenerator, get_profile
from tests.faults.eager import capture_golden_eager

STRIDE = 5  # one injected activation + four follow-ups


class OddRuntime:
    """A detector flagging about half the feature vectors, so some trials
    leave at VM entry and others continue into their follow-ups."""

    def flags_incorrect(self, features) -> bool:
        return features[1] % 2 == 1


class FlagAll:
    """A detector flagging every VM entry: no trial reaches a follow-up."""

    def flags_incorrect(self, features) -> bool:
        return True


def stream(benchmark: str, n_groups: int, seed: int = 3):
    generator = WorkloadGenerator(
        get_profile(benchmark), VirtMode.PV,
        seed=rng_mod.derive_seed(seed, "lazy", benchmark),
    )
    acts = generator.activations(n_groups * STRIDE)
    return [
        (acts[g * STRIDE], tuple(acts[g * STRIDE + 1 : (g + 1) * STRIDE]))
        for g in range(n_groups)
    ]


def sample_faults(model, rng, hv, run_length: int, n: int):
    if isinstance(model, MemoryFaultModel):
        return [model.sample(rng, hv.layout) for _ in range(n)]
    return [model.sample(rng, run_length) for _ in range(n)]


def run_group(hv, activation, followups, faults, golden, *, twin_batch, detector):
    if twin_batch:
        return run_twin_batch(
            hv, activation, faults, golden=golden, followups=followups,
            detector=detector,
        )
    return [
        run_spec_trial(
            hv, activation, fault, golden=golden, followups=followups,
            detector=detector,
        )
        for fault in faults
    ]


MODELS = {
    "register": FaultModel(),
    "multibit": MultiBitFaultModel(),
    "burst": BurstFaultModel(),
    "memory": MemoryFaultModel(),
}


@pytest.mark.parametrize("twin_batch", [True, False], ids=["twins", "per-trial"])
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_lazy_records_equal_eager(kind, twin_batch):
    hv = XenHypervisor(seed=4)
    rng = np.random.default_rng(17)
    materialized = 0
    for benchmark in ("postmark", "mcf"):
        hv.reset()
        for g, (activation, followups) in enumerate(stream(benchmark, 8)):
            # A flip left pending past the previous group's activation must
            # not reach this group's capture.
            hv.cpu.clear_injection()
            start = hv.checkpoint()
            eager = capture_golden_eager(hv, activation, followups)
            faults = sample_faults(MODELS[kind], rng, hv, eager.result.instructions, 6)
            if kind == "register":
                # A flip that lies past the activation, inside a follow-up.
                faults.append(FaultSpec("rax", 5, eager.result.instructions + 3))
            detector = OddRuntime() if g % 3 == 0 else None
            expected = run_group(
                hv, activation, followups, faults, eager,
                twin_batch=twin_batch, detector=detector,
            )
            hv.restore(start)
            hv.cpu.clear_injection()
            lazy = capture_golden(hv, activation)
            assert lazy.followups is None
            got = run_group(
                hv, activation, followups, faults, lazy,
                twin_batch=twin_batch, detector=detector,
            )
            assert got == expected, (benchmark, g)
            if lazy.followups is not None:
                materialized += 1
                assert lazy.followups == eager.followups
            hv.restore(lazy.after)
    assert materialized > 0


def _trial_state(hv, activation, golden, arm):
    """Put ``hv`` where a trial stands right before its follow-ups: the
    faulty activation executed, with ``arm`` leaving injection state live."""
    hv.restore(golden.checkpoint)
    hv.memory.write_u64(hv.layout.scratch.word_address(1), 0x5EED)
    arm(hv, golden.result.instructions)
    hv.execute(activation)


def _run_followups(hv, followups):
    out = []
    for follow in followups:
        try:
            out.append(hv.execute(follow))
        except Exception as exc:  # noqa: BLE001 — compared by type and text
            out.append((type(exc).__name__, str(exc)))
    return out, hv.cpu.injection_report, hv.checkpoint()


@pytest.mark.parametrize(
    "arm",
    [
        # Scheduled past the activation: still pending when its run ends,
        # it fires inside the trial's own follow-ups.
        lambda hv, n: hv.cpu.schedule_register_flip(n + 4, "rbp", 44),
        # Applied at the activation's last instruction: the watch on rbx
        # stays armed, and settles inside the follow-ups.
        lambda hv, n: hv.cpu.schedule_register_flip(n - 1, "rbx", 3),
    ],
    ids=["pending-flip", "armed-watch"],
)
def test_materializing_sets_the_trial_aside(arm):
    hv = XenHypervisor(seed=6)
    hv.reset()
    (activation, followups), = stream("postmark", 1)
    start = hv.checkpoint()
    eager = capture_golden_eager(hv, activation, followups)

    hv.restore(start)
    golden = capture_golden(hv, activation)
    _trial_state(hv, activation, golden, arm)
    expected = _run_followups(hv, followups)

    _trial_state(hv, activation, golden, arm)
    before = hv.cpu.injection_report
    # The injection state is live: the trial's follow-ups change it.
    assert expected[1] != before
    trial = hv.checkpoint()
    materialize_followups(hv, golden, followups)
    # Golden follow-ups ran fault-free from ``after``...
    assert golden.followups == eager.followups
    # ...and the trial stands exactly where it stood.
    assert hv.cpu.injection_report == before
    assert hv.checkpoint() == trial
    assert _run_followups(hv, followups) == expected


def test_group_whose_trials_skip_followups_executes_none():
    config = CampaignConfig(benchmarks=("postmark",), n_injections=24, seed=2)
    geo = benchmark_geometry(config)
    hv = XenHypervisor(n_domains=config.n_domains, seed=config.seed)
    executed = []
    original = hv.execute

    def execute(activation, **kwargs):
        executed.append(activation)
        return original(activation, **kwargs)

    hv.execute = execute
    _, counts = counted(
        run_benchmark_groups, config, "postmark", 0, geo.n_goldens,
        hv=hv, detector=FlagAll(),
    )
    generator = WorkloadGenerator(
        get_profile("postmark"), config.mode,
        seed=rng_mod.derive_seed(config.seed, "campaign", "postmark"),
        n_domains=config.n_domains,
    )
    acts = generator.activations(geo.n_goldens * geo.stride)
    injected = {acts[g * geo.stride] for g in range(geo.n_goldens)}
    assert CampaignCounters.folded(counts).followups_materialized.value == 0
    # Past the warmup burst, only injected activations ran.
    assert set(executed[config.warmup_activations:]) <= injected


def test_store_completes_followups_a_later_run_needs(tmp_path):
    """A store written by a run whose detector flags every trial holds no
    follow-ups; a run without a detector needs them, materializes them and
    re-offers its groups, and a third run executes no golden work."""
    config = CampaignConfig(
        benchmarks=("mcf", "postmark"), n_injections=48, seed=8,
        artifacts=str(tmp_path / "store"),
    )
    groups = len(config.benchmarks) * benchmark_geometry(config).n_goldens
    reference = FaultInjectionCampaign(
        dataclasses.replace(config, artifacts=None)
    ).run()

    def run(detector=None):
        result, counts = counted(FaultInjectionCampaign(config, detector=detector).run)
        return result, CampaignCounters.folded(counts).golden_cache()

    _, first = run(FlagAll())
    assert first["golden_misses"] == groups and first["followups_materialized"] == 0

    second, cache = run()
    assert second.records == reference.records
    assert cache["golden_hits"] == groups
    assert 0 < cache["followups_materialized"] < groups
    assert cache["artifact_bytes_written"] > 0  # the completed groups, re-offered

    third, cache = run()
    assert third.records == reference.records
    assert cache["golden_hits"] == groups
    assert cache["followups_materialized"] == 0
    assert cache["golden_capture_seconds"] == 0
    assert cache["artifact_bytes_written"] == 0
