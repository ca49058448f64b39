"""Fig. 11 — Recovery overhead with false positive cases, plus the
*measured* recovery axis the paper never had.

Paper (Section VI): assuming a light-weight recovery scheme that copies
critical hypervisor data (~1,900 ns on a 2.13 GHz Xeon E5506) at every VM
exit and re-executes on any positive detection, with the classifier's 0.7%
false-positive rate, the estimated overheads are small: 2.7% on average,
~1.6% for mcf and bzip2, 6.3% for postmark, and the max-min spread across
100 repetitions per application is below 0.03%.

The measured half runs real ``--recover`` campaigns through every policy
(reexecute / microreboot / ladder) and reports survival rate, guest-visible
downtime (retired instructions) and post-recovery golden divergence; a
machine-readable summary lands in ``BENCH_recovery.json`` next to this file
(override with ``REPRO_BENCH_OUTPUT``).  CI diffs it non-blocking.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import ComparisonTable, summarize_recovery
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.system import PlatformConfig, VirtualPlatform
from repro.workloads import BENCHMARKS
from repro.xentry import RecoveryCostModel, estimate_recovery_overhead

from benchmarks.conftest import SEED, scaled, write_bench

#: Modeled clock of the paper's testbed (Xeon E5506).
CLOCK_GHZ = 2.13

#: Injections per measured recovery campaign (one campaign per policy).
RECOVERY_INJECTIONS = scaled(600)



@pytest.fixture(scope="module")
def recovery_model() -> RecoveryCostModel:
    """Parameterize the handler re-execution cost from measured handler
    lengths on the simulated platform."""
    platform = VirtualPlatform(PlatformConfig(seed=8))
    mean_instr = sum(
        platform.mean_handler_instructions(p.name, n_activations=120)
        for p in BENCHMARKS
    ) / len(BENCHMARKS)
    handler_ns = mean_instr / CLOCK_GHZ  # ~1 instruction/cycle
    return RecoveryCostModel(handler_ns=handler_ns)


def run_study(model: RecoveryCostModel):
    return {
        p.name: estimate_recovery_overhead(p, model=model, repetitions=100, seed=3)
        for p in BENCHMARKS
    }


def test_fig11_regenerate(benchmark, recovery_model):
    studies = benchmark(run_study, recovery_model)
    print("\nFig. 11 — recovery overhead with false positive cases "
          "(100 repetitions per application)")
    for name, study in studies.items():
        print(f"{name:<10} mean={study.mean:7.3%}  max={study.max:7.3%}  "
              f"spread={study.spread:8.5%}")
    average = sum(s.mean for s in studies.values()) / len(studies)
    table = ComparisonTable("Fig. 11 headline numbers")
    table.add_percent("average overhead", 0.027, average)
    table.add_percent("mcf", 0.016, studies["mcf"].mean)
    table.add_percent("bzip2", 0.016, studies["bzip2"].mean)
    table.add_percent("postmark (worst)", 0.063, studies["postmark"].mean)
    table.add("max-min spread", "< 0.03%",
              f"{max(s.spread for s in studies.values()):.4%}")
    print("\n" + table.render())


def test_average_near_paper(recovery_model):
    studies = run_study(recovery_model)
    average = sum(s.mean for s in studies.values()) / len(studies)
    assert 0.01 < average < 0.08  # around the paper's 2.7%


def test_postmark_worst_and_mcf_bzip2_low(recovery_model):
    studies = run_study(recovery_model)
    assert studies["postmark"].mean == max(s.mean for s in studies.values())
    assert studies["mcf"].mean < 0.03
    assert studies["bzip2"].mean < 0.03


def test_spread_below_paper_bound(recovery_model):
    """'the difference between the maximum and minimum overheads are less
    than 0.03%'."""
    studies = run_study(recovery_model)
    for name, study in studies.items():
        assert study.spread < 0.0003, name


# -- the measured recovery axis -----------------------------------------------


def test_recovery_campaigns_measured():
    """Run a real recovery campaign per policy and bank the survival axis.

    The acceptance bar: under the full escalation ladder, >= 90% of detected
    transient single-bit faults recover with zero post-recovery divergence
    against golden.
    """
    policies = {}
    total_trials = 0
    total_elapsed = 0.0
    for policy in ("reexecute", "microreboot", "ladder"):
        config = CampaignConfig(
            n_injections=RECOVERY_INJECTIONS, seed=SEED, recover=policy
        )
        t0 = time.perf_counter()
        result = FaultInjectionCampaign(config).run()
        elapsed = time.perf_counter() - t0
        summary = summarize_recovery(result.records)
        total_trials += len(result.records)
        total_elapsed += elapsed
        policies[policy] = {
            "injections": len(result.records),
            "detected": summary.trials,
            "recovered": summary.recovered,
            "clean": summary.clean,
            "divergent": summary.divergent,
            "success_rate": summary.success_rate,
            "clean_rate": summary.clean_rate,
            "attempts": summary.attempts,
            "actions": {k: v for k, v in sorted(summary.actions.items())},
            "downtime_p50": summary.downtime_p50,
            "downtime_p90": summary.downtime_p90,
            "downtime_max": summary.downtime_max,
            "downtime_total": summary.downtime_total,
            "elapsed_seconds": elapsed,
            "trials_per_sec": len(result.records) / elapsed,
        }

    summary_doc = {
        "format": "xentry-bench-recovery-v1",
        "seed": SEED,
        "injections_per_policy": RECOVERY_INJECTIONS,
        "trials_per_sec": total_trials / total_elapsed,
        "policies": policies,
    }
    write_bench("recovery", summary_doc)

    print(f"\nmeasured recovery campaigns — "
          f"{RECOVERY_INJECTIONS} injections/policy, seed {SEED}")
    for policy, s in policies.items():
        print(f"  {policy:<12} detected={s['detected']:<4} "
              f"success={s['success_rate']:6.1%} clean={s['clean_rate']:6.1%} "
              f"downtime p50={s['downtime_p50']} p90={s['downtime_p90']} "
              f"max={s['downtime_max']} "
              f"({s['trials_per_sec']:.0f} trials/s)")

    for policy, s in policies.items():
        # Every policy must actually exercise recovery at this scale.
        assert s["detected"] > 0, policy
        # Recovered implies measured-clean: success is *defined* by an empty
        # golden diff, so these must agree exactly.
        assert s["recovered"] == s["clean"], policy
    # The acceptance bar rides on the full escalation ladder.
    assert policies["ladder"]["clean_rate"] >= 0.90
    # Micro-reboot replays the golden suffix from a whole-machine rung, so
    # divergence-free recovery is structural, not statistical.
    assert policies["microreboot"]["divergent"] == 0
