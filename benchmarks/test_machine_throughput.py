"""Machine-level trial throughput: the fault-injection hot path.

Measures trials/sec on a fixed-seed workload shaped like the campaign's
inner loop — capture a golden run, then execute a batch of injected trials
against it — plus the per-trial state-reset cost (restore µs) and the
instructions settled without executing them.  A machine-readable summary is written
to ``BENCH_machine.json`` next to this file (override with
``REPRO_BENCH_OUTPUT``).

Two fast paths are gated against baselines measured in the same run, over
the same goldens and faults, as alternating repetitions: lock-step twin
batching against a pass that executes every trial through ``run_trial``
(≥ 2×), and the basic-block translation cache against a ``translate=False``
pass (≥ 1.5×; the cache must also carry > 50% of retired instructions, so
it can't "pass" by staying cold).  Every pass must return equal records.
Each repetition runs the three passes back to back, so a gate reads the
median of the per-repetition ratios, which cancels host drift between
repetitions; the summary records the ratios and their quartile spread.
The third gate, the trial hot path at ≥ 3× the interpreter-era tree, has
no knob that reproduces its baseline: it divides by a constant measured on
another host, so it measures that host as much as the code.  Counters come
from one :func:`repro.metrics.counted` delta around a timed batch pass.  An
untimed warm-up runs every pass once first, so the timed region measures
the steady state campaigns actually see (the translation cache is
process-wide, and production pool workers fork with the blocks earlier
workers compiled).  The summary records translation telemetry (blocks
compiled, block-dispatch hit rate, instruction mix) and a ``lockstep``
section (twins batched, dead/peel split, synthesized instructions, proved
hangs).  CI runs this as a non-blocking perf smoke because absolute
throughput varies across machines.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.faults import FaultModel, capture_golden, run_trial, run_twin_batch
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.metrics import CampaignCounters, counted

from benchmarks.conftest import SEED, scaled, write_bench

N_GOLDENS = 6
#: Campaign-scale trial counts (production campaigns run thousands of
#: injections per golden): warmth-gated trace compilation only amortizes
#: at this scale, so benchmarking at toy trial counts would measure
#: compile overhead instead of the steady state campaigns actually see.
TRIALS_PER_GOLDEN = scaled(800)
#: Alternating repetitions of the three timed passes.
REPS = 5

#: trials/sec of this exact harness against the pre-change implementation
#: (full-copy checkpoints, no resumable core, pre-optimization interpreter),
#: measured on the reference host that produced the committed
#: ``BENCH_machine.json``.  Cross-host: no knob of this tree reproduces
#: that interpreter, so the gate divides by this constant.
BASELINE_TRIALS_PER_SEC = float(
    os.environ.get("REPRO_BENCH_MACHINE_BASELINE", "810.6")
)
TARGET_SPEEDUP = 3.0
#: Translated over untranslated, same run (``translate=False``).
TRANSLATION_TARGET_SPEEDUP = 1.5
#: Twin batch over per-trial ``run_trial``, same run.
LOCKSTEP_TARGET_SPEEDUP = 2.0

#: The timed passes: name -> (twin batching, translation).
PASSES = {
    "batch": (True, True),
    "per_trial": (False, True),
    "untranslated": (True, False),
}


def _run_workload(hv: XenHypervisor, *, batch: bool = True):
    """The fixed-seed trial workload; returns (records, elapsed_seconds).

    ``batch=False`` executes every trial through :func:`run_trial`, with
    goldens captured unrecorded, as a campaign does with twin batching off.
    """
    rng = np.random.default_rng(SEED)
    model = FaultModel()
    reasons = [r for r in REGISTRY if r.name in (
        "mmu_update", "grant_table_op", "sched_op", "page_fault", "memory_op",
        "tmem_op",
    )]
    assert len(reasons) == N_GOLDENS
    records = []
    t0 = time.perf_counter()
    for g in range(N_GOLDENS):
        reason = reasons[g % len(reasons)]
        activation = Activation(
            vmer=reason.vmer, args=(8 + g, 1), domain_id=1, seq=g
        )
        golden = capture_golden(hv, activation, record=batch)
        # Faults are drawn up front, so every pass runs the same trial set.
        faults = [
            model.sample(rng, run_length=golden.result.instructions)
            for _ in range(TRIALS_PER_GOLDEN)
        ]
        if batch:
            records.extend(run_twin_batch(hv, activation, faults, golden=golden))
        else:
            records.extend(
                run_trial(hv, activation, fault, golden=golden) for fault in faults
            )
    return records, time.perf_counter() - t0


def _restore_microseconds(hv: XenHypervisor) -> float:
    """Mean per-trial state-reset cost: the copy-on-write restore of the
    pre-activation checkpoint (where every trial starts), each timed right
    after an untimed faulty execution of the activation dirtied pages."""
    activation = Activation(
        vmer=REGISTRY.by_name("mmu_update").vmer, args=(8, 1), domain_id=1, seq=0
    )
    golden = capture_golden(hv, activation)
    rng = np.random.default_rng(SEED)
    model = FaultModel()
    n = 200
    elapsed = 0.0
    for _ in range(n):
        run_trial(
            hv, activation,
            model.sample(rng, run_length=golden.result.instructions),
            golden=golden,
        )
        t0 = time.perf_counter()
        hv.restore(golden.checkpoint)
        elapsed += time.perf_counter() - t0
    return elapsed / n * 1e6


def _aged_machine(translate: bool = True) -> XenHypervisor:
    hv = XenHypervisor(seed=SEED, translate=translate)
    # Age the platform the way the campaign does before taking goldens.
    for i, reason in enumerate(list(REGISTRY)[:5]):
        hv.execute(Activation(vmer=reason.vmer, args=(3, 1), domain_id=1, seq=i))
    return hv


def _ratio(times: dict[str, list[float]], baseline: str) -> dict:
    """Per-repetition ``baseline`` / batch time ratios, their median and
    quartile spread."""
    ratios = [slow / fast for slow, fast in zip(times[baseline], times["batch"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {
        "seconds": times[baseline],
        "trials_per_sec": N_GOLDENS * TRIALS_PER_GOLDEN / statistics.median(times[baseline]),
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "ratio_quartiles": [q1, q3],
    }


def test_machine_trial_throughput():
    # Untimed warm-up: every pass once on a throwaway machine, so the timed
    # region below measures the steady state campaigns actually see.  The
    # translation cache is process-wide, so heat carries across machines,
    # and production pool workers fork with the blocks earlier workers
    # compiled (engine/pool.py ``warm_worker``); without this pass the
    # measurement would be dominated by one-time trace compilation and
    # heat-gate crossings.
    for batch, translate in PASSES.values():
        _run_workload(_aged_machine(translate), batch=batch)

    times: dict[str, list[float]] = {name: [] for name in PASSES}
    records = counts = hv = None
    for _ in range(REPS):
        for name, (batch, translate) in PASSES.items():
            machine_hv = _aged_machine(translate)
            (got, elapsed), got_counts = counted(_run_workload, machine_hv, batch=batch)
            times[name].append(elapsed)
            if name == "batch":
                records, counts, hv = got, got_counts, machine_hv
            else:
                # A fast path must never change the science.
                assert got == records, name
    elapsed = statistics.median(times["batch"])
    trials_per_sec = len(records) / elapsed
    per_trial = _ratio(times, "per_trial")
    untranslated = _ratio(times, "untranslated")
    # What the last timed batch pass counted (the warm-up compiled most
    # blocks, so blocks_compiled is what this pass still had to compile).
    machine = CampaignCounters.folded(counts).machine()
    translated = machine["translated_instructions"]
    interpreted = machine["interpreted_instructions"]
    summary = {
        "format": "xentry-bench-machine-v2",
        "seed": SEED,
        "n_trials": len(records),
        "repetitions": REPS,
        "elapsed_seconds": elapsed,
        "batch_seconds": times["batch"],
        "trials_per_sec": trials_per_sec,
        "restore_microseconds": _restore_microseconds(hv),
        "fast_forward": {
            "instructions_skipped": machine["instructions_skipped"],
        },
        "translation": {
            # Summaries written before the counting registry also counted
            # the warm-up and the machines' aging; their scope says so.
            "scope": "timed pass",
            "blocks_compiled": machine["blocks_compiled"],
            "block_executions": machine["block_executions"],
            "block_hit_rate": machine["block_hit_rate"],
            "translated_instructions": translated,
            "interpreted_instructions": interpreted,
            "translated_share": machine["translated_share"],
        },
        "lockstep": {
            "twin_batches": machine["twin_batches"],
            "twins": machine["twins"],
            "dead_twins": machine["dead_twins"],
            "peeled_twins": machine["peeled_twins"],
            "dead_rate": machine["dead_twins"] / max(1, machine["twins"]),
            "peel_rate": machine["peeled_twins"] / max(1, machine["twins"]),
            # The dead twins' skipped instructions, under the key earlier
            # summaries used.
            "synthesized_instructions": machine["instructions_skipped"],
            "proved_hangs": machine["proved_hangs"],
            "proved_hang_instructions": machine["proved_hang_instructions"],
        },
        "baseline_trials_per_sec": BASELINE_TRIALS_PER_SEC or None,
        "baseline_scope": "cross-host constant",
        "speedup_vs_baseline": (
            trials_per_sec / BASELINE_TRIALS_PER_SEC
            if BASELINE_TRIALS_PER_SEC
            else None
        ),
        # Same-run baselines: the batch pass against each knob turned off.
        "speedup_vs_per_trial": per_trial,
        "speedup_vs_untranslated": untranslated,
    }
    write_bench("machine", summary)

    print(f"\nmachine trial throughput — {len(records)} trials, seed {SEED}, "
          f"median of {REPS} repetitions")
    print(f"  trials/sec:        {trials_per_sec:10.1f}")
    print(f"  restore:           {summary['restore_microseconds']:10.2f} µs")
    print(f"  skipped:           {machine['instructions_skipped']:,} instructions "
          f"settled without executing them")
    tr = summary["translation"]
    print(f"  block cache:       {tr['blocks_compiled']} blocks compiled, "
          f"hit rate {tr['block_hit_rate']:.1%}")
    print(f"  instruction mix:   {translated:,} translated / "
          f"{interpreted:,} interpreted "
          f"({tr['translated_share']:.1%} translated)")
    lk = summary["lockstep"]
    print(f"  twin batching:     {lk['twins']} twins in "
          f"{lk['twin_batches']} batches — {lk['dead_twins']} dead "
          f"({lk['dead_rate']:.0%}), {lk['peeled_twins']} peeled; "
          f"{lk['synthesized_instructions']:,} instructions synthesized")
    print(f"  proved hangs:      {lk['proved_hangs']} "
          f"({lk['proved_hang_instructions']:,} instructions skipped)")
    for label, ratio in (("vs per-trial", per_trial), ("vs untranslated", untranslated)):
        q1, q3 = ratio["ratio_quartiles"]
        print(f"  {label + ':':<18} {ratio['median_ratio']:9.2f}x "
              f"(quartiles {q1:.2f}-{q3:.2f}x, "
              f"{ratio['trials_per_sec']:.1f} t/s, same run)")
    if BASELINE_TRIALS_PER_SEC:
        speedup = summary["speedup_vs_baseline"]
        print(f"  vs baseline:       {speedup:9.2f}x "
              f"(baseline {BASELINE_TRIALS_PER_SEC:.1f} t/s, cross-host)")
        assert speedup >= TARGET_SPEEDUP, (
            f"trial hot path regressed: {speedup:.2f}x < {TARGET_SPEEDUP}x "
            f"over the pre-change baseline"
        )
    assert untranslated["median_ratio"] >= TRANSLATION_TARGET_SPEEDUP, (
        f"translation cache underdelivered: {untranslated['median_ratio']:.2f}x < "
        f"{TRANSLATION_TARGET_SPEEDUP}x over the same run's translate=False pass"
    )
    # The cache must actually carry the workload, not just exist.
    assert summary["translation"]["translated_share"] > 0.5
    assert per_trial["median_ratio"] >= LOCKSTEP_TARGET_SPEEDUP, (
        f"twin batching underdelivered: {per_trial['median_ratio']:.2f}x < "
        f"{LOCKSTEP_TARGET_SPEEDUP}x over the same run's per-trial pass"
    )
    # The scan must actually settle twins, not just exist.
    assert summary["lockstep"]["dead_twins"] > 0
    # The optimization must never change the science: every trial still
    # classifies, and the counters account for every one of them.
    assert all(r.benchmark == "" for r in records)
    assert machine["trials"] == len(records)
