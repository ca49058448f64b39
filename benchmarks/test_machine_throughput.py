"""Machine-level trial throughput: the fault-injection hot path.

Measures trials/sec on a fixed-seed workload shaped like the campaign's
inner loop — capture a golden run, then execute a batch of injected trials
against it — plus the per-trial state-reset cost (restore µs) and the
instructions settled without executing them.  A machine-readable summary is written
to ``BENCH_machine.json`` next to this file (override with
``REPRO_BENCH_OUTPUT``).

The committed baselines were measured by earlier versions of this file on
their pre-change trees; this one reads its counters from one
:func:`repro.metrics.counted` delta around the timed pass and runs on this
tree only.  An untimed warm-up pass runs the whole workload once first,
so the timed region measures the steady state
campaigns actually see (the translation cache is process-wide, and
production pool workers fork with the blocks earlier workers compiled);
the baselines were all re-measured through the same warm-up.  Three gates: the
trial hot path must hold ≥ 3× the interpreter-era baseline,
the basic-block translation cache must hold ≥ 1.5× the pre-translation
tree (plus carry > 50% of retired instructions, so the cache can't "pass"
by staying cold), and lock-step twin batching must hold ≥ 2× the
pre-lockstep tree.  The summary records translation telemetry (blocks
compiled, block-dispatch hit rate, instruction mix) and a ``lockstep``
section (twins batched, dead/peel split, synthesized instructions, proved
hangs).  CI runs this as a non-blocking perf smoke because absolute
throughput varies across machines.
"""

from __future__ import annotations

import os
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

#: trials/sec of this exact harness against the pre-change implementation
#: (full-copy checkpoints, no resumable core, pre-optimization interpreter),
#: measured on the same machine that produced the committed
#: ``BENCH_machine.json``.  Moves only when the benchmark shape changes;
#: all three baselines below were re-measured (best of repeated
#: fresh-process runs) when the lock-step PR added the untimed warm-up
#: pass, so every number is a steady-state figure from this exact file.
BASELINE_TRIALS_PER_SEC = float(
    os.environ.get("REPRO_BENCH_MACHINE_BASELINE", "810.6")
)
TARGET_SPEEDUP = 3.0

#: trials/sec of the checkpoint/fast-forward tree *before* the basic-block
#: translation cache landed, same machine, harness and 4800-trial shape as
#: above.  The translation work gates against this.
TRANSLATION_BASELINE_TRIALS_PER_SEC = float(
    os.environ.get("REPRO_BENCH_TRANSLATION_BASELINE", "2801.1")
)
TRANSLATION_TARGET_SPEEDUP = 1.5

#: trials/sec of the translation-cache tree *before* lock-step twin
#: batching landed, same machine, harness and 4800-trial shape as above —
#: this exact harness file (warm-up pass included) run against the
#: pre-lockstep tree in fresh processes; the feature detection above
#: takes the per-trial path there.  The twin-batch work gates against
#: this steady-state figure, not the colder 3688.8 t/s the pre-lockstep
#: tree recorded without the warm-up pass.
LOCKSTEP_BASELINE_TRIALS_PER_SEC = float(
    os.environ.get("REPRO_BENCH_LOCKSTEP_BASELINE", "5296.4")
)
LOCKSTEP_TARGET_SPEEDUP = 2.0



def _run_workload(hv: XenHypervisor):
    """The fixed-seed trial workload; returns (records, elapsed_seconds)."""
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
        golden = capture_golden(hv, activation)
        # Faults are drawn up front, so the trial set is the one the
        # baselines measured.
        faults = [
            model.sample(rng, run_length=golden.result.instructions)
            for _ in range(TRIALS_PER_GOLDEN)
        ]
        records.extend(run_twin_batch(hv, activation, faults, golden=golden))
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


def _aged_machine() -> XenHypervisor:
    hv = XenHypervisor(seed=SEED)
    # Age the platform the way the campaign does before taking goldens.
    for i, reason in enumerate(list(REGISTRY)[:5]):
        hv.execute(Activation(vmer=reason.vmer, args=(3, 1), domain_id=1, seq=i))
    return hv


def test_machine_trial_throughput():
    # Untimed warm-up: one full pass on a throwaway machine, so the timed
    # region below measures the steady state campaigns actually see.  The
    # translation cache is process-wide, so heat carries across machines,
    # and production pool workers fork with the blocks earlier workers
    # compiled (engine/pool.py ``warm_worker``); without this pass the
    # measurement would be dominated by one-time trace compilation and
    # heat-gate crossings.
    _run_workload(_aged_machine())

    hv = _aged_machine()
    (records, elapsed), counts = counted(_run_workload, hv)
    trials_per_sec = len(records) / elapsed
    # What the timed pass counted (the warm-up compiled most blocks, so
    # blocks_compiled is what this pass still had to compile).
    machine = CampaignCounters.folded(counts).machine()
    translated = machine["translated_instructions"]
    interpreted = machine["interpreted_instructions"]
    summary = {
        "format": "xentry-bench-machine-v1",
        "seed": SEED,
        "n_trials": len(records),
        "elapsed_seconds": elapsed,
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
        "speedup_vs_baseline": (
            trials_per_sec / BASELINE_TRIALS_PER_SEC
            if BASELINE_TRIALS_PER_SEC
            else None
        ),
        "translation_baseline_trials_per_sec": (
            TRANSLATION_BASELINE_TRIALS_PER_SEC or None
        ),
        "speedup_vs_translation_baseline": (
            trials_per_sec / TRANSLATION_BASELINE_TRIALS_PER_SEC
            if TRANSLATION_BASELINE_TRIALS_PER_SEC
            else None
        ),
        "lockstep_baseline_trials_per_sec": (
            LOCKSTEP_BASELINE_TRIALS_PER_SEC or None
        ),
        "speedup_vs_lockstep_baseline": (
            trials_per_sec / LOCKSTEP_BASELINE_TRIALS_PER_SEC
            if LOCKSTEP_BASELINE_TRIALS_PER_SEC
            else None
        ),
    }
    write_bench("machine", summary)

    print(f"\nmachine trial throughput — {len(records)} trials, seed {SEED}")
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
    if BASELINE_TRIALS_PER_SEC:
        speedup = summary["speedup_vs_baseline"]
        print(f"  vs baseline:       {speedup:9.2f}x "
              f"(baseline {BASELINE_TRIALS_PER_SEC:.1f} t/s)")
        assert speedup >= TARGET_SPEEDUP, (
            f"trial hot path regressed: {speedup:.2f}x < {TARGET_SPEEDUP}x "
            f"over the pre-change baseline"
        )
    if TRANSLATION_BASELINE_TRIALS_PER_SEC:
        tspeedup = summary["speedup_vs_translation_baseline"]
        print(f"  vs pre-translate:  {tspeedup:9.2f}x "
              f"(baseline {TRANSLATION_BASELINE_TRIALS_PER_SEC:.1f} t/s)")
        assert tspeedup >= TRANSLATION_TARGET_SPEEDUP, (
            f"translation cache underdelivered: {tspeedup:.2f}x < "
            f"{TRANSLATION_TARGET_SPEEDUP}x over the pre-translation baseline"
        )
        # The cache must actually carry the workload, not just exist.
        assert summary["translation"]["translated_share"] > 0.5
    if LOCKSTEP_BASELINE_TRIALS_PER_SEC:
        lspeedup = summary["speedup_vs_lockstep_baseline"]
        print(f"  vs pre-lockstep:   {lspeedup:9.2f}x "
              f"(baseline {LOCKSTEP_BASELINE_TRIALS_PER_SEC:.1f} t/s)")
        assert lspeedup >= LOCKSTEP_TARGET_SPEEDUP, (
            f"twin batching underdelivered: {lspeedup:.2f}x < "
            f"{LOCKSTEP_TARGET_SPEEDUP}x over the pre-lockstep baseline"
        )
        # The scan must actually settle twins, not just exist.
        assert summary["lockstep"]["dead_twins"] > 0
    # The optimization must never change the science: every trial still
    # classifies, and the counters account for every one of them.
    assert all(r.benchmark == "" for r in records)
    assert machine["trials"] == len(records)
