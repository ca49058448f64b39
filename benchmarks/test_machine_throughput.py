"""Machine-level trial throughput: the fault-injection hot path.

Measures trials/sec on a fixed-seed workload shaped like the campaign's
inner loop — capture a golden run, then execute a batch of injected trials
against it — plus the per-trial state-reset cost (restore µs) and the
golden-prefix fast-forward hit rate.  A machine-readable summary is written
to ``BENCH_machine.json`` next to this file (override with
``REPRO_BENCH_OUTPUT``).

The harness deliberately runs unmodified on the pre-optimization code
(feature-detecting the ladder/fast-forward, translation-cache and
lock-step batch APIs), so every committed baseline was produced by this
exact file against its pre-change tree.  An untimed warm-up pass runs the
whole workload once first, so the timed region measures the steady state
campaigns actually see (the translation cache is process-wide, and
production pool workers fork with the blocks earlier workers compiled);
the baselines were all re-measured through the same warm-up.  Three gates: the
checkpoint/fast-forward work must hold ≥ 3× the interpreter-era baseline,
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

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.faults import FaultModel, capture_golden, run_trial
from repro.hypervisor import Activation, REGISTRY, XenHypervisor

try:  # pre-lockstep tree: no twin-batch API — per-trial loop below
    from repro.faults import run_twin_batch
except ImportError:
    run_twin_batch = None

from benchmarks.conftest import SEED, scaled

N_GOLDENS = 6
#: Campaign-scale trial counts (production campaigns run thousands of
#: injections per golden): warmth-gated trace compilation only amortizes
#: at this scale, so benchmarking at toy trial counts would measure
#: compile overhead instead of the steady state campaigns actually see.
TRIALS_PER_GOLDEN = scaled(800)
LADDER_INTERVAL = 32

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

OUTPUT = Path(
    os.environ.get("REPRO_BENCH_OUTPUT", Path(__file__).parent / "BENCH_machine.json")
)


def _capture(hv: XenHypervisor, activation: Activation, followups):
    """Golden capture, with the fast-forward ladder when the tree has it."""
    try:
        return capture_golden(
            hv, activation, followups, ladder_interval=LADDER_INTERVAL
        )
    except TypeError:  # pre-change tree: no ladder support
        return capture_golden(hv, activation, followups)


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
        golden = _capture(hv, activation, ())
        # Fault sampling is hoisted out of the trial loop either way, so
        # the RNG stream — and therefore the trial set — is identical on
        # trees with and without the twin-batch API.
        faults = [
            model.sample(rng, run_length=golden.result.instructions)
            for _ in range(TRIALS_PER_GOLDEN)
        ]
        if run_twin_batch is not None:
            records.extend(
                run_twin_batch(hv, activation, faults, golden=golden)
            )
        else:
            for fault in faults:
                records.append(run_trial(hv, activation, fault, golden=golden))
    return records, time.perf_counter() - t0


def _restore_microseconds(hv: XenHypervisor) -> float | None:
    """Mean per-trial state-reset cost, new (COW) path only."""
    if not hasattr(hv, "capture_machine"):
        return None
    activation = Activation(
        vmer=REGISTRY.by_name("mmu_update").vmer, args=(8, 1), domain_id=1, seq=0
    )
    golden = _capture(hv, activation, ())
    rung = golden.ladder[len(golden.ladder) // 2]
    n = 200
    t0 = time.perf_counter()
    for _ in range(n):
        hv.restore_machine(rung)
    return (time.perf_counter() - t0) / n * 1e6


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
    records, elapsed = _run_workload(hv)
    trials_per_sec = len(records) / elapsed

    ff = getattr(hv, "ff_stats", None)
    ls = getattr(hv, "lockstep_stats", None)
    proved_hangs = sum(getattr(c, "proved_hangs", 0) for c in hv.cores)
    proved_hang_instructions = sum(
        getattr(c, "proved_hang_instructions", 0) for c in hv.cores
    )
    # Block-cache telemetry, feature-detected so the harness still runs
    # against the pre-translation tree to (re)measure its baseline.
    tstats = (
        hv.translation_stats() if hasattr(hv, "translation_stats") else None
    )
    translated = interpreted = 0
    if tstats:
        translated = tstats["translated_instructions"]
        interpreted = tstats["interpreted_instructions"]
    summary = {
        "format": "xentry-bench-machine-v1",
        "seed": SEED,
        "n_trials": len(records),
        "elapsed_seconds": elapsed,
        "trials_per_sec": trials_per_sec,
        "ladder_interval": LADDER_INTERVAL,
        "restore_microseconds": _restore_microseconds(hv),
        "fast_forward": (
            {
                "hit_rate": ff["fast_forwarded"] / max(1, ff["trials"]),
                "instructions_skipped": ff["instructions_skipped"],
            }
            if ff
            else None
        ),
        "translation": (
            {
                "blocks_compiled": tstats["blocks_compiled"],
                "block_executions": tstats["block_executions"],
                "block_hit_rate": tstats["block_hit_rate"],
                "translated_instructions": translated,
                "interpreted_instructions": interpreted,
                "translated_share": (
                    translated / (translated + interpreted)
                    if translated + interpreted
                    else 0.0
                ),
            }
            if tstats
            else None
        ),
        "lockstep": (
            {
                "twin_batches": ls["twin_batches"],
                "twins": ls["twins"],
                "dead_twins": ls["dead_twins"],
                "peeled_twins": ls["peeled_twins"],
                "dead_rate": ls["dead_twins"] / max(1, ls["twins"]),
                "peel_rate": ls["peeled_twins"] / max(1, ls["twins"]),
                "synthesized_instructions": ls["synthesized_instructions"],
                "read_ff_instructions": ls["read_ff_instructions"],
                "proved_hangs": proved_hangs,
                "proved_hang_instructions": proved_hang_instructions,
            }
            if ls and ls["twins"]
            else None
        ),
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
    OUTPUT.write_text(json.dumps(summary, indent=1))

    print(f"\nmachine trial throughput — {len(records)} trials, seed {SEED}")
    print(f"  trials/sec:        {trials_per_sec:10.1f}")
    if summary["restore_microseconds"] is not None:
        print(f"  restore:           {summary['restore_microseconds']:10.2f} µs")
    if ff:
        print(f"  fast-forward hits: {ff['fast_forwarded']}/{ff['trials']} "
              f"({summary['fast_forward']['hit_rate']:.0%}), "
              f"{ff['instructions_skipped']:,} instructions skipped")
    if tstats:
        tr = summary["translation"]
        print(f"  block cache:       {tr['blocks_compiled']} blocks compiled, "
              f"hit rate {tr['block_hit_rate']:.1%}")
        print(f"  instruction mix:   {translated:,} translated / "
              f"{interpreted:,} interpreted "
              f"({tr['translated_share']:.1%} translated)")
    if summary["lockstep"]:
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
    if tstats and TRANSLATION_BASELINE_TRIALS_PER_SEC:
        tspeedup = summary["speedup_vs_translation_baseline"]
        print(f"  vs pre-translate:  {tspeedup:9.2f}x "
              f"(baseline {TRANSLATION_BASELINE_TRIALS_PER_SEC:.1f} t/s)")
        assert tspeedup >= TRANSLATION_TARGET_SPEEDUP, (
            f"translation cache underdelivered: {tspeedup:.2f}x < "
            f"{TRANSLATION_TARGET_SPEEDUP}x over the pre-translation baseline"
        )
        # The cache must actually carry the workload, not just exist.
        assert summary["translation"]["translated_share"] > 0.5
    if summary["lockstep"] and LOCKSTEP_BASELINE_TRIALS_PER_SEC:
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
    # classifies, and the fast-forward path serves (nearly) all of them.
    assert all(r.benchmark == "" for r in records)
    if ff:
        assert ff["fast_forwarded"] == ff["trials"]
