"""Campaign-engine throughput: serial vs ``--jobs``, cold vs warm cache.

Measures the same campaign executed several ways — the serial
``FaultInjectionCampaign`` loop, the sharded engine with 2 and 4 worker
processes, and the widest engine against a cold then warm golden artifact
cache — verifying bit-identical results while reporting throughput and
speedup.  The widest engine's no-cache, cold-cache and warm-cache runs
alternate ``REPS`` times (a fresh store per cold run); each repetition runs
the three back to back, so each cache speed-up is the median of the
per-repetition ratios, which cancels host drift between repetitions, and
the summary records those ratios with their quartile spread.  Job counts are capped at the host's CPU count, so no run is
oversubscribed; the summary records the host.  A machine-readable summary
is written to ``BENCH_engine.json`` next to this file (override with
``REPRO_BENCH_OUTPUT``).

Scale with ``REPRO_BENCH_SCALE`` like the other harnesses; at the default
scale the file runs in about a minute on a 2-CPU host.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.engine import CampaignEngine, EngineTelemetry, plan_campaign
from repro.faults import CampaignConfig, FaultInjectionCampaign

from benchmarks.conftest import SEED, scaled, write_bench

#: Sized so each widest-engine phase lasts 1-3 s on a 2-CPU Xeon: at 600
#: injections and 3 repetitions the phases lasted 0.2-0.4 s and five runs'
#: warm/no-cache ratios spread 0.31x.  At this size five runs of the ratio
#: of phase medians spread 0.12-0.21x; doubling the injections did not
#: narrow that, so host drift across the run, not phase length, sets what
#: spread remains, and the gate reads per-repetition ratios instead.
N_INJECTIONS = scaled(6000)
NPROC = len(os.sched_getaffinity(0))
#: Pooled job counts, capped at the host's CPUs.
JOBS = sorted({min(jobs, NPROC) for jobs in (2, 4)})
#: Acceptance floor for the golden artifact cache: a warm run at the widest
#: job count must beat the cacheless run at that count by this factor (zero
#: captures vs full capture cost; every pool of the process forks hot).
TARGET_WARM_SPEEDUP = 1.5
#: Alternating repetitions behind each widest-engine phase's median.
REPS = 9


def _quartiles(values: list[float]) -> list[float]:
    """First and third quartile of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _timed(label: str, fn):
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return {
        "label": label,
        "elapsed_seconds": elapsed,
        "trials": len(result),
        "trials_per_sec": len(result) / elapsed if elapsed > 0 else 0.0,
    }, result


def _median_run(label: str, reps: list[tuple[float, int, dict | None]]) -> dict:
    """One phase's summary: the median of its repetitions' wall times."""
    elapsed = statistics.median(seconds for seconds, _, _ in reps)
    stats = {
        "label": label,
        "elapsed_seconds": elapsed,
        "repetitions": [seconds for seconds, _, _ in reps],
        "trials": reps[0][1],
        "trials_per_sec": reps[0][1] / elapsed if elapsed > 0 else 0.0,
    }
    cache = reps[-1][2]
    if cache is not None:
        stats["golden_cache"] = cache
    return stats


def test_engine_throughput_and_speedup():
    config = CampaignConfig(n_injections=N_INJECTIONS, seed=SEED)
    runs = []

    serial_stats, serial = _timed(
        "serial", lambda: FaultInjectionCampaign(config).run()
    )
    runs.append(serial_stats)
    for jobs in JOBS[:-1]:
        stats, result = _timed(
            f"jobs={jobs}",
            lambda jobs=jobs: CampaignEngine(
                config, jobs=jobs, n_shards=2 * jobs
            ).run(),
        )
        # Parallelism must never change the science.
        assert result.records == serial.records
        runs.append(stats)

    # Golden artifact cache: the widest campaign without a cache, against a
    # cold content-addressed cache, then against the same cache warm.  The
    # warm run must execute zero golden captures (manifest hit rate 1.0) and
    # its speedup over the no-cache run at the same job count is the
    # headline number of the cache.  The three phases alternate REPS times.
    jobs = JOBS[-1]
    phases: dict[str, list] = {"no-cache": [], "cold-cache": [], "warm-cache": []}
    for _ in range(REPS):
        with tempfile.TemporaryDirectory() as tmp:
            cached = dataclasses.replace(config, artifacts=str(Path(tmp) / "cache"))
            for phase, phase_config in (
                ("no-cache", config), ("cold-cache", cached), ("warm-cache", cached),
            ):
                telemetry = EngineTelemetry()
                t0 = time.perf_counter()
                result = CampaignEngine(
                    phase_config, jobs=jobs, n_shards=2 * jobs, telemetry=telemetry
                ).run()
                seconds = time.perf_counter() - t0
                # Neither parallelism nor the cache may change the science.
                assert result.records == serial.records
                cache = (
                    telemetry.counters.golden_cache() if phase != "no-cache" else None
                )
                phases[phase].append((seconds, len(result), cache))
        assert cache["hit_rate"] == 1.0, cache
        assert cache.get("golden_misses", 0) == 0, cache
    no_cache = _median_run(f"jobs={jobs}", phases["no-cache"])
    runs.append(no_cache)
    for phase in ("cold-cache", "warm-cache"):
        stats = _median_run(f"jobs={jobs} {phase}", phases[phase])
        # Each repetition ran no-cache and this phase back to back.
        ratios = [
            plain / cached
            for (plain, _, _), (cached, _, _) in zip(phases["no-cache"], phases[phase])
        ]
        stats["speedup_vs_no_cache"] = statistics.median(ratios)
        stats["speedup_repetitions"] = ratios
        stats["speedup_quartiles"] = _quartiles(ratios)
        runs.append(stats)
    for stats in runs[1:]:
        stats["speedup_vs_serial"] = (
            serial_stats["elapsed_seconds"] / stats["elapsed_seconds"]
        )

    summary = {
        "format": "xentry-bench-engine-v2",
        "n_injections": len(serial),
        "n_shards_planned": plan_campaign(config, 2 * jobs).n_shards,
        "seed": SEED,
        "repetitions": REPS,
        "runs": runs,
        "warm_cache_speedup_vs_no_cache": runs[-1]["speedup_vs_no_cache"],
        "warm_cache_speedup_quartiles": runs[-1]["speedup_quartiles"],
        "target_warm_speedup": TARGET_WARM_SPEEDUP,
    }
    output = write_bench("engine", summary)

    print(f"\nengine throughput — {len(serial)} injections, seed {SEED}, "
          f"nproc {NPROC}")
    print(f"{'config':<18} {'elapsed':>9} {'trials/s':>10} {'speedup':>9}")
    for stats in runs:
        speedup = stats.get("speedup_vs_serial", 1.0)
        print(
            f"{stats['label']:<18} {stats['elapsed_seconds']:8.2f}s "
            f"{stats['trials_per_sec']:10.1f} {speedup:8.2f}x"
        )
    warm = runs[-1]
    q1, q3 = warm["speedup_quartiles"]
    print(
        f"warm cache vs no cache (jobs={jobs}): "
        f"{warm['speedup_vs_no_cache']:.2f}x median of {REPS} repetitions, "
        f"quartiles {q1:.2f}-{q3:.2f}x "
        f"(capture {warm['golden_cache'].get('golden_capture_seconds', 0.0):.2f}s, "
        f"load {warm['golden_cache'].get('golden_load_seconds', 0.0):.2f}s)"
    )
    print(f"summary written to {output}")

    # The summary is written first, so a run that misses a floor still
    # records its numbers.
    assert warm["speedup_vs_no_cache"] >= TARGET_WARM_SPEEDUP, (
        f"warm cache regressed: {warm['speedup_vs_no_cache']:.2f}x "
        f"< {TARGET_WARM_SPEEDUP}x over the cacheless {no_cache['label']} run"
    )
    # Sanity floor, not a strict scaling claim: pooled runs must at least
    # not collapse (worker startup amortized over the campaign).
    pooled = runs[1]
    assert pooled["trials_per_sec"] > 0.3 * serial_stats["trials_per_sec"]
