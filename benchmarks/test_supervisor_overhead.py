"""Supervisor overhead: fault-free supervised engine vs the bare serial loop.

The supervision layer (retry accounting, chaos hooks, watchdog plumbing)
wraps every shard attempt; on a healthy campaign it must be invisible.
This harness runs the same campaign through the bare serial
``FaultInjectionCampaign`` loop and through a supervised ``CampaignEngine``
with ``jobs=1, n_shards=1`` — same process, no pool, one shard, so both
sides execute the identical trial work and the *only* delta is the
supervision wrapper (retry loop, chaos checks, journalling hooks,
telemetry).  Shard-granularity costs (per-shard warmup and golden
regeneration) belong to the planner and are measured by
``test_engine_throughput.py``, not here.  Records must be bit-identical
and the supervised run must stay within a small overhead envelope.

Each variant runs ``REPS`` times and the fastest rep is compared (min, not
mean, is the standard noise filter for micro-overhead claims).  A summary
is written to ``BENCH_supervisor.json`` (override with
``REPRO_BENCH_OUTPUT``).  Scale with ``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.engine import CampaignEngine, RetryPolicy
from repro.faults import CampaignConfig, FaultInjectionCampaign

from benchmarks.conftest import SEED, scaled, write_bench

N_INJECTIONS = scaled(600)
REPS = 3
#: Acceptance envelope: supervised fault-free throughput within 2% of serial.
MAX_OVERHEAD = 0.02


def _best_of(fn):
    best, result = float("inf"), None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_supervisor_overhead_is_negligible():
    config = CampaignConfig(n_injections=N_INJECTIONS, seed=SEED)

    serial_s, serial = _best_of(lambda: FaultInjectionCampaign(config).run())
    supervised_s, supervised = _best_of(
        lambda: CampaignEngine(
            config, jobs=1, n_shards=1,
            retry=RetryPolicy(max_retries=2, seed=SEED),
        ).run()
    )

    # Supervision must never change the science.
    assert supervised.records == serial.records
    assert not supervised.degraded

    overhead = supervised_s / serial_s - 1.0
    # Advisory context: how the supervised hot path sits against the
    # committed machine-throughput baseline (different machine classes make
    # this a reference point, not an assertion).
    baseline_path = Path(__file__).parent / "BENCH_machine.json"
    baseline_tps = None
    if baseline_path.exists():
        baseline_tps = json.loads(baseline_path.read_text()).get("trials_per_sec")
    summary = {
        "format": "xentry-bench-supervisor-v1",
        "n_injections": len(serial),
        "seed": SEED,
        "reps": REPS,
        "serial_seconds": serial_s,
        "supervised_seconds": supervised_s,
        "serial_trials_per_sec": len(serial) / serial_s,
        "supervised_trials_per_sec": len(supervised) / supervised_s,
        "overhead_fraction": overhead,
        "max_overhead_fraction": MAX_OVERHEAD,
        "machine_baseline_trials_per_sec": baseline_tps,
    }
    output = write_bench("supervisor", summary)

    print(f"\nsupervisor overhead — {len(serial)} injections, best of {REPS}")
    print(f"serial      {serial_s:8.2f}s  {len(serial) / serial_s:10.1f} trials/s")
    print(
        f"supervised  {supervised_s:8.2f}s  "
        f"{len(supervised) / supervised_s:10.1f} trials/s"
    )
    print(f"overhead    {overhead:+8.2%}  (envelope {MAX_OVERHEAD:.0%})")
    if baseline_tps:
        ratio = (len(supervised) / supervised_s) / baseline_tps
        print(f"vs machine baseline {baseline_tps:.1f} trials/s: {ratio:.2f}x")
    print(f"summary written to {output}")

    assert overhead < MAX_OVERHEAD, (
        f"supervised fault-free run is {overhead:.2%} slower than serial "
        f"(envelope {MAX_OVERHEAD:.0%})"
    )
