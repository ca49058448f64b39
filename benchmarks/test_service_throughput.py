"""Streaming-service throughput at fleet scale.

Runs the detection daemon's synchronous pipeline over >= 200 simulated
hosts: each tick is emitted as one columnar ``FleetTick``, queued per host
as column chunks under the overflow rule, accepted into the global buffer
and scored in ``batch_rows`` slices through ``classify_batch``, with
per-host counters and latency histograms updated once per batch.  It
reports sustained rows/sec plus the p50/p95/p99 decision latency (emission
to verdict, via the analysis-layer CDF).  A machine-readable summary, with
the host it was measured on, is written to ``BENCH_service.json`` next to
this file (override with ``REPRO_BENCH_OUTPUT``) and committed, so the
service's perf trajectory stays CI-visible like the machine/ML benchmarks.

The floor is deliberately loose (absolute throughput varies across
machines); the committed JSON is the honest reference point.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ml import Dataset, DecisionTreeClassifier, compile_tree
from repro.service import DetectionService, FleetConfig, ServiceConfig

from benchmarks.conftest import SEED, scaled, write_bench

N_HOSTS = 200
VMS_PER_HOST = 8
N_ROWS = scaled(400_000)
BATCH_ROWS = 1024
MIN_ROWS_PER_SEC = 20_000.0



def _detector():
    """A realistically-sized compiled tree over the 5-feature space."""
    rng = np.random.default_rng(SEED)
    n = 4_000
    X = np.column_stack([
        rng.integers(0, 38, n),
        rng.integers(40, 900, n),
        rng.integers(0, 120, n),
        rng.integers(0, 90, n),
        rng.integers(0, 60, n),
    ]).astype(np.int64)
    # Positive labels sit at the top of the nominal RT envelope, so the
    # fitted tree behaves like a deployed detector: clean traffic rarely
    # trips it, scaled-out injected rows usually do.
    y = ((X[:, 1] > 870) ^ (rng.random(n) < 0.01)).astype(np.int8)
    return compile_tree(DecisionTreeClassifier(max_depth=16).fit(Dataset(X, y)))


def test_service_throughput():
    config = ServiceConfig(
        fleet=FleetConfig(
            hosts=N_HOSTS,
            vms_per_host=VMS_PER_HOST,
            seed=SEED,
            inject_fraction=0.02,
            rows_per_tick=4,
        ),
        batch_rows=BATCH_ROWS,
        queue_depth=4096,
        max_rows=N_ROWS,
    )
    service = DetectionService(config, _detector())
    t0 = time.perf_counter()
    report = service.run()
    elapsed = time.perf_counter() - t0

    assert report.totals.rows_scored == N_ROWS
    assert report.totals.rows_dropped == 0
    rows_per_sec = report.totals.rows_scored / elapsed
    pct = report.latency_percentiles

    summary = {
        "format": "xentry-bench-service-v1",
        "seed": SEED,
        "hosts": N_HOSTS,
        "vms_per_host": VMS_PER_HOST,
        "n_rows": N_ROWS,
        "batch_rows": BATCH_ROWS,
        "rows_per_sec": rows_per_sec,
        "elapsed_seconds": elapsed,
        "ticks": report.ticks,
        "detections": report.totals.detections,
        "detection_outcomes": report.totals.outcome_counts(),
        "latency_seconds": pct,
        "min_rows_per_sec": MIN_ROWS_PER_SEC,
    }
    output = write_bench("service", summary)

    print(f"\nservice throughput — {N_HOSTS} hosts x {VMS_PER_HOST} VMs, "
          f"{N_ROWS:,} rows, batch {BATCH_ROWS}")
    print(f"  sustained: {rows_per_sec:,.0f} rows/s over {elapsed:.1f}s "
          f"({report.ticks:,} ticks)")
    print(f"  decisions: {report.totals.detections:,} detections "
          f"(TP {report.totals.true_positive:,} / "
          f"FP {report.totals.false_positive:,})")
    print(f"  latency:   p50 {pct['p50'] * 1e3:.2f} ms  "
          f"p95 {pct['p95'] * 1e3:.2f} ms  p99 {pct['p99'] * 1e3:.2f} ms")
    print(f"summary written to {output}")

    assert rows_per_sec >= MIN_ROWS_PER_SEC, (
        f"service pipeline sustained {rows_per_sec:,.0f} rows/s, "
        f"below the {MIN_ROWS_PER_SEC:,.0f} floor"
    )
