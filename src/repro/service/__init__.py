"""Streaming detection service: fleet simulation, micro-batch scoring, metrics.

The paper's Xentry is an *online* detector living inside Xen; this package is
the production-shaped counterpart for the reproduction — a long-lived daemon
that scores activation feature streams from a fleet of simulated hypervisor
hosts through a loaded model artifact, with Prometheus-style observability:

* :mod:`repro.service.fleet` — deterministic fleet simulator (hosts x VMs
  emitting (VMER, RT, BR, RM, WM) rows from seeded per-host RNG streams),
  one columnar ``FleetTick`` per tick;
* :mod:`repro.service.scorer` — bounded per-host queues with explicit
  backpressure, drained into micro-batches through
  ``CompiledRules.classify_batch``, every stage on column chunks rather
  than row objects;
* :mod:`repro.service.metrics` — the metric taxonomy on one registry of
  :mod:`repro.metrics`'s ``Counter``/``Gauge``/``Histogram`` (no new
  dependency); the run's totals, its summary and ``/healthz`` render from
  the children ``/metrics`` exposes, and a histogram takes a scored
  batch's latencies in one grouped update;
* :mod:`repro.service.http` — stdlib scrape endpoint (``/metrics``,
  ``/healthz``) with graceful shutdown;
* :mod:`repro.service.daemon` — the tick loop wiring it together, exposed as
  the ``repro-xentry serve`` subcommand.

Determinism contract: with a fixed seed and a row cap, the end-of-run
detection totals are bit-identical across runs and independent of the
micro-batch size (batching never changes a label; overflow drops depend only
on the emission schedule and queue depth).
"""

from repro.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.daemon import DetectionService, ServiceConfig, ServiceReport
from repro.service.fleet import (
    FleetConfig,
    FleetRow,
    FleetSimulator,
    FleetTick,
    HostStream,
)
from repro.service.http import MetricsServer
from repro.service.metrics import ServiceMetrics
from repro.service.scorer import MicroBatchScorer, OverflowPolicy, ScoreTotals

__all__ = [
    "Counter",
    "DetectionService",
    "FleetConfig",
    "FleetRow",
    "FleetSimulator",
    "FleetTick",
    "Gauge",
    "Histogram",
    "HostStream",
    "MetricsRegistry",
    "MetricsServer",
    "MicroBatchScorer",
    "OverflowPolicy",
    "ScoreTotals",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceReport",
]
