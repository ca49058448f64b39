"""The detection service's metric taxonomy.

The service needs the observability idiom of a real fleet daemon — labeled
counters asserted directly in tests (py-chaos-agent's ``INJECTIONS_TOTAL
.labels(failure_type='cpu', status='success')`` style) and a ``/metrics``
text exposition a Prometheus scraper would accept — without adding a
dependency the container does not have.  The metric types and the registry
are the bottom layer's (:mod:`repro.metrics`, where the campaign counts its
own work); this module names what the service counts.  Its registry is the
service's one count of scored, dropped and detected rows, which the run's
totals, its summary, ``/healthz`` and ``/metrics`` all read.
"""

from __future__ import annotations

from repro.metrics import MetricsRegistry

__all__ = ["OUTCOMES", "ServiceMetrics"]


#: Ground-truth-aware classification outcomes (the simulator knows which rows
#: carried an injected fault, so the service can label every verdict).
OUTCOMES: tuple[str, ...] = (
    "true_positive", "false_positive", "true_negative", "false_negative",
)


class ServiceMetrics:
    """The detection service's metric taxonomy on one registry.

    ``detections_total`` counts every scored row by ground-truth outcome —
    detections proper are the ``true_positive`` + ``false_positive`` children.
    Queue pressure is never silent: overflow drops land in
    ``rows_dropped_total`` with the host that dropped them.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.rows_emitted = self.registry.counter(
            "repro_rows_emitted_total",
            "Feature rows emitted by the fleet simulator.", ("host",),
        )
        self.rows_scored = self.registry.counter(
            "repro_rows_scored_total",
            "Feature rows classified by the detector.", ("host",),
        )
        self.rows_dropped = self.registry.counter(
            "repro_rows_dropped_total",
            "Rows evicted by queue backpressure (drop-oldest policy).", ("host",),
        )
        self.detections = self.registry.counter(
            "repro_detections_total",
            "Scored rows by ground-truth outcome.", ("outcome",),
        )
        self.recoveries = self.registry.counter(
            "repro_recoveries_total",
            "Recovery dispositions for scored detections: a true positive "
            "recovers the activation, a false positive re-executes "
            "spuriously.", ("outcome",),
        )
        self.batches = self.registry.counter(
            "repro_batches_scored_total",
            "Micro-batches drained through classify_batch.",
        )
        self.queue_depth = self.registry.gauge(
            "repro_queue_depth",
            "Rows currently queued per host.", ("host",),
        )
        self.pending_rows = self.registry.gauge(
            "repro_pending_rows",
            "Accepted rows waiting in the global micro-batch buffer.",
        )
        self.hosts_up = self.registry.gauge(
            "repro_fleet_hosts",
            "Simulated hypervisor hosts in the fleet.",
        )
        self.decision_latency = self.registry.histogram(
            "repro_decision_latency_seconds",
            "Wall-clock delay from row emission to classification.", ("host",),
        )
