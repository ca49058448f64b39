"""The service's metrics: histograms on the bottom-layer registry.

The service needs the observability idiom of a real fleet daemon — labeled
counters asserted directly in tests (py-chaos-agent's ``INJECTIONS_TOTAL
.labels(failure_type='cpu', status='success')`` style) and a ``/metrics``
text exposition a Prometheus scraper would accept — without adding a
dependency the container does not have.  ``Counter``, ``Gauge`` and the
registry live in :mod:`repro.metrics`, where the campaign counts its own
work; this module adds the histogram, whose children lower onto the
analysis layer.

Percentile summaries are *not* duplicated here: histogram children expose
their raw cumulative buckets, and :meth:`Histogram.Child.latency_cdf` lowers
them onto :class:`repro.analysis.stats.Cdf`, the same machinery behind the
paper's Fig. 10 latency CDF.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable, Sequence

import numpy as np

from repro import metrics
from repro.analysis.stats import Cdf
from repro.errors import CampaignConfigError
from repro.metrics import Counter, Gauge, _Metric, _render_labels, format_value

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "format_value",
]

#: Default histogram buckets (seconds), tuned for sub-millisecond decisions.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


def _bucket(edges: np.ndarray, values):
    """Bucket index of each value: the first bound at or above it."""
    return np.searchsorted(edges, values, side="left")


class Histogram(_Metric):
    """Cumulative-bucket histogram (the ``le`` convention)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise CampaignConfigError("histogram needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.bounds = bounds
        self._edges = np.array(bounds)

    class Child:
        __slots__ = ("_lock", "bounds", "_edges", "counts", "total", "count")

        def __init__(self, bounds: tuple[float, ...], edges: np.ndarray) -> None:
            self._lock = threading.Lock()
            self.bounds = bounds
            self._edges = edges
            self.counts = np.zeros(len(bounds), dtype=np.int64)  # per bucket
            self.total = 0.0
            self.count = 0

        def observe(self, value: float) -> None:
            index = _bucket(self._edges, value)
            with self._lock:
                self.counts[index] += 1
                self.total += value
                self.count += 1

        def _fold(self, counts: np.ndarray, total: float, count: int) -> None:
            with self._lock:
                self.counts += counts
                self.total += total
                self.count += count

        def cumulative(self) -> list[int]:
            """Counts at or below each bound (the exposition convention)."""
            with self._lock:
                return np.cumsum(self.counts).tolist()

        def latency_cdf(self) -> Cdf:
            """Lower the buckets onto the analysis-layer CDF machinery.

            Each observation is represented by its bucket's upper bound (the
            resolution the histogram actually has), so percentiles read off
            this CDF agree with what a Prometheus ``histogram_quantile``
            would report at bucket granularity.  The overflow bucket is
            represented by the largest finite bound.
            """
            with self._lock:
                counts = self.counts.copy()
            finite = [b for b in self.bounds if b != math.inf]
            uppers = finite + [finite[-1]]  # +Inf observations clamp to last bound
            samples = np.repeat(uppers, counts)
            if samples.size == 0:
                raise CampaignConfigError("histogram has no observations")
            return Cdf.from_samples(samples)

    def _make_child(self) -> "Histogram.Child":
        return Histogram.Child(self.bounds, self._edges)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def observe_grouped(
        self,
        children: Sequence["Histogram.Child"],
        group: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Observe ``values[i]`` in ``children[group[i]]``: the values are
        bucketed together and each child is updated once."""
        width = len(self.bounds)
        cells = group * width + _bucket(self._edges, values)
        counts = np.bincount(cells, minlength=len(children) * width)
        totals = np.bincount(group, weights=values, minlength=len(children))
        sizes = np.bincount(group, minlength=len(children))
        for child, row, total, size in zip(
            children, counts.reshape(-1, width), totals.tolist(), sizes.tolist()
        ):
            child._fold(row, total, size)

    def _expose_child(self, key: tuple[str, ...], child: "Histogram.Child") -> list[str]:
        lines = []
        cumulative = child.cumulative()
        for bound, count in zip(child.bounds, cumulative):
            names = self.labelnames + ("le",)
            values = key + (format_value(bound),)
            lines.append(
                f"{self.name}_bucket{_render_labels(names, values)} {count}"
            )
        labels = _render_labels(self.labelnames, key)
        lines.append(f"{self.name}_sum{labels} {format_value(child.total)}")
        lines.append(f"{self.name}_count{labels} {child.count}")
        return lines


class MetricsRegistry(metrics.MetricsRegistry):
    """The bottom-layer registry, plus histograms."""

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help, labelnames, buckets))  # type: ignore[return-value]


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

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
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

    def expose(self) -> str:
        return self.registry.expose()
