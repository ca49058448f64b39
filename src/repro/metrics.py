"""Labeled counters, gauges and histograms, and the campaign's one counting
registry.

The bottom layer of the package, importable from :mod:`repro.machine` up:
``Counter``, ``Gauge`` and ``Histogram`` with label support, thread safety
and the Prometheus text exposition (version 0.0.4), collected in a
:class:`MetricsRegistry`.  The streaming service's taxonomy
(:mod:`repro.service.metrics`) is one such registry.

Everything a campaign counts about its own work — instructions by execution
path, translation blocks, lock-step twins, trials, skipped instructions,
proved hangs, follow-ups taken from the golden run, golden artifact
lookups — is a child of :data:`COUNTERS`, this
process's :class:`CampaignCounters`, which binds every labeled child once,
as an attribute, so an increment is one ``Child.inc`` and never a
``.labels()`` lookup.  Work is attributed by difference: :func:`counted`
snapshots the registry around a call, a shard attempt ships the
difference to its coordinator, and the run's own :class:`CampaignCounters`
folds one difference per kept attempt — so run totals are exact whichever
process did the work.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.errors import CampaignConfigError

__all__ = [
    "COUNTERS",
    "CampaignCounters",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counted",
    "format_value",
]

#: A registry snapshot: (metric name, label values) -> child value.
Counts = dict[tuple[str, tuple[str, ...]], float]


def format_value(value: float) -> str:
    """Render a sample value the way the text format expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared child bookkeeping: one child per label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        if not name.replace("_", "").replace(":", "").isalnum():
            raise CampaignConfigError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labelvalues: object):
        """Return (creating on first use) the child for one label set."""
        if set(labelvalues) != set(self.labelnames):
            raise CampaignConfigError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _default_child(self):
        """The single unlabeled child (only valid when labelnames is empty)."""
        if self.labelnames:
            raise CampaignConfigError(f"{self.name} is labeled; use .labels(...)")
        return self.labels()

    def _make_child(self):
        raise NotImplementedError

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        """Snapshot of (label values, child) pairs in creation order."""
        with self._lock:
            return list(self._children.items())

    def expose(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, child in self.children():
            lines.extend(self._expose_child(key, child))
        return lines

    def _expose_child(self, key: tuple[str, ...], child) -> list[str]:
        labels = _render_labels(self.labelnames, key)
        return [f"{self.name}{labels} {format_value(child.value)}"]


class Counter(_Metric):
    """A monotonically increasing count, optionally labeled."""

    kind = "counter"

    class Child:
        __slots__ = ("_lock", "_value")

        def __init__(self) -> None:
            self._lock = threading.Lock()
            # Integer until a fractional amount arrives, so counts stay ints.
            self._value = 0

        def inc(self, amount: float = 1) -> None:
            if amount < 0:
                raise CampaignConfigError("counters only go up")
            with self._lock:
                self._value += amount

        @property
        def value(self) -> float:
            with self._lock:
                return self._value

    def _make_child(self) -> "Counter.Child":
        return Counter.Child()

    def inc(self, amount: float = 1) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(_Metric):
    """A value that can go up and down (queue depths, in-flight work)."""

    kind = "gauge"

    class Child:
        __slots__ = ("_lock", "_value")

        def __init__(self) -> None:
            self._lock = threading.Lock()
            self._value = 0.0

        def set(self, value: float) -> None:
            with self._lock:
                self._value = float(value)

        def inc(self, amount: float = 1.0) -> None:
            with self._lock:
                self._value += amount

        def dec(self, amount: float = 1.0) -> None:
            with self._lock:
                self._value -= amount

        @property
        def value(self) -> float:
            with self._lock:
                return self._value

    def _make_child(self) -> "Gauge.Child":
        return Gauge.Child()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


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


class MetricsRegistry:
    """An ordered collection of metrics with one text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise CampaignConfigError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self.register(Gauge(name, help, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help, labelnames, buckets))  # type: ignore[return-value]

    def get(self, name: str) -> _Metric:
        with self._lock:
            return self._metrics[name]

    def expose(self) -> str:
        """The full ``/metrics`` payload (trailing newline included)."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Counts:
        """Every counter and gauge child's value, keyed by (name, labels)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {
            (metric.name, key): child.value
            for metric in metrics if not isinstance(metric, Histogram)
            for key, child in metric.children()
        }

    def fold(self, counts: Counts) -> None:
        """Add what :func:`counted` returned, taken on a registry of the same
        metrics."""
        for (name, key), amount in counts.items():
            metric = self.get(name)
            metric.labels(**dict(zip(metric.labelnames, key))).inc(amount)


class CampaignCounters:
    """Every quantity the campaign counts, as children bound once.

    :data:`COUNTERS` is this process's instance, incremented by the machine,
    fault and artifact layers; an engine run keeps one more per run and
    folds its shard attempts' differences into it.  :meth:`machine` and
    :meth:`golden_cache` render the manifest sections and the CLI summary.
    """

    def __init__(self) -> None:
        r = self.registry = MetricsRegistry()
        path = r.counter("repro_instructions_total",
                         "Simulated instructions retired, by execution path.", ("path",))
        self.translated = path.labels(path="translated")
        self.interpreted = path.labels(path="interpreted")
        self.block_executions = r.counter(
            "repro_block_executions_total", "Translated blocks entered.").labels()
        stage = r.counter("repro_translation_blocks_total",
                          "Translation blocks compiled on demand, adopted from pool "
                          "workers, and compiled by the coordinator before a fork.",
                          ("stage",))
        self.blocks_compiled = stage.labels(stage="compiled")
        self.blocks_adopted = stage.labels(stage="adopted")
        self.blocks_prefork = stage.labels(stage="prefork")
        start = r.counter("repro_trials_total",
                          "Faulty trials, by how their run started: synthesized (dead "
                          "twins), from the checkpoint, or from the golden run's end "
                          "(memory faults its activation never reads).", ("start",))
        self.trials_synthesized = start.labels(start="synthesized")
        self.trials_replayed = start.labels(start="checkpoint")
        self.trials_from_golden = start.labels(start="golden")
        by = r.counter("repro_instructions_skipped_total",
                       "Instructions settled without executing them.", ("by",))
        self.skipped_by_dead_twin = by.labels(by="dead_twin")
        self.skipped_by_proof = by.labels(by="loop_proof")
        self.skipped_by_golden = by.labels(by="golden")
        source = r.counter("repro_followup_executions_total",
                           "Trial follow-up executions, executed or taken from the "
                           "golden run (they read no corrupted word).", ("source",))
        self.followups_executed = source.labels(source="executed")
        self.followups_from_golden = source.labels(source="golden")
        self.proved_hangs = r.counter(
            "repro_proved_hangs_total", "Watchdog kills proved, not executed.").labels()
        self.twin_batches = r.counter(
            "repro_twin_batches_total", "Golden groups run as lock-step batches.").labels()
        self.twins = r.counter(
            "repro_twins_total", "Faulty twins entered into lock-step batches.").labels()
        fate = r.counter("repro_twin_fates_total",
                         "Lock-step twins, dead (synthesized) or peeled.", ("fate",))
        self.dead_twins = fate.labels(fate="dead")
        self.peeled_twins = fate.labels(fate="peeled")
        result = r.counter("repro_golden_lookups_total",
                           "Golden groups looked up in the artifact store.", ("result",))
        self.golden_hits = result.labels(result="hit")
        self.golden_misses = result.labels(result="miss")
        direction = r.counter("repro_artifact_bytes_total",
                              "Artifact bytes read from and committed to packs.",
                              ("direction",))
        self.bytes_loaded = direction.labels(direction="loaded")
        self.bytes_written = direction.labels(direction="written")
        kind = r.counter("repro_artifact_errors_total",
                         "Corrupt artifacts or packs, and failed pack writes.", ("kind",))
        self.artifact_corrupt = kind.labels(kind="corrupt")
        self.write_errors = kind.labels(kind="write")
        self.followups_materialized = r.counter(
            "repro_followups_materialized_total",
            "Golden groups whose follow-ups a trial needed, executed on demand.",
        ).labels()
        phase = r.counter("repro_golden_seconds_total",
                          "Seconds capturing goldens live (follow-ups materialized on "
                          "demand included) and loading them.", ("phase",))
        self.capture_seconds = phase.labels(phase="capture")
        self.load_seconds = phase.labels(phase="load")

    @classmethod
    def folded(cls, counts: Counts) -> "CampaignCounters":
        """Fresh counters holding ``counts`` (what :func:`counted` returned)."""
        counters = cls()
        counters.registry.fold(counts)
        return counters

    def machine(self) -> dict[str, float]:
        """The manifest's ``machine`` section: simulated work by fast path,
        with the block-cache hit rate and the translated share derived."""
        translated, interpreted = self.translated.value, self.interpreted.value
        executions, compiled = self.block_executions.value, self.blocks_compiled.value
        return {
            "trials": (self.trials_synthesized.value + self.trials_replayed.value
                       + self.trials_from_golden.value),
            "instructions_skipped": self.skipped_by_dead_twin.value,
            "proved_hangs": self.proved_hangs.value,
            "proved_hang_instructions": self.skipped_by_proof.value,
            "translated_instructions": translated,
            "interpreted_instructions": interpreted,
            "block_executions": executions,
            "blocks_compiled": compiled,
            "blocks_adopted": self.blocks_adopted.value,
            "blocks_compiled_prefork": self.blocks_prefork.value,
            "twin_batches": self.twin_batches.value,
            "twins": self.twins.value,
            "dead_twins": self.dead_twins.value,
            "peeled_twins": self.peeled_twins.value,
            "followups_executed": self.followups_executed.value,
            "followups_from_golden": self.followups_from_golden.value,
            "activations_from_golden": self.trials_from_golden.value,
            "golden_instructions_skipped": self.skipped_by_golden.value,
            "block_hit_rate": (
                (executions - compiled) / executions if executions > compiled else 0.0
            ),
            "translated_share": (
                translated / (translated + interpreted) if translated + interpreted else 0.0
            ),
        }

    def golden_cache(self) -> dict[str, float | None]:
        """The manifest's ``golden_cache`` section, with the hit rate
        (``None`` when no store was consulted)."""
        hits, misses = self.golden_hits.value, self.golden_misses.value
        return {
            "golden_hits": hits,
            "golden_misses": misses,
            "artifact_corrupt": self.artifact_corrupt.value,
            "artifact_bytes_loaded": self.bytes_loaded.value,
            "artifact_bytes_written": self.bytes_written.value,
            "artifact_write_errors": self.write_errors.value,
            "followups_materialized": self.followups_materialized.value,
            "golden_capture_seconds": self.capture_seconds.value,
            "golden_load_seconds": self.load_seconds.value,
            "hit_rate": hits / (hits + misses) if hits + misses else None,
        }


#: This process's counters (see the module docstring).
COUNTERS = CampaignCounters()


def counted(fn: Callable, *args, **kwargs) -> tuple[object, Counts]:
    """Call ``fn``; return its result and what this process counted meanwhile
    (the snapshot difference, children the call left unchanged omitted)."""
    before = COUNTERS.registry.snapshot()
    result = fn(*args, **kwargs)
    after = COUNTERS.registry.snapshot()
    return result, {
        key: value - before.get(key, 0)
        for key, value in after.items() if value != before.get(key, 0)
    }
