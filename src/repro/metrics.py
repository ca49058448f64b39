"""Labeled counters, gauges and histograms, and the campaign's one counting
registry.

The bottom layer of the package, importable from :mod:`repro.machine` up:
``Counter``, ``Gauge`` and ``Histogram`` with label support, thread safety
and the Prometheus text exposition (version 0.0.4), collected in a
:class:`MetricsRegistry`.  The streaming service's taxonomy
(:mod:`repro.service.metrics`) is one such registry.

A family stores its children's values itself, indexed by each child's
creation slot: counters as Python numbers, gauges in a float64 array,
histograms as an (n x buckets) count matrix with sum and count columns.  A
child is a handle on one slot, so a hot loop can also update many children
in one call under the family's one lock (``Counter.inc_at``,
``Gauge.set_at``, ``Histogram.observe_grouped``).

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


class _Store:
    """A family's child values in columns indexed by creation slot, and the
    family's one lock.

    Children point here, never at their family, so a registry and its
    children hold no reference cycle and are freed as soon as they are
    dropped.  A list column grows in place; an array column doubles its
    capacity, so a child reads its column through the store, not a copy.
    """

    def __init__(self, **columns) -> None:
        self.lock = threading.Lock()
        self._columns = tuple(columns)
        self.__dict__.update(columns)

    def grow(self, size: int) -> None:
        """Make room for ``size`` slots, new ones zero."""
        for name in self._columns:
            column = getattr(self, name)
            if isinstance(column, list):
                column.extend([0] * (size - len(column)))
            elif len(column) < size:
                grown = np.zeros((max(size, 2 * len(column)), *column.shape[1:]),
                                 column.dtype)
                grown[:len(column)] = column
                setattr(self, name, grown)


class _Handle:
    """A child: one slot of its family's store."""

    __slots__ = ("_store", "slot")

    def __init__(self, store: _Store, slot: int) -> None:
        self._store = store
        self.slot = slot


class _Metric:
    """Shared child bookkeeping: one child per label-value tuple, each a
    handle on one slot of the family's :class:`_Store`."""

    kind = "untyped"
    Child: type

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str], store: _Store
    ) -> None:
        if not name.replace("_", "").replace(":", "").isalnum():
            raise CampaignConfigError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._store = store
        self._lock = store.lock
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
                slot = len(self._children)
                self._store.grow(slot + 1)
                child = self._children[key] = self.Child(self._store, slot)
            return child

    def _default_child(self):
        """The single unlabeled child (only valid when labelnames is empty)."""
        if self.labelnames:
            raise CampaignConfigError(f"{self.name} is labeled; use .labels(...)")
        return self.labels()

    def _slots(self, slots) -> np.ndarray:
        """``slots`` as an index array, checked to name existing children."""
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size and not (0 <= slots.min() and slots.max() < len(self._children)):
            raise CampaignConfigError(
                f"{self.name}: slots {slots.tolist()} outside its "
                f"{len(self._children)} children"
            )
        return slots

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
    """A monotonically increasing count, optionally labeled.

    Values are Python numbers: integer until a fractional amount arrives, so
    counts stay ints.
    """

    kind = "counter"

    class Child:
        # The values list grows in place, so the child holds it directly.
        __slots__ = ("_lock", "_values", "slot")

        def __init__(self, store: _Store, slot: int) -> None:
            self._lock = store.lock
            self._values = store.values
            self.slot = slot

        def inc(self, amount: float = 1) -> None:
            if amount < 0:
                raise CampaignConfigError("counters only go up")
            with self._lock:
                self._values[self.slot] += amount

        @property
        def value(self) -> float:
            with self._lock:
                return self._values[self.slot]

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames, _Store(values=[]))

    def inc(self, amount: float = 1) -> None:
        self._default_child().inc(amount)

    def inc_at(self, slots, amounts) -> None:
        """Add ``amounts[i]`` to the child at slot ``slots[i]`` (a child's
        :attr:`~Counter.Child.slot`), all under the family's lock; a
        negative amount or a missing one raises and adds nothing."""
        slots = self._slots(slots).tolist()
        amounts = np.asarray(amounts).tolist()
        if len(amounts) != len(slots):
            raise CampaignConfigError(
                f"{self.name}: {len(amounts)} amounts for {len(slots)} slots"
            )
        if amounts and min(amounts) < 0:
            raise CampaignConfigError("counters only go up")
        store = self._store
        with store.lock:
            values = store.values
            for slot, amount in zip(slots, amounts):
                values[slot] += amount

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(_Metric):
    """A value that can go up and down (queue depths, in-flight work)."""

    kind = "gauge"

    class Child(_Handle):
        __slots__ = ()

        def set(self, value: float) -> None:
            store = self._store
            with store.lock:
                store.values[self.slot] = value

        def inc(self, amount: float = 1.0) -> None:
            store = self._store
            with store.lock:
                store.values[self.slot] += amount

        def dec(self, amount: float = 1.0) -> None:
            self.inc(-amount)

        @property
        def value(self) -> float:
            store = self._store
            with store.lock:
                return float(store.values[self.slot])

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames, _Store(values=np.zeros(0)))

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def set_at(self, slots, values) -> None:
        """Set the child at slot ``slots[i]`` to ``values[i]`` (or every
        one to a scalar ``values``), under the family's lock."""
        slots = self._slots(slots)
        store = self._store
        with store.lock:
            store.values[slots] = values

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
    """Cumulative-bucket histogram (the ``le`` convention).

    The family keeps an (n x buckets) int64 count matrix and a sum and a
    count column, a row per child.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise CampaignConfigError("histogram needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        store = _Store(counts=np.zeros((0, len(bounds)), dtype=np.int64),
                       sums=np.zeros(0), count=np.zeros(0, dtype=np.int64))
        store.edges = np.array(bounds)
        super().__init__(name, help, labelnames, store)
        self.bounds = bounds

    class Child(_Handle):
        __slots__ = ()

        def observe(self, value: float) -> None:
            store, slot = self._store, self.slot
            index = _bucket(store.edges, value)
            with store.lock:
                store.counts[slot, index] += 1
                store.sums[slot] += value
                store.count[slot] += 1

        @property
        def counts(self) -> np.ndarray:
            """Observations per bucket (a copy)."""
            store = self._store
            with store.lock:
                return store.counts[self.slot].copy()

        @property
        def total(self) -> float:
            store = self._store
            with store.lock:
                return float(store.sums[self.slot])

        @property
        def count(self) -> int:
            store = self._store
            with store.lock:
                return int(store.count[self.slot])

        def cumulative(self) -> list[int]:
            """Counts at or below each bound (the exposition convention)."""
            return np.cumsum(self.counts).tolist()

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def observe_grouped(self, slots, group: np.ndarray, values: np.ndarray) -> None:
        """Observe ``values[i]`` in the child at slot ``slots[group[i]]``: the
        values are bucketed together and the family is updated once."""
        slots = self._slots(slots)
        store = self._store
        width = len(self.bounds)
        cells = group * width + _bucket(store.edges, values)
        counts = np.bincount(cells, minlength=len(slots) * width)
        totals = np.bincount(group, weights=values, minlength=len(slots))
        sizes = np.bincount(group, minlength=len(slots))
        with store.lock:
            np.add.at(store.counts, slots, counts.reshape(-1, width))
            np.add.at(store.sums, slots, totals)
            np.add.at(store.count, slots, sizes)

    def _expose_child(self, key: tuple[str, ...], child: "Histogram.Child") -> list[str]:
        lines = []
        for bound, count in zip(self.bounds, child.cumulative()):
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
