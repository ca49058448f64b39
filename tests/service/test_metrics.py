"""The from-scratch metrics registry: counters, gauges, histograms, exposition.

Assertion style follows py-chaos-agent's metrics tests: drive the system,
then read labeled children directly (``DETECTIONS.labels(outcome=...)
.value``) and golden-test the text exposition.
"""

import gc
import json
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import metrics as metrics_module
from repro.errors import CampaignConfigError
from repro.metrics import (
    CampaignCounters,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counted,
    format_value,
)
from repro.service import DetectionService, FleetConfig, ServiceConfig
from repro.service.metrics import ServiceMetrics

from tests.service.conftest import make_threshold_rules


class TestCounter:
    def test_unlabeled_inc(self):
        c = Counter("requests_total", "Requests.")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_labeled_children_are_independent(self):
        c = Counter("injections_total", "Injections.", ("failure_type", "status"))
        c.labels(failure_type="cpu", status="success").inc()
        c.labels(failure_type="cpu", status="skipped").inc(2)
        assert c.labels(failure_type="cpu", status="success").value == 1
        assert c.labels(failure_type="cpu", status="skipped").value == 2

    def test_label_names_enforced(self):
        c = Counter("x_total", "X.", ("a",))
        with pytest.raises(CampaignConfigError):
            c.labels(b="nope")
        with pytest.raises(CampaignConfigError):
            c.inc()  # labeled metric has no default child

    def test_counters_only_go_up(self):
        c = Counter("x_total", "X.")
        with pytest.raises(CampaignConfigError):
            c.inc(-1)

    def test_same_labels_same_child(self):
        c = Counter("x_total", "X.", ("a",))
        assert c.labels(a="1") is c.labels(a="1")
        assert c.labels(a="1") is not c.labels(a="2")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth", "Depth.")
        g.set(10)
        g.inc(5)
        g.dec(12)
        assert g.value == 3

    def test_gauge_goes_negative(self):
        g = Gauge("delta", "Delta.")
        g.dec(2)
        assert g.value == -2


class TestHistogram:
    def test_observations_land_in_le_buckets(self):
        h = Histogram("lat", "Latency.", buckets=(0.1, 1.0))
        child = h.labels()
        for value in (0.05, 0.1, 0.5, 2.0):
            child.observe(value)
        # le semantics: 0.1 counts both 0.05 and the exact-boundary 0.1.
        assert child.cumulative() == [2, 3, 4]
        assert child.count == 4
        assert child.total == pytest.approx(2.65)

    def test_buckets_match_bisect_left(self):
        """searchsorted(side="left") puts each value where bisect_left does."""
        from bisect import bisect_left

        h = Histogram("lat", "Latency.", buckets=(0.001, 0.01, 0.1, 1.0))
        child = h.labels()
        values = [0.0, 0.001, 0.0010001, 0.01, 0.05, 0.1, 1.0, 3.0, math.inf]
        for value in values:
            child.observe(value)
        expected = [0] * len(h.bounds)
        for value in values:
            expected[bisect_left(h.bounds, value)] += 1
        assert child.counts.tolist() == expected

    def test_grouped_observe_equals_one_observe_per_value(self):
        h = Histogram("lat", "Latency.", ("host",), buckets=(0.001, 0.01, 0.1))
        one_by_one = Histogram("lat", "Latency.", ("host",), buckets=(0.001, 0.01, 0.1))
        rng = np.random.default_rng(7)
        values = rng.choice([0.0005, 0.001, 0.003, 0.01, 0.2], 60)
        group = rng.integers(0, 3, 60)
        slots = [h.labels(host=host).slot for host in range(3)]
        h.observe_grouped(slots, group, values)
        for host, value in zip(group.tolist(), values.tolist()):
            one_by_one.labels(host=host).observe(value)
        for host in range(3):
            grouped, single = h.labels(host=host), one_by_one.labels(host=host)
            assert grouped.cumulative() == single.cumulative()
            assert grouped.count == single.count
            assert grouped.total == pytest.approx(single.total)

    def test_infinite_bucket_added(self):
        h = Histogram("lat", "Latency.", buckets=(1.0,))
        assert h.bounds == (1.0, math.inf)

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(CampaignConfigError):
            Histogram("lat", "Latency.", buckets=())


def run_threads(targets) -> None:
    """Run ``targets`` in threads at a short switch interval; each must end
    within 60 s."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target) for target in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def slot_and_child_registries() -> tuple[MetricsRegistry, MetricsRegistry]:
    """Two registries of the same families, children created in one order
    (not host order)."""
    registries = []
    for _ in range(2):
        registry = MetricsRegistry()
        families = (
            registry.counter("rows_total", "Rows.", ("host",)),
            registry.gauge("depth", "Depth.", ("host",)),
            registry.histogram("lat_seconds", "Latency.", ("host",),
                               buckets=(0.001, 0.01, 0.1)),
        )
        for family in families:
            for host in (4, 0, 2):
                family.labels(host=host)
        registries.append(registry)
    return registries[0], registries[1]


class TestSlotUpdates:
    """A slot-addressed call equals the matching scalar child calls."""

    def test_slot_calls_equal_child_calls(self):
        by_slot, by_child = slot_and_child_registries()
        rng = np.random.default_rng(3)
        # Dyadic values add exactly in any order, so sums compare bytewise.
        dyadic = np.array([2.0**-12, 2.0**-9, 2.0**-5, 0.5, 4.0])
        for _ in range(20):
            hosts = rng.choice([4, 0, 2], size=2, replace=False).tolist()
            amounts = rng.integers(0, 9, 2)
            depths = rng.integers(0, 50, 2)
            group = rng.integers(0, 2, 7)
            values = rng.choice(dyadic, 7)
            slots = [by_slot.get("rows_total").labels(host=h).slot for h in hosts]
            by_slot.get("rows_total").inc_at(slots, amounts)
            by_slot.get("depth").set_at(
                [by_slot.get("depth").labels(host=h).slot for h in hosts], depths)
            latency = by_slot.get("lat_seconds")
            latency.observe_grouped(
                [latency.labels(host=h).slot for h in hosts], group, values)
            for host, amount, depth in zip(hosts, amounts.tolist(), depths.tolist()):
                by_child.get("rows_total").labels(host=host).inc(amount)
                by_child.get("depth").labels(host=host).set(depth)
            for index, value in zip(group.tolist(), values.tolist()):
                by_child.get("lat_seconds").labels(host=hosts[index]).observe(value)
        assert by_slot.expose() == by_child.expose()
        for host in (4, 0, 2):
            pair = [r.get("rows_total").labels(host=host).value
                    for r in (by_slot, by_child)]
            assert pair[0] == pair[1] and type(pair[0]) is int
            grouped, single = (r.get("lat_seconds").labels(host=host)
                               for r in (by_slot, by_child))
            assert grouped.counts.tolist() == single.counts.tolist()
            assert (grouped.total, grouped.count) == (single.total, single.count)

    @pytest.mark.parametrize("amounts", [[5, -1, 5], [5, 5]])
    def test_bad_amounts_raise_and_add_nothing(self, amounts):
        """A negative amount, or one amount too few."""
        c = Counter("x_total", "X.", ("host",))
        slots = [c.labels(host=host).slot for host in range(3)]
        c.inc_at(slots, [1, 2, 3])
        with pytest.raises(CampaignConfigError):
            c.inc_at(slots, amounts)
        assert [c.labels(host=host).value for host in range(3)] == [1, 2, 3]

    @pytest.mark.parametrize("slot", [-1, 2])
    def test_slots_outside_the_family_rejected(self, slot):
        c, g = Counter("x_total", "X.", ("host",)), Gauge("g", "G.", ("host",))
        h = Histogram("h", "H.", ("host",))
        for family in (c, g, h):
            family.labels(host=0)
            family.labels(host=1)
        with pytest.raises(CampaignConfigError):
            c.inc_at([0, slot], [1, 1])
        with pytest.raises(CampaignConfigError):
            g.set_at([slot], [7])
        with pytest.raises(CampaignConfigError):
            h.observe_grouped([slot], np.zeros(1, dtype=np.intp), np.ones(1))
        assert c.labels(host=0).value == 0
        assert g.labels(host=1).value == 0.0
        assert h.labels(host=1).count == 0


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A.")
        with pytest.raises(CampaignConfigError):
            registry.gauge("a_total", "A again.")

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(CampaignConfigError):
            Counter("bad name!", "Nope.")

    def test_golden_exposition(self):
        """The /metrics payload, pinned byte for byte."""
        registry = MetricsRegistry()
        c = registry.counter("repro_detections_total", "Detections.", ("outcome",))
        g = registry.gauge("repro_queue_depth", "Depth.", ("host",))
        h = registry.histogram(
            "repro_latency_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        c.labels(outcome="true_positive").inc(3)
        c.labels(outcome="false_positive").inc()
        g.labels(host="0").set(7)
        h.observe(0.05)
        h.observe(0.5)
        assert registry.expose() == (
            "# HELP repro_detections_total Detections.\n"
            "# TYPE repro_detections_total counter\n"
            'repro_detections_total{outcome="true_positive"} 3\n'
            'repro_detections_total{outcome="false_positive"} 1\n'
            "# HELP repro_queue_depth Depth.\n"
            "# TYPE repro_queue_depth gauge\n"
            'repro_queue_depth{host="0"} 7\n'
            "# HELP repro_latency_seconds Latency.\n"
            "# TYPE repro_latency_seconds histogram\n"
            'repro_latency_seconds_bucket{le="0.1"} 1\n'
            'repro_latency_seconds_bucket{le="1"} 2\n'
            'repro_latency_seconds_bucket{le="+Inf"} 2\n'
            "repro_latency_seconds_sum 0.55\n"
            "repro_latency_seconds_count 2\n"
        )

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total", "X.", ("path",))
        c.labels(path='a"b\\c\nd').inc()
        assert 'path="a\\"b\\\\c\\nd"' in registry.expose()

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(math.inf) == "+Inf"

    def test_snapshot_skips_histograms(self):
        """A snapshot holds every counter and gauge child, and no histogram
        child, whose value is its buckets."""
        metrics = ServiceMetrics()
        metrics.rows_scored.labels(host=0).inc(5)
        metrics.queue_depth.labels(host=0).set(3)
        metrics.decision_latency.labels(host=0).observe(0.001)
        assert metrics.registry.snapshot() == {
            ("repro_rows_scored_total", ("0",)): 5,
            ("repro_queue_depth", ("0",)): 3.0,
        }

    def test_counted_difference_folds_beside_a_histogram(self, monkeypatch):
        """What ``counted`` returns from a registry holding an observed
        histogram folds into a fresh registry of the same metrics."""

        def registry_with_histogram() -> CampaignCounters:
            counters = CampaignCounters()
            counters.registry.histogram("repro_layer_seconds", "Layer times.")
            return counters

        counters = registry_with_histogram()
        layer = counters.registry.get("repro_layer_seconds")
        layer.observe(0.5)
        monkeypatch.setattr(metrics_module, "COUNTERS", counters)

        def work():
            counters.trials_replayed.inc(3)
            counters.proved_hangs.inc()
            layer.observe(0.25)

        _, counts = counted(work)
        assert counts == {
            ("repro_trials_total", ("checkpoint",)): 3,
            ("repro_proved_hangs_total", ()): 1,
        }
        fresh = registry_with_histogram()
        fresh.registry.fold(counts)
        assert (fresh.trials_replayed.value, fresh.proved_hangs.value) == (3, 1)

    def test_concurrent_increments_do_not_lose_counts(self):
        """Children and slot-addressed calls share the family's one lock."""
        c = Counter("hits_total", "Hits.", ("worker",))
        slots = [c.labels(worker=str(i)).slot for i in range(2)]

        def spin(worker: str) -> None:
            child = c.labels(worker=worker)
            for _ in range(5000):
                child.inc()

        def spin_at() -> None:
            for _ in range(5000):
                c.inc_at(slots, [1, 1])

        run_threads([lambda i=i: spin(str(i % 2)) for i in range(4)]
                    + [spin_at] * 2)
        assert c.labels(worker="0").value + c.labels(worker="1").value == 40000

    def test_concurrent_observes_survive_storage_growth(self):
        """New children regrow a histogram's arrays while others observe."""
        h = Histogram("lat", "Latency.", ("host",), buckets=(0.5,))
        slots = [h.labels(host=host).slot for host in range(2)]

        def observe() -> None:
            child = h.labels(host=0)
            for _ in range(2000):
                child.observe(0.25)

        def observe_grouped() -> None:
            for _ in range(2000):
                h.observe_grouped(slots, np.array([0, 1, 1]), np.array([0.25, 1.0, 1.0]))

        def grow() -> None:
            for host in range(2, 600):
                h.labels(host=host).observe(1.0)

        run_threads([observe, observe, observe_grouped, observe_grouped, grow])
        children = [child for _, child in h.children()]
        assert sum(child.count for child in children) == 4000 + 12000 + 598
        assert h.labels(host=1).cumulative() == [0, 8000]

    def test_campaign_sections_stay_json_after_fractional_seconds(self):
        """Counts stay ints beside a seconds counter gone fractional."""
        counters = CampaignCounters()
        counters.trials_replayed.inc(3)
        counters.golden_hits.inc()
        counters.capture_seconds.inc(0.25)
        counters.capture_seconds.inc(1)
        machine, cache = counters.machine(), counters.golden_cache()
        json.dumps(machine)
        json.dumps(cache)
        assert machine["trials"] == 3 and type(machine["trials"]) is int
        assert type(cache["golden_hits"]) is int
        assert cache["golden_capture_seconds"] == 1.25
        json.dumps(CampaignCounters().machine())
        json.dumps(CampaignCounters().golden_cache())


class RecordingLock:
    """A family lock that knows whether it is held."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.held = False

    def __enter__(self):
        self._lock.acquire()
        self.held = True
        return self

    def __exit__(self, *exc) -> None:
        self.held = False
        self._lock.release()


class GuardedList(list):
    """A counter column that logs, per write, whether its lock was held."""

    def __init__(self, values, lock: RecordingLock, writes: list) -> None:
        super().__init__(values)
        self.lock, self.writes = lock, writes

    def __setitem__(self, key, value) -> None:
        self.writes.append(self.lock.held)
        super().__setitem__(key, value)


class GuardedArray(np.ndarray):
    """An array column that logs, per write, whether its lock was held: item
    assignment and in-place ``ufunc.at`` alike."""

    def __array_finalize__(self, obj) -> None:
        self.lock = getattr(obj, "lock", None)
        self.writes = getattr(obj, "writes", None)

    def __setitem__(self, key, value) -> None:
        self.writes.append(self.lock.held)
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "at":
            self.writes.append(self.lock.held)
        inputs = [x.view(np.ndarray) if isinstance(x, GuardedArray) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def guarded(family) -> list[bool]:
    """Give ``family``'s store a recording lock and columns that log each
    write; return the log.  Call before creating children (a counter child
    keeps its store's lock and list), for at most four of them (so no array
    column is reallocated)."""
    store = family._store
    store.grow(4)
    lock = store.lock = RecordingLock()
    writes: list[bool] = []
    for name in store._columns:
        column = getattr(store, name)
        if isinstance(column, list):
            column = GuardedList(column, lock, writes)
        else:
            column = column.view(GuardedArray)
            column.lock, column.writes = lock, writes
        setattr(store, name, column)
    return writes


#: Every update path of the three metric types: (family type, update).
UPDATE_PATHS = {
    "Counter.Child.inc": (Counter, lambda family, child: child.inc(2)),
    "Counter.inc_at": (Counter, lambda family, child: family.inc_at([child.slot], [2])),
    "Gauge.Child.set": (Gauge, lambda family, child: child.set(2.0)),
    "Gauge.Child.inc": (Gauge, lambda family, child: child.inc(2.0)),
    "Gauge.set_at": (Gauge, lambda family, child: family.set_at([child.slot], [2.0])),
    "Histogram.Child.observe": (Histogram, lambda family, child: child.observe(2.0)),
    "Histogram.observe_grouped": (Histogram, lambda family, child: family.observe_grouped(
        [child.slot], np.array([0, 0]), np.array([0.5, 1.5]))),
}


class TestFamilyLock:
    """Each update path writes only while holding its family's lock.

    Deterministic, where the threaded count checks above are not: CPython
    switches threads only at calls and backward jumps, so one
    ``values[slot] += amount`` never interleaves with another and those
    counts come out right with the lock taken away."""

    @pytest.mark.parametrize("path", UPDATE_PATHS)
    def test_update_writes_only_under_the_family_lock(self, path):
        kind, update = UPDATE_PATHS[path]
        family = kind("m", "M.", ("k",))
        writes = guarded(family)
        family.labels(k="a")
        child = family.labels(k="b")
        update(family, child)
        assert writes and all(writes), writes
        # The guarded columns still count: the update landed in its child.
        read = (lambda c: c.total) if kind is Histogram else (lambda c: c.value)
        assert (read(family.labels(k="a")), read(child)) == (0, 2)

    def test_an_unlocked_write_is_seen(self):
        for kind in (Counter, Gauge):
            family = kind("m", "M.", ("k",))
            writes = guarded(family)
            family.labels(k="a")
            family._store.values[0] = 1
            assert writes == [False]


class TestServiceMetrics:
    def test_taxonomy_registers_once(self):
        metrics = ServiceMetrics()
        exposition = metrics.registry.expose()
        for name in (
            "repro_rows_emitted_total", "repro_rows_scored_total",
            "repro_rows_dropped_total", "repro_detections_total",
            "repro_batches_scored_total", "repro_queue_depth",
            "repro_pending_rows", "repro_fleet_hosts",
            "repro_decision_latency_seconds",
        ):
            assert f"# TYPE {name} " in exposition

    def test_finished_service_frees_its_registry_without_the_collector(self):
        """Children point at their family's storage, never at the family,
        so a finished service's metrics (the registry and every family) are
        freed by reference counting."""
        gc.disable()
        try:
            service = DetectionService(
                ServiceConfig(fleet=FleetConfig(hosts=4, seed=3), max_rows=500),
                make_threshold_rules(),
            )
            service.run()
            metrics = service.metrics
            refs = [weakref.ref(metrics)] + [
                weakref.ref(part) for part in vars(metrics).values()
            ]
            del service, metrics
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
