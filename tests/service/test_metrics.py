"""The from-scratch metrics registry: counters, gauges, histograms, exposition.

Assertion style follows py-chaos-agent's metrics tests: drive the system,
then read labeled children directly (``DETECTIONS.labels(outcome=...)
.value``) and golden-test the text exposition.
"""

import math
import threading

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
from repro.service.metrics import ServiceMetrics


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
        children = [h.labels(host=host) for host in range(3)]
        h.observe_grouped(children, group, values)
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
        c = Counter("hits_total", "Hits.", ("worker",))

        def spin(worker: str) -> None:
            child = c.labels(worker=worker)
            for _ in range(5000):
                child.inc()

        threads = [
            threading.Thread(target=spin, args=(str(i % 2),)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.labels(worker="0").value + c.labels(worker="1").value == 20000


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
