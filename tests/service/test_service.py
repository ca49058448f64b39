"""The daemon end to end: determinism contract, drains, health, endpoint."""

import json
import os
import signal
import time
import urllib.request
from pathlib import Path

import pytest

from repro.errors import CampaignConfigError
from repro.service import (
    DetectionService,
    FleetConfig,
    OverflowPolicy,
    ServiceConfig,
)

from tests.service.conftest import make_threshold_rules

PINNED = json.loads(
    (Path(__file__).parent / "pinned_backpressure.json").read_text()
)["shapes"]


def run_service(
    batch_rows: int = 128,
    *,
    seed: int = 7,
    hosts: int = 12,
    max_rows: int = 6000,
    queue_depth: int = 128,
    policy: OverflowPolicy = OverflowPolicy.DROP_OLDEST,
    burst_every: int = 0,
    burst_rows: int = 0,
    inject_fraction: float = 0.05,
):
    config = ServiceConfig(
        fleet=FleetConfig(
            hosts=hosts, vms_per_host=3, seed=seed,
            inject_fraction=inject_fraction,
            burst_every=burst_every, burst_rows=burst_rows,
        ),
        batch_rows=batch_rows,
        queue_depth=queue_depth,
        policy=policy,
        max_rows=max_rows,
    )
    service = DetectionService(config, make_threshold_rules())
    report = service.run()
    return service, report


class TestDeterminismContract:
    def test_fixed_seed_runs_are_bit_identical(self):
        _, a = run_service()
        _, b = run_service()
        assert a.deterministic_dict() == b.deterministic_dict()

    @pytest.mark.parametrize("batch_rows", [1, 17, 256, 4096])
    def test_totals_independent_of_batch_size(self, batch_rows):
        _, baseline = run_service(128)
        _, other = run_service(batch_rows)
        assert other.deterministic_dict() == baseline.deterministic_dict()

    @pytest.mark.parametrize("batch_rows", [32, 512])
    def test_totals_independent_of_batch_size_under_bursts(self, batch_rows):
        _, baseline = run_service(
            128, burst_every=3, burst_rows=200, queue_depth=64
        )
        _, other = run_service(
            batch_rows, burst_every=3, burst_rows=200, queue_depth=64
        )
        assert baseline.totals.rows_dropped > 0  # backpressure exercised
        assert other.deterministic_dict() == baseline.deterministic_dict()

    def test_different_seeds_differ(self):
        _, a = run_service(seed=7)
        _, b = run_service(seed=8)
        assert a.deterministic_dict() != b.deterministic_dict()

    def test_every_emitted_row_is_scored_or_dropped(self):
        _, report = run_service(burst_every=2, burst_rows=150, queue_depth=32)
        t = report.totals
        assert t.rows_scored + t.rows_dropped == report.rows_emitted

    def test_block_policy_scores_everything(self):
        _, report = run_service(
            burst_every=2, burst_rows=150, queue_depth=32,
            policy=OverflowPolicy.BLOCK,
        )
        assert report.totals.rows_dropped == 0
        assert report.totals.rows_scored == report.rows_emitted


class TestPinnedTotals:
    """Fleet-level totals of three shapes, pinned to what the per-row
    pipeline computed: a rewrite that drops or scores the wrong rows moves
    them even when every run of the new tree agrees with every other."""

    @pytest.mark.parametrize("shape", sorted(PINNED))
    def test_shape_matches_pinned_totals(self, shape):
        pinned = PINNED[shape]
        kwargs = dict(pinned["run_service"])
        if "policy" in kwargs:
            kwargs["policy"] = OverflowPolicy(kwargs["policy"])
        service, report = run_service(**kwargs)
        metrics = service.metrics

        def per_host(metric):
            return {key[0]: child.value for key, child in metric.children()}

        assert report.deterministic_dict() == pinned["summary"]
        assert report.totals.batches == pinned["batches"]
        assert per_host(metrics.rows_emitted) == pinned["rows_emitted_total"]
        assert per_host(metrics.rows_scored) == pinned["rows_scored_total"]
        assert per_host(metrics.rows_dropped) == pinned["rows_dropped_total"]


class TestReport:
    def test_detections_fire_on_injected_rows(self):
        service, report = run_service(inject_fraction=0.1)
        assert report.totals.detections > 0
        # The threshold oracle only fires on perturbed rows.
        detections = service.metrics.detections
        assert detections.labels(outcome="true_positive").value \
            == report.totals.true_positive

    def test_latency_percentiles_use_cdf(self):
        _, report = run_service()
        pct = report.latency_percentiles
        assert set(pct) == {"p50", "p95", "p99"}
        assert 0 <= pct["p50"] <= pct["p95"] <= pct["p99"]

    def test_summary_mentions_key_figures(self):
        _, report = run_service()
        text = report.summary()
        assert "scored" in text and "detections:" in text
        assert "backpressure:" in text and "p99" in text

    def test_rows_per_sec_positive(self):
        _, report = run_service()
        assert report.rows_per_sec > 0

    def test_write_summary_roundtrip(self, tmp_path):
        service, report = run_service()
        path = tmp_path / "summary.json"
        service.write_summary(path)
        assert json.loads(path.read_text()) == report.deterministic_dict()

    def test_write_summary_before_run_rejected(self):
        service = DetectionService(
            ServiceConfig(fleet=FleetConfig(hosts=1), max_rows=10),
            make_threshold_rules(),
        )
        with pytest.raises(CampaignConfigError):
            service.write_summary("nope.json")


class TestLifecycle:
    def test_health_document_tracks_progress(self):
        service, report = run_service()
        health = service.health()
        assert health["done"] is True
        assert health["rows_scored"] == report.totals.rows_scored
        assert health["hosts"] == 12

    def test_request_stop_drains_gracefully(self):
        config = ServiceConfig(
            fleet=FleetConfig(hosts=4, seed=1), max_rows=10_000_000,
            duration=30.0,
        )
        service = DetectionService(config, make_threshold_rules())
        service.request_stop()
        report = service.run()
        # Stopped before the first tick: nothing emitted, nothing lost.
        assert report.rows_emitted == 0
        assert report.totals.rows_scored == 0

    def test_interrupt_reports_every_tick_that_ran(self):
        """A Ctrl-C between ticks stops the loop, drains, and the report
        counts the ticks and time of the whole run."""
        config = ServiceConfig(
            fleet=FleetConfig(hosts=20, seed=7), max_rows=10_000_000,
        )
        service = DetectionService(config, make_threshold_rules())
        seen = []

        def interrupt(emitted, scored):
            seen.append(emitted)
            raise KeyboardInterrupt

        started = time.perf_counter()
        try:
            report = service.run(progress=interrupt)
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped the run instead of stopping it")
        wall = time.perf_counter() - started
        assert seen == [report.rows_emitted]
        assert report.ticks == 256
        assert report.rows_emitted == service.fleet.emitted > 0
        t = report.totals
        assert t.rows_scored + t.rows_dropped == report.rows_emitted
        assert 0.5 * wall <= report.elapsed_seconds <= wall
        assert service.health()["done"] is True

    def test_sigint_mid_batch_finishes_the_tick(self):
        """A real SIGINT lands while a batch is being classified: the tick
        still completes, so no row taken for scoring is lost."""
        rules = make_threshold_rules()
        sent_at_tick = []

        class Interrupting:
            calls = 0

            def predict_batch(self, X):
                Interrupting.calls += 1
                if Interrupting.calls == 5:
                    sent_at_tick.append(service.fleet.tick)
                    os.kill(os.getpid(), signal.SIGINT)
                return rules.predict_batch(X)

        config = ServiceConfig(
            fleet=FleetConfig(hosts=20, seed=7), batch_rows=16,
            max_rows=10_000_000,
        )
        service = DetectionService(config, Interrupting())
        handler = signal.getsignal(signal.SIGINT)
        report = service.run()
        assert signal.getsignal(signal.SIGINT) is handler
        assert report.ticks == sent_at_tick[0]
        t = report.totals
        assert t.rows_scored + t.rows_dropped == report.rows_emitted > 0

    def test_endpoint_serves_final_totals(self):
        service, report = run_service()
        server = service.endpoint().start()
        try:
            with urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5
            ) as response:
                body = response.read().decode()
        finally:
            server.stop()
        assert (
            f'repro_detections_total{{outcome="true_positive"}} '
            f"{report.totals.true_positive}" in body
        )
        assert "repro_decision_latency_seconds_bucket" in body

    def test_config_needs_stop_condition(self):
        with pytest.raises(CampaignConfigError):
            ServiceConfig(max_rows=None, duration=None)

    def test_gauges_zero_after_run(self):
        service, _ = run_service()
        assert service.metrics.pending_rows.value == 0
        assert all(
            depth == 0 for depth in service.scorer.queue_depths().values()
        )
