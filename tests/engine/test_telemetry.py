"""Telemetry: counters, throughput, ETA, progress line, manifest."""

import io
import json

from repro.engine import (
    CampaignEngine,
    CampaignFinished,
    CampaignStarted,
    EngineTelemetry,
    ShardFailed,
    ShardFinished,
    ShardQuarantined,
    ShardRetried,
    ShardStarted,
    WorkerCrashed,
    stderr_progress,
)
from repro.faults import CampaignConfig, FaultInjectionCampaign


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def drive(telemetry, clock):
    telemetry.emit(CampaignStarted(total_trials=100, n_shards=4, jobs=2))
    telemetry.emit(ShardStarted(shard=0, n_trials=25))
    clock.now += 5.0
    telemetry.emit(ShardFinished(shard=0, n_trials=25, elapsed=5.0))


class TestAggregation:
    def test_throughput_and_eta(self):
        clock = FakeClock()
        t = EngineTelemetry(clock=clock)
        drive(t, clock)
        snap = t.snapshot()
        assert snap.done_trials == 25 and snap.total_trials == 100
        assert snap.trials_per_sec == 25 / 5.0
        assert snap.eta_seconds == 75 / 5.0
        assert "25/100 trials" in snap.line()

    def test_resumed_shards_do_not_inflate_throughput(self):
        clock = FakeClock()
        t = EngineTelemetry(clock=clock)
        t.emit(CampaignStarted(total_trials=100, n_shards=4, jobs=1, resumed_shards=2))
        t.emit(ShardFinished(shard=0, n_trials=50, elapsed=0.0, resumed=True))
        clock.now += 10.0
        t.emit(ShardFinished(shard=1, n_trials=25, elapsed=10.0))
        snap = t.snapshot()
        assert snap.done_trials == 75
        assert t.executed_trials == 25
        assert snap.trials_per_sec == 2.5
        assert snap.eta_seconds == 25 / 2.5

    def test_outcome_counters(self):
        cfg = CampaignConfig(benchmarks=("mcf",), n_injections=20, seed=6)
        records = FaultInjectionCampaign(cfg).run().records
        t = EngineTelemetry()
        t.record_outcomes(records)
        assert sum(t.detected_by.values()) == 20
        assert sum(t.failure_class.values()) == 20

    def test_subscribers_see_every_event(self):
        clock = FakeClock()
        t = EngineTelemetry(clock=clock)
        seen = []
        t.subscribe(seen.append)
        drive(t, clock)
        assert [type(e).__name__ for e in seen] == [
            "CampaignStarted", "ShardStarted", "ShardFinished",
        ]


class TestFailureAccounting:
    def drive_failures(self, t):
        t.emit(CampaignStarted(total_trials=100, n_shards=4, jobs=2))
        t.emit(ShardFailed(shard=1, attempt=0, kind="exception", error="boom"))
        t.emit(ShardRetried(shard=1, attempt=1, delay=0.1, kind="exception"))
        t.emit(WorkerCrashed(shards=(2, 3), kind="broken_pool"))
        t.emit(ShardFailed(shard=2, attempt=0, kind="worker_lost", error="lost"))
        t.emit(ShardQuarantined(shard=2, attempts=3, kind="worker_lost",
                                error="lost"))

    def test_events_fold_into_counters(self):
        t = EngineTelemetry(clock=FakeClock())
        self.drive_failures(t)
        assert t.retries == 1
        assert t.worker_crashes == 1
        assert [e.shard for e in t.failed_attempts] == [1, 2]
        assert [e.shard for e in t.quarantined] == [2]

    def test_manifest_failures_section(self, tmp_path):
        t = EngineTelemetry(clock=FakeClock())
        self.drive_failures(t)
        path = tmp_path / "manifest.json"
        t.write_manifest(path)
        failures = json.loads(path.read_text())["failures"]
        assert failures["retries"] == 1
        assert failures["worker_crashes"] == 1
        assert failures["failed_attempts"] == [
            {"shard": 1, "attempt": 0, "kind": "exception", "error": "boom"},
            {"shard": 2, "attempt": 0, "kind": "worker_lost", "error": "lost"},
        ]
        assert failures["quarantined"] == [
            {"shard": 2, "attempts": 3, "kind": "worker_lost", "error": "lost"},
        ]

    def test_progress_line_narrates_failures(self):
        t = EngineTelemetry(clock=FakeClock())
        out = io.StringIO()
        t.subscribe(stderr_progress(t, stream=out))
        self.drive_failures(t)
        t.emit(CampaignFinished(total_trials=100, executed_trials=75,
                                elapsed=5.0, trials_per_sec=15.0,
                                quarantined=1))
        text = out.getvalue()
        assert "shard 1 retry (attempt 1" in text
        assert "worker crash" in text
        assert "shard 2 QUARANTINED after 3 attempts" in text
        assert "1 shards quarantined" in text


class TestManifest:
    def test_manifest_shape(self, tmp_path):
        clock = FakeClock()
        t = EngineTelemetry(clock=clock)
        drive(t, clock)
        path = tmp_path / "manifest.json"
        t.write_manifest(path)
        manifest = json.loads(path.read_text())
        assert manifest["format"] == "xentry-manifest-v1"
        assert manifest["total_trials"] == 100
        assert manifest["done_trials"] == 25
        assert manifest["jobs"] == 2
        assert manifest["shards"] == [
            {"shard": 0, "n_trials": 25, "elapsed_seconds": 5.0, "resumed": False}
        ]


class TestMachineCounters:
    """The manifest's ``machine`` section sums this run's shard deltas."""

    CONFIG = CampaignConfig(benchmarks=("mcf", "postmark"), n_injections=64, seed=9)

    def _machine(self, jobs: int) -> dict:
        telemetry = EngineTelemetry()
        CampaignEngine(self.CONFIG, jobs=jobs, n_shards=2, telemetry=telemetry).run()
        return telemetry.manifest()["machine"]

    @staticmethod
    def _executed(machine: dict) -> int:
        return machine["translated_instructions"] + machine["interpreted_instructions"]

    def test_pool_run_counts_what_an_inline_run_counts(self):
        inline = self._machine(1)
        pooled = self._machine(2)
        assert self._executed(pooled) == self._executed(inline) > 0
        for key in ("twins", "dead_twins"):
            assert pooled[key] == inline[key] > 0

    def test_a_second_run_counts_only_itself(self):
        first, second = self._machine(1), self._machine(1)
        assert self._executed(second) == self._executed(first)
        assert second["twins"] == first["twins"]

    def test_derived_rates(self):
        machine = self._machine(1)
        assert machine["translated_share"] == (
            machine["translated_instructions"] / self._executed(machine)
        )
        assert 0.0 < machine["block_hit_rate"] <= 1.0


class TestProgressLine:
    def test_stderr_progress_writes_and_finishes(self):
        clock = FakeClock()
        t = EngineTelemetry(clock=clock)
        out = io.StringIO()
        t.subscribe(stderr_progress(t, stream=out))
        drive(t, clock)
        t.emit(CampaignFinished(total_trials=100, executed_trials=25,
                                elapsed=5.0, trials_per_sec=5.0))
        text = out.getvalue()
        assert "\r" in text
        assert "25/100 trials" in text
        assert text.endswith("(5.0 trials/s)\n")
