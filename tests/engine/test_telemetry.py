"""Telemetry: counters, throughput, ETA, progress line, manifest."""

import dataclasses
import io
import json
from pathlib import Path

import pytest

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
    RetryPolicy,
    WorkerCrashed,
    parse_chaos_spec,
    stderr_progress,
)
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.faults.campaign import benchmark_geometry
from repro.scenarios import load_scenario

ROOT = Path(__file__).resolve().parents[2]


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


#: Registry metrics that count simulated work: a pooled run at one shard
#: plan counts exactly what an inline run counts.  Instructions compare as
#: their sum over paths (which blocks were compiled when, and so which path
#: ran them, depends on the workers' shard order), like block executions,
#: compiles, adoptions and seconds, which are left out.
WORK = (
    "repro_trials_total",
    "repro_instructions_skipped_total",
    "repro_read_point_skipped_total",
    "repro_proved_hangs_total",
    "repro_twin_batches_total",
    "repro_twins_total",
    "repro_twin_fates_total",
    "repro_golden_lookups_total",
    "repro_followups_materialized_total",
    "repro_artifact_bytes_total",
    "repro_artifact_errors_total",
)


def value(telemetry: EngineTelemetry, name: str, **labels) -> float:
    """One labeled child of the run's registry."""
    return telemetry.counters.registry.get(name).labels(**labels).value


def work(telemetry: EngineTelemetry) -> dict:
    counts = {
        key: count for key, count in telemetry.counters.registry.snapshot().items()
        if key[0] in WORK
    }
    counts["executed"] = sum(
        value(telemetry, "repro_instructions_total", path=path)
        for path in ("translated", "interpreted")
    )
    return counts


def run_id(run) -> str:
    return run if isinstance(run, str) else "jobs{}-{}".format(*run)


class TestMachineCounters:
    """The manifest's counters fold one registry delta per kept attempt."""

    PLAIN = CampaignConfig(benchmarks=("mcf", "postmark"), n_injections=64, seed=9)
    CONFIG = load_scenario(ROOT / "examples" / "mixed.yaml").apply(
        dataclasses.replace(PLAIN, recover="ladder")
    )
    GROUPS = len(CONFIG.benchmarks) * benchmark_geometry(CONFIG).n_goldens
    CHAOS = dict(chaos=parse_chaos_spec("hard=0.3,seed=4150"),
                 retry=RetryPolicy(max_retries=6, seed=9))
    #: Exception crashes after 1 and 3 records, so each failed attempt has
    #: counted part of its work into the registry of the process that ran
    #: it (the coordinator's, inline) before it raised.
    CRASH = dict(chaos=parse_chaos_spec("crash=0.3,seed=1"),
                 retry=RetryPolicy(max_retries=6, seed=9))

    @staticmethod
    def _run(config, jobs: int, **kwargs):
        telemetry = EngineTelemetry()
        result = CampaignEngine(
            config, jobs=jobs, n_shards=4, telemetry=telemetry, **kwargs
        ).run()
        return result, telemetry

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Cold then warm store runs, inline and pooled, then warm runs under
        exception crashes (inline and pooled) and hard crashes (pooled)."""
        runs = {}
        for jobs in (1, 2):
            config = dataclasses.replace(
                self.CONFIG, artifacts=str(tmp_path_factory.mktemp(f"jobs{jobs}"))
            )
            for phase in ("cold", "warm"):
                runs[jobs, phase] = self._run(config, jobs)
            runs[jobs, "crash"] = self._run(config, jobs, **self.CRASH)
        runs["chaos"] = self._run(config, 2, **self.CHAOS)
        return runs

    def test_pool_run_counts_what_an_inline_run_counts(self, runs):
        for phase in ("cold", "warm"):
            (_, inline), (_, pooled) = runs[1, phase], runs[2, phase]
            assert work(pooled) == work(inline), phase
            assert work(inline)["executed"] > 0
            assert value(pooled, "repro_twin_fates_total", fate="dead") > 0
            assert value(pooled, "repro_twin_fates_total", fate="peeled") > 0
            assert value(pooled, "repro_trials_total", start="checkpoint") > 0
            assert value(pooled, "repro_instructions_skipped_total", by="rung") > 0
            assert value(pooled, "repro_proved_hangs_total") > 0
            hits = value(pooled, "repro_golden_lookups_total", result="hit")
            assert hits == (self.GROUPS if phase == "warm" else 0)
            # The cold run's artifacts carry the follow-ups it materialized.
            materialized = value(pooled, "repro_followups_materialized_total")
            assert (materialized == 0) == (phase == "warm")

    @pytest.mark.parametrize(
        "run", [(1, "cold"), (2, "cold"), (2, "warm"), (1, "crash"), (2, "crash"), "chaos"],
        ids=run_id,
    )
    def test_manifests_conserve(self, runs, run):
        result, telemetry = runs[run]
        manifest = telemetry.manifest()
        machine, cache = manifest["machine"], manifest["golden_cache"]
        assert machine["trials"] == len(result.records) == manifest["executed_trials"]
        assert machine["dead_twins"] + machine["peeled_twins"] == machine["twins"]
        assert cache["golden_hits"] + cache["golden_misses"] == self.GROUPS
        assert machine["fast_forwards"] > 0 and machine["instructions_skipped"] > 0

    @pytest.mark.parametrize("run", [(1, "crash"), (2, "crash"), "chaos"], ids=run_id)
    def test_chaos_run_counts_only_kept_attempts(self, runs, run):
        result, telemetry = runs[run]
        assert telemetry.retries > 0
        assert result.records == runs[2, "warm"][0].records
        assert work(telemetry) == work(runs[2, "warm"][1])

    def test_a_second_run_counts_only_itself(self):
        (_, first), (_, second) = self._run(self.PLAIN, 1), self._run(self.PLAIN, 1)
        assert work(second) == work(first)
        assert value(second, "repro_twins_total") == value(first, "repro_twins_total") > 0

    def test_derived_rates(self, runs):
        machine = runs[1, "cold"][1].manifest()["machine"]
        executed = machine["translated_instructions"] + machine["interpreted_instructions"]
        assert machine["translated_share"] == machine["translated_instructions"] / executed
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
