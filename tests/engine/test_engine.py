"""CampaignEngine: sharded determinism, kill-and-resume, merge integrity.

The two acceptance properties of the engine subsystem live here:

* a sharded run (any shard count) merges to a record sequence
  **bit-identical** to ``FaultInjectionCampaign.run`` with the same root
  seed (pooled runs, with and without a detector, are cells of
  ``tests/test_equivalence.py``);
* a campaign killed mid-flight and resumed from its journal completes with
  no duplicated and no missing trial records.
"""

import json

import pytest

from repro.analysis import journal_progress, records_from_journal
from repro.engine import (
    CampaignEngine,
    EngineTelemetry,
    ShardFinished,
    read_state,
)
from repro.errors import EngineError, JournalError
from repro.faults import CampaignConfig, FaultInjectionCampaign

CONFIG = CampaignConfig(benchmarks=("mcf", "postmark"), n_injections=64, seed=9)


@pytest.fixture(scope="module")
def serial_records():
    return FaultInjectionCampaign(CONFIG).run().records


class KillAfter:
    """Telemetry subscriber that kills the campaign after N finished shards."""

    def __init__(self, n_shards: int):
        self.remaining = n_shards

    def __call__(self, event):
        if isinstance(event, ShardFinished) and not event.resumed:
            self.remaining -= 1
            if self.remaining == 0:
                raise KeyboardInterrupt


class TestDeterminism:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_sharded_run_is_bit_identical_to_serial(self, n_shards, serial_records):
        result = CampaignEngine(CONFIG, jobs=1, n_shards=n_shards).run()
        assert result.records == serial_records


class TestResume:
    def test_killed_campaign_resumes_without_dup_or_loss(
        self, tmp_path, serial_records
    ):
        journal = tmp_path / "trials.jsonl"
        telemetry = EngineTelemetry()
        telemetry.subscribe(KillAfter(2))
        with pytest.raises(KeyboardInterrupt):
            CampaignEngine(
                CONFIG, jobs=1, n_shards=4, journal_path=journal, telemetry=telemetry
            ).run()
        state = read_state(journal)
        assert len(state.completed_shards) == 2
        assert 0 < state.completed_trials < len(serial_records)

        result = CampaignEngine(CONFIG, jobs=1, n_shards=4, journal_path=journal).run(
            resume=True
        )
        assert result.records == serial_records  # nothing missing...
        final = read_state(journal)
        seen = [t for trials in final.completed.values() for t, _ in trials]
        assert sorted(seen) == list(range(len(serial_records)))  # ...nothing doubled

    def test_resume_skips_completed_work(self, tmp_path, serial_records):
        journal = tmp_path / "trials.jsonl"
        CampaignEngine(CONFIG, jobs=1, n_shards=4, journal_path=journal).run()
        telemetry = EngineTelemetry()
        result = CampaignEngine(
            CONFIG, jobs=1, n_shards=4, journal_path=journal, telemetry=telemetry
        ).run(resume=True)
        assert result.records == serial_records
        assert telemetry.executed_trials == 0
        assert all(event.resumed for event in telemetry.shard_log)

    def test_resume_adopts_journal_shard_structure(self, tmp_path, serial_records):
        journal = tmp_path / "trials.jsonl"
        telemetry = EngineTelemetry()
        telemetry.subscribe(KillAfter(1))
        with pytest.raises(KeyboardInterrupt):
            CampaignEngine(
                CONFIG, jobs=1, n_shards=4, journal_path=journal, telemetry=telemetry
            ).run()
        # Resume with a different jobs/shard request: journal's 4 shards win.
        result = CampaignEngine(
            CONFIG, jobs=2, n_shards=2, journal_path=journal
        ).run(resume=True)
        assert result.records == serial_records
        assert read_state(journal).n_shards == 4

    def test_journal_collision_requires_resume(self, tmp_path):
        journal = tmp_path / "trials.jsonl"
        CampaignEngine(CONFIG, jobs=1, n_shards=2, journal_path=journal).run()
        with pytest.raises(JournalError, match="resume"):
            CampaignEngine(CONFIG, jobs=1, n_shards=2, journal_path=journal).run()

    def test_resume_rejects_foreign_journal(self, tmp_path):
        journal = tmp_path / "trials.jsonl"
        CampaignEngine(CONFIG, jobs=1, n_shards=2, journal_path=journal).run()
        other = CampaignConfig(benchmarks=("mcf", "postmark"), n_injections=64, seed=10)
        with pytest.raises(JournalError, match="different campaign"):
            CampaignEngine(other, jobs=1, n_shards=2, journal_path=journal).run(
                resume=True
            )

    def test_resume_without_journal_path(self):
        with pytest.raises(EngineError, match="journal_path"):
            CampaignEngine(CONFIG).run(resume=True)


class TestObservability:
    def test_manifest_written_next_to_journal(self, tmp_path):
        journal = tmp_path / "trials.jsonl"
        engine = CampaignEngine(CONFIG, jobs=1, n_shards=2, journal_path=journal)
        engine.run()
        manifest_path = tmp_path / "trials.jsonl.manifest.json"
        assert manifest_path.exists()
        manifest = engine.telemetry.manifest()
        assert manifest["done_shards"] == 2
        assert manifest["done_trials"] == manifest["total_trials"]
        assert sum(manifest["outcomes"]["detected_by"].values()) == len(
            FaultInjectionCampaign(CONFIG).run()
        )

    def test_analysis_reads_the_journal(self, tmp_path, serial_records):
        journal = tmp_path / "trials.jsonl"
        CampaignEngine(CONFIG, jobs=1, n_shards=4, journal_path=journal).run()
        assert records_from_journal(journal) == serial_records
        progress = journal_progress(journal)
        assert progress["fraction_done"] == 1.0
        assert progress["completed_shards"] == [0, 1, 2, 3]
        # The journal reader counts outcomes the way the manifest does.
        manifest = json.loads((tmp_path / "trials.jsonl.manifest.json").read_text())
        assert progress["outcomes"] == manifest["outcomes"]
