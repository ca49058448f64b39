"""Trial journal: durability, crash tolerance, campaign identity."""

import json

import pytest

from repro.engine.journal import SampleJournal, TrialJournal, read_state
from repro.errors import JournalError
from repro.faults import CampaignConfig, FaultInjectionCampaign


@pytest.fixture(scope="module")
def records():
    cfg = CampaignConfig(benchmarks=("mcf",), n_injections=24, seed=6)
    return FaultInjectionCampaign(cfg).run().records


def indexed(records, start=0):
    return list(enumerate(records, start=start))


class TestRoundTrip:
    def test_append_and_read_back(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=2, total_trials=24) as j:
            j.append_shard(0, indexed(records[:12]))
            j.append_shard(1, indexed(records[12:], start=12))
        state = read_state(path)
        assert state.completed_shards == {0, 1}
        assert state.completed_trials == 24
        merged = [r for i in (0, 1) for _, r in state.completed[i]]
        assert tuple(merged) == records

    def test_missing_or_empty_is_none(self, tmp_path):
        assert read_state(tmp_path / "absent.jsonl") is None
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        assert read_state(empty) is None

    def test_double_append_rejected(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=1, total_trials=12) as j:
            j.append_shard(0, indexed(records[:12]))
            with pytest.raises(JournalError, match="already journalled"):
                j.append_shard(0, indexed(records[:12]))


class TestCrashSafety:
    def test_partial_shard_is_not_completed(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=2, total_trials=24) as j:
            j.append_shard(0, indexed(records[:12]))
        # Simulate a kill mid-shard-1: trial lines, no shard_done marker.
        with open(path, "a") as fh:
            fh.write(json.dumps({"kind": "trial", "shard": 1, "trial": 12,
                                 "rec": {"bogus": True}})[: 40])  # torn write
        state = read_state(path)
        assert state.completed_shards == {0}
        assert 1 not in state.partial  # torn tail ignored entirely

    def test_intact_partial_trials_surface_as_partial(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=2, total_trials=24) as j:
            j.append_shard(0, indexed(records[:12]))
        from repro.persist import _record_to_dict

        with open(path, "a") as fh:
            fh.write(json.dumps({"kind": "trial", "shard": 1, "trial": 12,
                                 "rec": _record_to_dict(records[12])}) + "\n")
        state = read_state(path)
        assert state.completed_shards == {0}
        assert [t for t, _ in state.partial[1]] == [12]
        assert state.partial[1][0][1] == records[12]

    def test_marker_count_mismatch_is_corruption(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=1, total_trials=12) as j:
            j.append_shard(0, indexed(records[:12]))
        lines = path.read_text().splitlines()
        del lines[3]  # drop one trial line but keep the marker
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="marker says"):
            read_state(path)


class TestResumeAfterTornLine:
    """A crash mid-line leaves an unterminated fragment; resuming cuts it
    off, so the shards journalled after the resume stay readable."""

    @pytest.mark.parametrize("kind", [TrialJournal, SampleJournal])
    def test_shards_after_a_torn_line_survive_resume(self, tmp_path, records, kind):
        if kind is SampleJournal:
            items = [((i, i + 1), i % 2) for i in range(12)]
        else:
            items = list(records[:12])
        path = tmp_path / "j.jsonl"
        with kind.create(path, digest="d1", n_shards=3, total_trials=12) as j:
            j.append_shard(0, indexed(items[:4]))
        with open(path, "a") as fh:
            fh.write('{"kind": "trial", "shard": 1, "tri')  # no newline
        with kind.resume(path, digest="d1") as j:
            assert j.state.completed_shards == {0}
            j.append_shard(1, indexed(items[4:8], start=4))
            j.append_shard(2, indexed(items[8:], start=8))
        state = kind.read(path)
        assert state.completed_shards == {0, 1, 2}
        assert [item for s in (0, 1, 2) for _, item in state.completed[s]] == items
        # A second resume finds nothing left to run.
        with kind.resume(path, digest="d1") as j:
            assert j.state.completed_shards == {0, 1, 2}
            assert not j.state.partial

    def test_unterminated_header_is_terminated(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        TrialJournal.create(path, digest="d1", n_shards=1, total_trials=12).close()
        path.write_text(path.read_text().rstrip("\n"))
        with TrialJournal.resume(path, digest="d1") as j:
            j.append_shard(0, indexed(records[:12]))
        assert read_state(path).completed_trials == 12


class TestSupersedingWrites:
    def test_torn_tail_superseded_by_retried_append(self, tmp_path, records):
        """A retry after a mid-append crash re-writes the shard; its
        ``shard_begin`` marker discards the stale torn tail."""
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=1, total_trials=12) as j:
            j.append_torn(0, indexed(records[:6]))
            j.append_shard(0, indexed(records[:12]))
        state = read_state(path)
        assert state.completed_shards == {0}
        assert not state.partial
        assert [r for _, r in state.completed[0]] == list(records[:12])

    def test_torn_tail_alone_reports_partial(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=1, total_trials=12) as j:
            j.append_torn(0, indexed(records[:6]))
        state = read_state(path)
        assert not state.completed
        assert [t for t, _ in state.partial[0]] == list(range(6))

    def test_duplicate_shard_done_latest_wins(self, tmp_path, records):
        """Two complete recordings of the same shard (e.g. an append whose
        fsync result was lost, then retried): the reader keeps the latest."""
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=1, total_trials=12) as j:
            j.append_shard(0, indexed(records[:12]))
            # Bypass the writer's double-append guard to forge the duplicate.
            j.state.completed.pop(0)
            j.append_shard(0, indexed(records[12:24], start=0))
        state = read_state(path)
        assert state.completed_shards == {0}
        assert [r for _, r in state.completed[0]] == list(records[12:24])

    def test_failed_marker_roundtrip_and_healing(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=2, total_trials=24) as j:
            j.append_failed(0, attempts=3, kind="timeout", error="hung")
            j.append_shard(1, indexed(records[12:], start=12))
        state = read_state(path)
        assert state.completed_shards == {1}
        assert state.failed[0] == {"attempts": 3, "kind": "timeout", "error": "hung"}
        # A later successful recording clears the quarantine marker.
        with TrialJournal.resume(path, digest="d1") as j:
            j.append_shard(0, indexed(records[:12]))
        state = read_state(path)
        assert state.completed_shards == {0, 1}
        assert not state.failed

    def test_failed_marker_never_shadows_success(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        with TrialJournal.create(path, digest="d1", n_shards=1, total_trials=12) as j:
            j.append_shard(0, indexed(records[:12]))
        with open(path, "a") as fh:
            fh.write(json.dumps({"kind": "shard_failed", "shard": 0,
                                 "attempts": 1, "error_kind": "exception",
                                 "error": "stale"}) + "\n")
        state = read_state(path)
        assert state.completed_shards == {0}
        assert not state.failed


class TestClose:
    def test_close_is_idempotent(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        j = TrialJournal.create(path, digest="d1", n_shards=1, total_trials=12)
        j.append_shard(0, indexed(records[:12]))
        j.close()
        j.close()  # second close must not raise on the closed handle
        assert read_state(path).completed_shards == {0}


class TestIdentity:
    def test_create_refuses_existing(self, tmp_path, records):
        path = tmp_path / "j.jsonl"
        TrialJournal.create(path, digest="d1", n_shards=1, total_trials=1).close()
        with pytest.raises(JournalError, match="already exists"):
            TrialJournal.create(path, digest="d1", n_shards=1, total_trials=1)

    def test_resume_validates_digest(self, tmp_path):
        path = tmp_path / "j.jsonl"
        TrialJournal.create(path, digest="d1", n_shards=1, total_trials=1).close()
        with pytest.raises(JournalError, match="different campaign"):
            TrialJournal.resume(path, digest="d2")
        j = TrialJournal.resume(path, digest="d1")
        assert j.state.completed == {}
        j.close()

    def test_resume_missing_journal(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            TrialJournal.resume(tmp_path / "absent.jsonl", digest="d1")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(JournalError, match="not a"):
            read_state(path)
