"""Engine-backed collect_dataset: parallelism, resume, chaos, observability.

The acceptance properties of the training-collection tentpole:

* ``jobs=N`` (and a caller-provided hypervisor, and an engine-supervised
  retry history) all merge to a dataset **bit-identical** to the fixed
  serial collection of the same seed;
* a collection killed mid-flight and resumed from its sample journal
  completes with the identical samples — none missing, none doubled;
* quarantined shards abort the collection instead of silently truncating
  the training set.

Training chaos goes through the same ``run_shard`` tripwire as campaign
chaos, so the CI chaos job re-runs this file under several
``REPRO_CHAOS_SEED`` values too; assertions hold for any seed.
"""

import json
import os

import pytest

from repro.analysis import dataset_from_journal, sample_journal_progress
from repro.engine import (
    ChaosPolicy,
    EngineTelemetry,
    RetryPolicy,
    SampleJournal,
    ShardFinished,
)
from repro.errors import EngineError, JournalError
from repro.hypervisor import XenHypervisor
from repro.xentry import TrainingConfig, collect_dataset

CONFIG = TrainingConfig(
    benchmarks=("mcf", "postmark"), fault_free_runs=40, injection_runs=60, seed=5
)
# 2 benchmarks x (free, inj) parts.
N_SHARDS = 4
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "3"))


@pytest.fixture(scope="module")
def serial_dataset():
    return collect_dataset(CONFIG)


def assert_identical(a, b):
    assert a.X.shape == b.X.shape
    assert (a.X == b.X).all() and (a.y == b.y).all()


class KillAfter:
    """Telemetry subscriber that kills the collection after N finished shards."""

    def __init__(self, n_shards: int):
        self.remaining = n_shards

    def __call__(self, event):
        if isinstance(event, ShardFinished) and not event.resumed:
            self.remaining -= 1
            if self.remaining == 0:
                raise KeyboardInterrupt


class TestDeterminism:
    def test_process_pool_is_bit_identical_to_serial(self, serial_dataset):
        assert_identical(collect_dataset(CONFIG, jobs=2), serial_dataset)

    def test_caller_hypervisor_is_bit_identical(self, serial_dataset):
        # Shards reset to post-boot state, so a shared, already-used
        # hypervisor changes nothing.
        hv = XenHypervisor(n_domains=CONFIG.n_domains, seed=CONFIG.seed)
        collect_dataset(CONFIG, hypervisor=hv)  # dirty the instance
        assert_identical(collect_dataset(CONFIG, hypervisor=hv), serial_dataset)

    def test_supervised_retries_are_bit_identical(self, serial_dataset):
        # Transient chaos: every shard's first attempt crashes, the retry
        # succeeds, and the merged dataset must not show a trace of it.
        ds = collect_dataset(
            CONFIG,
            chaos=ChaosPolicy(seed=CHAOS_SEED, crash_rate=1.0, only_attempt=0),
            retry=RetryPolicy(max_retries=1, backoff_base=0.0, seed=CHAOS_SEED),
        )
        assert_identical(ds, serial_dataset)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(EngineError, match="jobs"):
            collect_dataset(CONFIG, jobs=0)


class TestResume:
    def test_killed_collection_resumes_without_dup_or_loss(
        self, tmp_path, serial_dataset
    ):
        journal = tmp_path / "samples.jsonl"
        telemetry = EngineTelemetry()
        telemetry.subscribe(KillAfter(2))
        with pytest.raises(KeyboardInterrupt):
            collect_dataset(CONFIG, journal_path=journal, telemetry=telemetry)
        state = SampleJournal.read(journal)
        assert len(state.completed_shards) == 2
        assert 0 < state.completed_trials < len(serial_dataset)

        ds = collect_dataset(CONFIG, journal_path=journal, resume=True)
        assert_identical(ds, serial_dataset)  # nothing missing...
        final = SampleJournal.read(journal)
        seen = [run for items in final.completed.values() for run, _ in items]
        assert len(seen) == len(set(seen)) == len(serial_dataset)  # ...none doubled

    def test_resume_skips_completed_work(self, tmp_path, serial_dataset):
        journal = tmp_path / "samples.jsonl"
        collect_dataset(CONFIG, journal_path=journal)
        telemetry = EngineTelemetry()
        ds = collect_dataset(
            CONFIG, journal_path=journal, resume=True, telemetry=telemetry
        )
        assert_identical(ds, serial_dataset)
        assert telemetry.executed_trials == 0
        assert all(event.resumed for event in telemetry.shard_log)

    def test_journal_collision_requires_resume(self, tmp_path):
        journal = tmp_path / "samples.jsonl"
        collect_dataset(CONFIG, journal_path=journal)
        with pytest.raises(JournalError, match="resume"):
            collect_dataset(CONFIG, journal_path=journal)

    def test_resume_rejects_foreign_journal(self, tmp_path):
        journal = tmp_path / "samples.jsonl"
        collect_dataset(CONFIG, journal_path=journal)
        other = TrainingConfig(
            benchmarks=("mcf", "postmark"), fault_free_runs=40,
            injection_runs=60, seed=6,
        )
        with pytest.raises(JournalError):
            collect_dataset(other, journal_path=journal, resume=True)

    def test_streams_of_one_config_need_separate_journals(self, tmp_path):
        # The digest covers the stream name: a test-stream resume against a
        # train-stream journal must be refused, not silently merged.
        journal = tmp_path / "samples.jsonl"
        collect_dataset(CONFIG, journal_path=journal, stream="train")
        with pytest.raises(JournalError):
            collect_dataset(CONFIG, journal_path=journal, stream="test", resume=True)

    def test_resume_without_journal_path(self):
        with pytest.raises(EngineError, match="journal_path"):
            collect_dataset(CONFIG, resume=True)


class TestQuarantine:
    def test_quarantined_shards_abort_the_collection(self, tmp_path):
        with pytest.raises(EngineError, match="quarantine"):
            collect_dataset(
                CONFIG,
                journal_path=tmp_path / "samples.jsonl",
                chaos=ChaosPolicy(seed=1, crash_rate=1.0),
                retry=RetryPolicy(max_retries=0, seed=1),
            )


class TestObservability:
    def test_manifest_reports_label_balance(self, tmp_path, serial_dataset):
        journal = tmp_path / "samples.jsonl"
        collect_dataset(CONFIG, journal_path=journal)
        manifest = json.loads(
            (tmp_path / "samples.jsonl.manifest.json").read_text()
        )
        assert manifest["done_shards"] == N_SHARDS
        labels = manifest["outcomes"]["labels"]
        assert sum(labels.values()) == len(serial_dataset)
        assert labels["correct"] > 0 and labels["incorrect"] > 0

    def test_analysis_rebuilds_dataset_from_journal(self, tmp_path, serial_dataset):
        journal = tmp_path / "samples.jsonl"
        collect_dataset(CONFIG, journal_path=journal)
        assert_identical(dataset_from_journal(journal), serial_dataset)

    def test_sample_journal_progress(self, tmp_path, serial_dataset):
        journal = tmp_path / "samples.jsonl"
        collect_dataset(CONFIG, journal_path=journal)
        progress = sample_journal_progress(journal)
        assert progress["completed_shards"] == list(range(N_SHARDS))
        assert progress["fraction_shards_done"] == 1.0
        assert progress["done_samples"] == len(serial_dataset)
        # Killed injections consume activations without yielding samples.
        assert progress["done_samples"] <= progress["total_runs"]
        n_correct, n_incorrect = serial_dataset.class_counts()
        assert progress["labels"] == {
            "correct": n_correct, "incorrect": n_incorrect,
        }

    def test_progress_on_missing_journal(self, tmp_path):
        with pytest.raises(JournalError, match="no sample journal"):
            sample_journal_progress(tmp_path / "absent.jsonl")
