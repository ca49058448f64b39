"""Pack lifecycle over real campaigns: one pack and one fsync per attempt.

Every shard attempt (or serial run) that captures goldens streams them into
one temp pack and commits it once at the end — a single ``fsync``, then the
rename.  An attempt that raises leaves neither a pack nor a temp file, a
hard-crashed worker's temp file is swept when the engine finishes, and packs
that overlap serve the same artifacts.  Pool workers read the committed packs
themselves, as a serial run does; the coordinator reads none.  Every case
ends with records byte-identical to a no-cache run.
"""

import dataclasses
import os
import shutil
from pathlib import Path

import pytest

from repro.artifacts.store import GoldenStore, read_pack_table
from repro.engine import CampaignEngine, ChaosPolicy, EngineTelemetry, RetryPolicy
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.faults import campaign as campaign_mod
from repro.faults.campaign import benchmark_geometry
from repro.metrics import CampaignCounters, counted

CONFIG = CampaignConfig(
    n_injections=24, seed=13, benchmarks=("mcf", "postmark")
)
GROUPS = len(CONFIG.benchmarks) * benchmark_geometry(CONFIG).n_goldens
SHARDS = 4


@pytest.fixture(scope="module")
def baseline():
    return FaultInjectionCampaign(CONFIG).run().records


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, baseline):
    """A store filled by one serial cold run."""
    root = tmp_path_factory.mktemp("warm")
    assert FaultInjectionCampaign(cached(root)).run().records == baseline
    return root


def cached(root: Path) -> CampaignConfig:
    return dataclasses.replace(CONFIG, artifacts=str(root))


def engine(config, *, chaos=None, jobs=2, retry=None):
    telemetry = EngineTelemetry()
    result = CampaignEngine(
        config, jobs=jobs, n_shards=SHARDS, telemetry=telemetry, chaos=chaos,
        retry=retry,
    ).run()
    return result, telemetry.counters.golden_cache()


def packs(root: Path) -> list[Path]:
    return GoldenStore(root).packs()


def temps(root: Path) -> list[Path]:
    return sorted(root.rglob("*.tmp"))


def warm_rerun_matches(root: Path, baseline) -> dict:
    """A serial rerun against ``root`` is fully warm and byte-identical;
    return its golden-cache counters."""
    result, counts = counted(FaultInjectionCampaign(cached(root)).run)
    assert result.records == baseline
    stats = CampaignCounters.folded(counts).golden_cache()
    assert stats["golden_hits"] == GROUPS and stats["golden_misses"] == 0
    return stats


class TestPoolCommits:
    def test_cold_pool_run_commits_one_pack_per_shard_with_one_fsync(
        self, tmp_path, baseline, monkeypatch
    ):
        # Workers fork with the patched os.fsync and log what they sync.
        log = tmp_path / "fsync.log"
        real_fsync = os.fsync

        def counting_fsync(fd):
            target = os.readlink(f"/proc/self/fd/{fd}")
            with open(log, "a") as fh:
                fh.write(target + "\n")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        root = tmp_path / "store"
        result, cache = engine(cached(root))
        monkeypatch.undo()
        assert result.records == baseline
        assert cache["golden_misses"] == GROUPS
        committed = packs(root)
        assert 0 < len(committed) <= SHARDS
        assert sum(len(read_pack_table(p)) for p in committed) == GROUPS
        synced = log.read_text().split()
        # Exactly one fsync per pack, each on the attempt's own temp file.
        assert len(synced) == len(committed) == len(set(synced))
        assert all(s.endswith(".tmp") and Path(s).parent == root / "golden"
                   for s in synced)
        assert temps(root) == []
        warm_rerun_matches(root, baseline)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_attempts_leave_no_pack_and_no_temp(self, tmp_path, baseline, jobs):
        # Every first attempt raises after capturing its first golden; only
        # the retries commit.  (Inline, the attempt's process lives on, so
        # no end-of-run sweep could hide a temp it failed to remove.)
        root = tmp_path / "store"
        chaos = ChaosPolicy(seed=2, crash_rate=1.0, only_attempt=0)
        assert all(chaos.plan(s, 0).crash_after >= 1 for s in range(SHARDS))
        result, _ = engine(cached(root), chaos=chaos, jobs=jobs)
        assert result.records == baseline
        assert len(packs(root)) == SHARDS
        assert sum(len(read_pack_table(p)) for p in packs(root)) == GROUPS
        assert temps(root) == []
        warm_rerun_matches(root, baseline)

    def test_raising_serial_run_leaves_no_pack_and_no_temp(
        self, tmp_path, baseline, monkeypatch
    ):
        root = tmp_path / "store"
        real = campaign_mod.run_twin_batch
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # two goldens already streamed to the pack
                raise RuntimeError("attempt dies")
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_twin_batch", failing)
        with pytest.raises(RuntimeError, match="attempt dies"):
            FaultInjectionCampaign(cached(root)).run()
        monkeypatch.undo()
        assert packs(root) == [] and temps(root) == []
        assert FaultInjectionCampaign(cached(root)).run().records == baseline
        warm_rerun_matches(root, baseline)

    def test_hard_crashed_worker_temp_is_swept(self, tmp_path, baseline):
        # Each first attempt dies by os._exit holding a temp pack.
        root = tmp_path / "store"
        chaos = ChaosPolicy(seed=2, hard_crash_rate=1.0, only_attempt=0)
        assert all(chaos.plan(s, 0).crash_after >= 1 for s in range(SHARDS))
        result, _ = engine(cached(root), chaos=chaos)
        assert result.records == baseline
        assert temps(root) == []
        warm_rerun_matches(root, baseline)


class TestOverlappingPacks:
    def test_two_packs_holding_the_same_digest(self, tmp_path, baseline):
        # A serial store (one pack, every group) merged with a pooled one
        # (one pack per shard): every digest lives in two packs.
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert FaultInjectionCampaign(cached(serial)).run().records == baseline
        assert engine(cached(pooled))[0].records == baseline
        for path in packs(pooled):
            shutil.copy2(path, serial / "golden" / path.name)
        held: dict[str, int] = {}
        for path in packs(serial):
            for digest, _, _ in read_pack_table(path):
                held[digest] = held.get(digest, 0) + 1
        assert len(held) == GROUPS and set(held.values()) == {2}
        result, cache = engine(cached(serial))
        assert result.records == baseline
        assert cache["hit_rate"] == 1.0
        assert cache.get("artifact_corrupt", 0) == 0
        warm_rerun_matches(serial, baseline)


class TestTornPack:
    """A torn pack is counted once per run, by the run's owner, however many
    shard attempts skip it."""

    @pytest.fixture(scope="class")
    def torn_store(self, tmp_path_factory, baseline):
        """A pool-written store with its first pack cut by 100 bytes; also
        returns how many groups that pack held."""
        root = tmp_path_factory.mktemp("torn")
        result, _ = engine(cached(root))
        assert result.records == baseline
        assert len(packs(root)) == SHARDS
        pack = packs(root)[0]
        held = len(read_pack_table(pack))
        os.truncate(pack, pack.stat().st_size - 100)
        return root, held

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counted_once_at_any_job_count(self, tmp_path, torn_store, baseline, jobs):
        root, held = torn_store
        copy = tmp_path / "store"
        shutil.copytree(root, copy)
        result, cache = engine(cached(copy), jobs=jobs)
        assert result.records == baseline
        assert cache["artifact_corrupt"] == 1
        assert cache["golden_misses"] == held
        assert cache["golden_hits"] == GROUPS - held

    def test_counted_once_in_a_serial_run(self, tmp_path, torn_store, baseline):
        root, held = torn_store
        copy = tmp_path / "store"
        shutil.copytree(root, copy)
        result, counts = counted(FaultInjectionCampaign(cached(copy)).run)
        assert result.records == baseline
        cache = CampaignCounters.folded(counts).golden_cache()
        assert cache["artifact_corrupt"] == 1
        assert cache["golden_misses"] == held


class TestWarmReads:
    """A warm store: every shard reads the committed packs itself."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_engine_serves_every_group_from_packs(self, warm_store, baseline, jobs):
        result, cache = engine(cached(warm_store), jobs=jobs)
        assert result.records == baseline
        assert cache["golden_hits"] == GROUPS
        assert cache.get("golden_misses", 0) == 0
        assert cache.get("golden_capture_seconds", 0.0) == 0.0
        serial = warm_rerun_matches(warm_store, baseline)
        # The shards loaded exactly the bytes a serial warm run loads.
        assert cache["artifact_bytes_loaded"] == serial["artifact_bytes_loaded"]

    def test_warm_pool_rebuilt_after_hard_crashes(self, warm_store, baseline):
        # Every first attempt dies by os._exit, so the pool is rebuilt and
        # the retries read the same packs again.  A broken pool charges each
        # in-flight shard an attempt, so the budget covers a shard caught in
        # all four crashes.
        chaos = ChaosPolicy(seed=2, hard_crash_rate=1.0, only_attempt=0)
        retry = RetryPolicy(max_retries=SHARDS, seed=CONFIG.seed)
        result, cache = engine(cached(warm_store), chaos=chaos, retry=retry)
        assert result.records == baseline
        assert cache.get("golden_misses", 0) == 0
        assert temps(warm_store) == []

    def test_coordinator_never_reads_an_artifact(
        self, tmp_path, warm_store, baseline, monkeypatch
    ):
        # Workers fork with the patched method and log who reads each blob.
        log = tmp_path / "reads.log"
        real_load_bytes = GoldenStore.load_bytes

        def logged_load_bytes(store, digest):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_load_bytes(store, digest)

        monkeypatch.setattr(GoldenStore, "load_bytes", logged_load_bytes)
        result, _ = engine(cached(warm_store))
        monkeypatch.undo()
        assert result.records == baseline
        readers = log.read_text().split()
        assert len(readers) == GROUPS
        assert str(os.getpid()) not in readers
