"""GoldenSource policy + the campaign-level bit-identity contract.

The standing contract of the whole subsystem, asserted here end to end on a
real (small) campaign: trial records are byte-identical with the cache cold,
warm, corrupted (a damaged artifact inside a pack, or a torn pack trailer),
unwritable, or disabled (no store).  Corruption surfaces only as an
``artifact_corrupt`` count on the registry — never an exception, never a
changed record.
"""

import dataclasses

import pytest

from repro.artifacts import runtime
from repro.artifacts.codec import MAGIC
from repro.artifacts.runtime import GoldenSource, golden_source_for
from repro.artifacts.store import GoldenStore, read_pack_table
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.faults.campaign import benchmark_geometry
from repro.metrics import COUNTERS, CampaignCounters, counted

CONFIG = CampaignConfig(
    n_injections=24, seed=7, benchmarks=("mcf", "postmark")
)


def run_campaign(config):
    """Run the campaign; return its result and its golden-cache counters."""
    result, counts = counted(FaultInjectionCampaign(config).run)
    return result, CampaignCounters.folded(counts).golden_cache()


def cached(tmp_path):
    return dataclasses.replace(CONFIG, artifacts=str(tmp_path / "cache"))


def artifact_files(tmp_path):
    """Committed packs of the test store."""
    return sorted((tmp_path / "cache").rglob("*.pack"))


GROUPS = len(CONFIG.benchmarks) * benchmark_geometry(CONFIG).n_goldens


def repack(root, damage) -> int:
    """Rewrite every pack under ``root`` with each artifact blob passed
    through ``damage`` (the trailer stays valid); return the blob count."""
    store = GoldenStore(root)
    count = 0
    for path in store.packs():
        raw = path.read_bytes()
        pack = store.begin_pack()
        for digest, offset, length in read_pack_table(path):
            pack.append(digest, damage(raw[offset : offset + length]))
            count += 1
        path.unlink()
        pack.commit()
    return count


class TestSourcePolicy:
    def test_no_store_no_segment_is_no_source(self):
        assert golden_source_for(CONFIG) is None

    def test_cache_disabled_is_no_source(self, tmp_path):
        config = dataclasses.replace(cached(tmp_path), artifacts=None)
        assert golden_source_for(config) is None
        source = golden_source_for(cached(tmp_path))
        assert isinstance(source, GoldenSource)
        assert source.store.directory == tmp_path / "cache" / "golden"


class TestCampaignBitIdentity:
    def test_cold_then_warm_matches_uncached(self, tmp_path):
        baseline, _ = run_campaign(CONFIG)

        cold, after_cold = run_campaign(cached(tmp_path))
        assert cold.records == baseline.records
        assert after_cold["golden_misses"] == GROUPS
        assert after_cold["golden_hits"] == 0
        assert after_cold["artifact_bytes_written"] > 0
        # The serial run streams every capture into one pack.
        (pack,) = artifact_files(tmp_path)
        assert len(read_pack_table(pack)) == GROUPS

        warm, stats = run_campaign(cached(tmp_path))
        assert warm.records == baseline.records
        assert stats["golden_misses"] == 0, "warm run must execute zero golden captures"
        assert stats["golden_hits"] == after_cold["golden_misses"]
        assert stats["golden_load_seconds"] > 0.0

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "version"])
    def test_corrupt_artifacts_fall_back_to_live_capture(self, tmp_path, damage):
        baseline, _ = run_campaign(CONFIG)
        run_campaign(cached(tmp_path))  # warm the store

        def spoil(blob: bytes) -> bytes:
            if damage == "truncate":
                return blob[: len(blob) // 3]
            if damage == "garbage":
                return b"\xde\xad" * 256
            return MAGIC[:-1] + bytes([MAGIC[-1] + 1]) + blob[len(MAGIC):]

        damaged = repack(tmp_path / "cache", spoil)
        assert damaged == GROUPS

        rerun, stats = run_campaign(cached(tmp_path))
        assert rerun.records == baseline.records
        assert stats["artifact_corrupt"] == damaged
        assert stats["golden_hits"] == 0
        assert stats["golden_misses"] == damaged
        # The rerun re-published good artifacts over the corpses...
        assert stats["artifact_bytes_written"] > 0
        final, stats = run_campaign(cached(tmp_path))
        # ...so the next run is warm again.
        assert final.records == baseline.records
        assert stats["golden_misses"] == 0

    @pytest.mark.parametrize("cut", [1, 40])
    def test_torn_pack_trailer_falls_back_to_live_capture(self, tmp_path, cut):
        # A pack cut short anywhere in its trailer is skipped whole: counted
        # once as corrupt, every group it held captured live again.
        baseline, _ = run_campaign(CONFIG)
        run_campaign(cached(tmp_path))
        (pack,) = artifact_files(tmp_path)
        raw = pack.read_bytes()
        pack.write_bytes(raw[:-cut])

        rerun, stats = run_campaign(cached(tmp_path))
        assert rerun.records == baseline.records
        assert stats["artifact_corrupt"] == 1
        assert stats["golden_hits"] == 0
        assert stats["golden_misses"] == GROUPS
        final, stats = run_campaign(cached(tmp_path))
        assert final.records == baseline.records
        assert stats["golden_misses"] == 0

    def test_unwritable_store_counts_write_errors(self, tmp_path):
        baseline, _ = run_campaign(CONFIG)
        # A plain file where the store root should be (permission bits can't
        # make a directory unwritable for root, which is how CI runs).
        root = tmp_path / "cache"
        root.write_bytes(b"not a directory")
        result, stats = run_campaign(dataclasses.replace(CONFIG, artifacts=str(root)))
        assert result.records == baseline.records
        assert stats["artifact_write_errors"] > 0
        assert stats["artifact_bytes_written"] == 0

    def test_cache_disabled_never_touches_the_ledger(self, tmp_path):
        config = dataclasses.replace(cached(tmp_path), artifacts=None)
        baseline, _ = run_campaign(cached(tmp_path))
        result, stats = run_campaign(config)
        assert result.records == baseline.records
        # A store sits there, warm, but a run without one never reads it.
        assert len(artifact_files(tmp_path)) == 1
        # Capture seconds and follow-up materializations still accrue (they
        # count golden work, cache or no cache); every cache-specific
        # counter stays untouched.
        assert stats.pop("golden_capture_seconds") > 0.0
        assert stats.pop("followups_materialized") > 0
        assert all(not v for v in stats.values())


class TestLedger:
    def test_stats_returns_a_snapshot(self):
        snap = runtime.stats()
        hits = snap["golden_hits"]
        COUNTERS.golden_hits.inc()
        assert snap["golden_hits"] == hits
        assert runtime.stats()["golden_hits"] == hits + 1
