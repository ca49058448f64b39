"""Capture-or-load policy for golden artifacts, plus the stats ledger.

:class:`GoldenSource` is the single object the campaign trial loop talks to:
``acquire`` loads a golden group from the store's committed packs, and
``offer`` appends a freshly captured group to the source's pack so the
*next* run (or the next shard sharing the store) skips the capture.  Serial
runs and pool workers read the packs the same way.  The source's owner —
:func:`~repro.engine.pool.execute_shard` after its last slice,
:meth:`~repro.faults.campaign.FaultInjectionCampaign.run` after its run —
calls :meth:`GoldenSource.commit` (one ``fsync`` per pack) or, when the
attempt raises, :meth:`GoldenSource.discard`.  Everything is fail-open — a
corrupt artifact or pack, or an unwritable store, degrades to live capture,
never to an exception — because the standing contract is that trial records
are byte-identical with the cache cold, warm, shared, or disabled.

The module-level :data:`STATS` ledger mirrors the translation-cache and
lock-step patterns (:data:`repro.machine.translator.CACHE`,
:data:`repro.machine.lockstep.STATS`): workers snapshot it around a shard
and ship the delta to the engine's telemetry; the serial CLI path diffs it
around the whole campaign.
"""

from __future__ import annotations

import time

from repro.artifacts.codec import ArtifactCorrupt, encode_group
from repro.artifacts.store import GoldenStore, golden_digest

__all__ = ["GoldenSource", "STATS", "golden_source_for", "reset_stats", "stats"]

#: Process-wide artifact-cache ledger.  Counter semantics:
#:
#: * ``golden_hits`` / ``golden_misses`` — groups served from cache vs
#:   captured live (their sum is the number of groups that consulted the
#:   source; the manifest derives the hit rate from them);
#: * ``artifact_corrupt`` — artifacts rejected by the codec (checksum,
#:   version, structure) and silently replaced by live capture, plus packs
#:   skipped for a torn or unparsable trailer;
#: * ``artifact_bytes_loaded`` — artifact bytes read from committed packs;
#: * ``artifact_bytes_written`` — artifact bytes in committed packs;
#:   ``artifact_write_errors`` — offers or commits that failed to write;
#: * ``golden_capture_seconds`` / ``golden_load_seconds`` — wall-clock split
#:   behind the campaign summary's capture-vs-load line.
STATS: dict[str, int | float] = {
    "golden_hits": 0,
    "golden_misses": 0,
    # Always 0; perfbench/spans.py reads it by key (artifacts.shm_hits).
    "shm_hits": 0,
    "artifact_corrupt": 0,
    "artifact_bytes_loaded": 0,
    "artifact_bytes_written": 0,
    "artifact_write_errors": 0,
    "golden_capture_seconds": 0.0,
    "golden_load_seconds": 0.0,
}


def stats() -> dict[str, int | float]:
    """Snapshot of the process-wide artifact ledger."""
    return dict(STATS)


def reset_stats() -> None:
    """Zero the ledger (tests and per-shard delta accounting)."""
    for key, value in STATS.items():
        STATS[key] = 0.0 if isinstance(value, float) else 0


class GoldenSource:
    """One campaign run's (or shard attempt's) view of the artifact cache.

    Holds the config (digest identity), the pack store, and the pack its
    offers stream into.
    """

    def __init__(self, config, store: GoldenStore) -> None:
        self.config = config
        self.store = store
        self._scanned = False
        self._pack = None

    def acquire(self, benchmark: str, group: int, *, registry):
        """Load one golden group's products, or ``None`` to capture live.

        The store's packs are indexed on the first lookup; a torn pack or a
        corrupt artifact counts ``artifact_corrupt`` and falls through.
        """
        digest = golden_digest(self.config, benchmark, group)
        started = time.perf_counter()
        try:
            payload = self._load(digest, registry)
        finally:
            STATS["golden_load_seconds"] += time.perf_counter() - started
        if payload is None:
            STATS["golden_misses"] += 1
            return None
        STATS["golden_hits"] += 1
        STATS["artifact_bytes_loaded"] += payload.nbytes
        return payload

    def _load(self, digest: str, registry):
        if not self._scanned:
            self._scanned = True
            STATS["artifact_corrupt"] += self.store.scan()
        try:
            return self.store.load(digest, registry=registry)
        except ArtifactCorrupt:
            STATS["artifact_corrupt"] += 1
            return None

    def offer(self, benchmark: str, group: int, golden, plan) -> None:
        """Append a live-captured group to this source's pack (best effort).

        The artifact is written out now; readers see it once the owner
        calls :meth:`commit`.
        """
        digest = golden_digest(self.config, benchmark, group)
        blob = encode_group(digest, golden, plan)
        try:
            if self._pack is None:
                self._pack = self.store.begin_pack()
            self._pack.append(digest, blob)
        except OSError:
            STATS["artifact_write_errors"] += 1
            self.discard()

    def commit(self) -> None:
        """Seal the pack of everything offered: one ``fsync``, then its name
        appears.  A no-op when nothing was offered."""
        pack, self._pack = self._pack, None
        if pack is None:
            return
        try:
            pack.commit()
        except OSError:
            STATS["artifact_write_errors"] += 1
            pack.discard()
            return
        STATS["artifact_bytes_written"] += pack.nbytes

    def discard(self) -> None:
        """Drop the pending pack (its temp file is removed)."""
        pack, self._pack = self._pack, None
        if pack is not None:
            pack.discard()


def golden_source_for(config) -> GoldenSource | None:
    """Build the campaign's golden source, or ``None`` without a store."""
    if not config.artifacts:
        return None
    return GoldenSource(config, GoldenStore(config.artifacts))
