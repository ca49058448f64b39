"""Capture-or-load policy for golden artifacts.

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

Lookups, bytes moved, corrupt artifacts, write errors and load seconds are
counted on :data:`repro.metrics.COUNTERS`, like everything else the
campaign counts.
"""

from __future__ import annotations

import time

from repro.artifacts.codec import ArtifactCorrupt, encode_group
from repro.artifacts.store import GoldenStore, golden_digest
from repro.metrics import COUNTERS

__all__ = ["GoldenSource", "golden_source_for", "stats"]


def stats() -> dict[str, int]:
    """This process's golden lookups and artifact bytes moved."""
    # A view over COUNTERS for perfbench/spans.py, its only reader (shm_hits: 0).
    return {
        "golden_hits": COUNTERS.golden_hits.value,
        "golden_misses": COUNTERS.golden_misses.value,
        "shm_hits": 0,
        "artifact_bytes_loaded": COUNTERS.bytes_loaded.value,
        "artifact_bytes_written": COUNTERS.bytes_written.value,
    }


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
            COUNTERS.load_seconds.inc(time.perf_counter() - started)
        if payload is None:
            COUNTERS.golden_misses.inc()
            return None
        COUNTERS.golden_hits.inc()
        COUNTERS.bytes_loaded.inc(payload.nbytes)
        return payload

    def _load(self, digest: str, registry):
        if not self._scanned:
            self._scanned = True
            COUNTERS.artifact_corrupt.inc(self.store.scan())
        try:
            return self.store.load(digest, registry=registry)
        except ArtifactCorrupt:
            COUNTERS.artifact_corrupt.inc()
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
            COUNTERS.write_errors.inc()
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
            COUNTERS.write_errors.inc()
            pack.discard()
            return
        COUNTERS.bytes_written.inc(pack.nbytes)

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
