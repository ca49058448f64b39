"""Stub of the golden-segment publisher, kept for the benchmark tracer.

Pool workers read golden artifacts from the committed packs
(:mod:`repro.artifacts.store`) exactly as serial runs do; nothing here
publishes anything.
"""

from __future__ import annotations

__all__ = ["SegmentPublisher"]


# Read by perfbench/spans.py, which wraps ``prepare`` (artifacts.publish_s).
class SegmentPublisher:
    """Publishes nothing; no program code calls :meth:`prepare`."""

    def prepare(self, shard_index: int, blobs: dict[str, bytes]) -> None:
        return None
