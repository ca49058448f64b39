"""Zero-copy artifact distribution over POSIX shared memory.

The parent process packs every artifact a shard will need into one
``multiprocessing.shared_memory`` segment (a TOC mapping golden digests to
blob extents, then the concatenated artifact blobs).  Pool workers attach by
name and decode straight out of the mapping — checkpoint pages and TwinPlan
columns become memoryviews/ndarray views over the *same physical pages* in
every worker, so a warm shard costs neither golden re-execution nor
per-worker deserialized copies.

Lifecycle rules (the part that keeps ``/dev/shm`` clean):

* The **parent owns every segment**: it creates, fills, and unlinks them.
  One segment per shard, unlinked the moment the shard is finished or
  quarantined, with a ``close_all()`` backstop on engine teardown.
* **Workers never close or unlink** (except chaos, below).  They keep the
  mapping for the process lifetime, because decoded artifacts hold zero-copy
  views into it.  Worker death (crash, chaos kill, pool rebuild) just drops
  the mapping; the name is still owned by the parent.  Workers also never
  touch the ``resource_tracker``: multiprocessing children share the
  parent's tracker, whose per-name cache is a *set*, so attach-side
  registrations collapse into the parent's and exactly one unregister — the
  parent's ``unlink()`` — balances them.  (The tracker doubles as the leak
  backstop: a parent killed before unlinking leaves the name to the tracker,
  which removes it at exit.)
* Attaching a vanished or malformed segment returns ``None`` — never raises
  — and the caller falls back to the disk store or live capture.  This is
  also the seam the ``shm_lost`` chaos kind exercises: it unlinks the
  segment's name mid-shard and the campaign must not notice.
"""

from __future__ import annotations

import json
import secrets
from multiprocessing import shared_memory

__all__ = [
    "SEGMENT_MAGIC",
    "SegmentPublisher",
    "SegmentView",
    "attach",
    "build_segment",
    "detach_all",
    "unlink_segment",
]

#: Last byte is the segment-format version (mirrors the artifact codec).
SEGMENT_MAGIC = b"XENTSHM\x01"


def _layout(blobs: dict[str, bytes]) -> tuple[bytes, dict[str, list[int]], int]:
    """``(header, extents, size)`` of the segment image packing ``blobs``."""
    extents: dict[str, list[int]] = {}
    offset = 0
    for digest in sorted(blobs):
        offset += (-offset) % 8
        extents[digest] = [offset, len(blobs[digest])]
        offset += len(blobs[digest])
    toc = json.dumps(extents, sort_keys=True, separators=(",", ":")).encode()
    header = SEGMENT_MAGIC + len(toc).to_bytes(8, "little") + toc
    header += b"\x00" * ((-len(header)) % 8)
    return header, extents, len(header) + offset


def _fill(buf, blobs: dict[str, bytes], header: bytes,
          extents: dict[str, list[int]]) -> None:
    """Write the image laid out by :func:`_layout` into zeroed ``buf``."""
    buf[: len(header)] = header
    base = len(header)
    for digest, (offset, length) in extents.items():
        buf[base + offset : base + offset + length] = blobs[digest]


def build_segment(blobs: dict[str, bytes]) -> bytes:
    """Pack ``digest -> artifact bytes`` into one segment image.

    Layout: magic, u64 TOC length, JSON TOC (digest -> [offset, length]
    relative to the 8-aligned blob area), padding, blobs (each 8-aligned so
    int64 TwinPlan columns inside the artifacts stay mappable).
    :meth:`SegmentPublisher.prepare` writes the same image straight into the
    shared mapping.
    """
    header, extents, size = _layout(blobs)
    image = bytearray(size)
    _fill(image, blobs, header, extents)
    return bytes(image)


class SegmentView:
    """A parsed attachment: digest lookup over a mapped segment.

    Holds the :class:`SharedMemory` object alive for as long as any decoded
    artifact references its pages; attachments live until process exit.
    """

    def __init__(self, segment: shared_memory.SharedMemory) -> None:
        self.segment = segment
        view = memoryview(segment.buf)
        header = len(SEGMENT_MAGIC) + 8
        if len(view) < header or bytes(view[: len(SEGMENT_MAGIC)]) != SEGMENT_MAGIC:
            raise ValueError("bad segment magic")
        toc_len = int.from_bytes(view[len(SEGMENT_MAGIC) : header], "little")
        toc_end = header + toc_len
        if toc_end > len(view):
            raise ValueError("segment TOC extends past mapping")
        self.extents: dict[str, list[int]] = json.loads(bytes(view[header:toc_end]).decode())
        self._blob_area = view[toc_end + ((-toc_end) % 8) :]

    def get(self, digest: str) -> memoryview | None:
        """Zero-copy view of one artifact's bytes, or ``None`` if absent."""
        extent = self.extents.get(digest)
        if extent is None:
            return None
        offset, length = extent
        if offset + length > len(self._blob_area):
            return None
        return self._blob_area[offset : offset + length]


#: Process-local attachment registry: one mapping per segment name, shared by
#: every shard a worker executes against that segment.
_ATTACHED: dict[str, SegmentView] = {}


def attach(name: str) -> SegmentView | None:
    """Attach to a published segment by name; ``None`` when it is gone or
    unreadable (the caller falls back to disk / live capture)."""
    view = _ATTACHED.get(name)
    if view is not None:
        return view
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return None
    # Note: no resource_tracker bookkeeping here.  The attach above
    # re-registered the name, but registrations are a set in the shared
    # tracker — the parent's create already holds the entry, and its
    # unlink() sends the one balancing unregister.
    try:
        view = SegmentView(segment)
    except (ValueError, json.JSONDecodeError):
        # Malformed image: keep our hands off (parent still owns the name),
        # just decline to serve from it.
        segment.buf.release()
        segment.close()
        return None
    _ATTACHED[name] = view
    return view


def detach_all() -> None:
    """Drop every attachment (test hygiene for in-process attach users).

    Only safe when no decoded artifact still references the mappings.
    """
    for view in _ATTACHED.values():
        try:
            view._blob_area.release()
            view.segment.buf.release()
            view.segment.close()
        except BufferError:  # pragma: no cover - caller violated the contract
            pass
    _ATTACHED.clear()


def unlink_segment(name: str) -> bool:
    """Best-effort unlink of a segment *name* (chaos + teardown paths)."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    segment.close()
    try:
        # unlink() also sends the tracker's balancing unregister.
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - raced another unlink
        return False
    return True


class SegmentPublisher:
    """Parent-side segment lifecycle: one refcounted segment per shard.

    ``prepare`` builds a shard's segment from already-stored artifact bytes
    (a cold store yields no segment — nothing to share yet); ``finished``
    unlinks it once the shard reaches a *terminal* state — merged or
    quarantined; retried attempts and rebuilt pools re-attach the same name
    in between; ``close_all`` is the teardown backstop so no name outlives
    the engine, however it exits.
    """

    def __init__(self) -> None:
        self._segments: dict[int, shared_memory.SharedMemory] = {}
        self.stats = {"shm_segments": 0, "shm_bytes": 0}

    def prepare(self, shard_index: int, blobs: dict[str, bytes]) -> str | None:
        """Publish ``blobs`` for one shard; returns the segment name.

        Idempotent per shard (a retried attempt reuses the live segment).
        ``None`` when there is nothing to publish or shared memory is
        unavailable — the shard then runs against the disk store alone.
        """
        held = self._segments.get(shard_index)
        if held is not None:
            return held.name
        if not blobs:
            return None
        header, extents, size = _layout(blobs)
        for _ in range(8):
            name = f"xgold-{secrets.token_hex(6)}"
            try:
                segment = shared_memory.SharedMemory(
                    create=True, size=size, name=name
                )
                break
            except FileExistsError:  # pragma: no cover - 48-bit collision
                continue
            except OSError:
                return None
        else:  # pragma: no cover - eight collisions in a row
            return None
        # Written in place: a joined copy of the image would stay in this
        # process's heap after it is freed, and every pool forked later
        # inherits that heap.
        _fill(segment.buf, blobs, header, extents)
        self._segments[shard_index] = segment
        self.stats["shm_segments"] += 1
        self.stats["shm_bytes"] += size
        return segment.name

    def finished(self, shard_index: int) -> None:
        """Unlink a shard's segment (call at terminal shard states only)."""
        segment = self._segments.pop(shard_index, None)
        if segment is not None:
            self._release(segment)

    def close_all(self) -> None:
        """Unlink every live segment (engine teardown backstop)."""
        segments = list(self._segments.values())
        self._segments.clear()
        for segment in segments:
            self._release(segment)

    @staticmethod
    def _release(segment: shared_memory.SharedMemory) -> None:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            # A chaos shm_lost fault already removed the name — and its
            # unlink() sent the shared tracker's balancing unregister, so
            # there is nothing left to do here: the mapping died with
            # close(), the tracker entry with the worker's unlink.
            pass
