"""Content-addressed on-disk store for golden-group artifacts, in packs.

Every golden group of a campaign — the fault-free :class:`GoldenRun` with
its pre- and post-run checkpoints, plus the lock-step :class:`TwinPlan` lowered from its
recorded address stream — is a pure function of the digest-relevant subset
of :class:`~repro.faults.campaign.CampaignConfig`, the hypervisor image and
the ``(benchmark, group)`` coordinates.  :func:`golden_digest` fingerprints
exactly that, and the store files artifacts by digest inside *packs*::

    <root>/golden/<pack id>.pack

One pack holds what one shard attempt (or one serial run) captured: each
artifact is appended to a temp file in the same directory the moment it is
encoded, so nothing accumulates in memory.  The pack's layout::

    artifact blobs (each 8-aligned; each carries the codec's own checksum)
    JSON table   {"format": ..., "entries": [[digest, offset, length], ...]}
    u64          table length
    blake2b-16   of the table (also the pack id)
    PACK_MAGIC   8 bytes, the last one the pack-format version

:meth:`PackWriter.commit` writes that trailer, calls ``fsync`` once and
renames the pack into place, so a pack's data is durable before its name
appears; a writer that fails or is abandoned removes its temp file.  Readers
index packs by their trailers (:meth:`GoldenStore.scan`), newer packs
shadowing older ones for a digest both hold.  Nothing here raises on a bad
pack: a torn or unparsable trailer skips the pack (the runtime counts it as
``artifact_corrupt``), and a damaged blob fails the codec's checksum at
decode time — either way the campaign falls back to live capture, under the
standing contract that trial records are byte-identical with the cache cold,
warm, shared or disabled.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import secrets
from pathlib import Path

from repro.artifacts.codec import ArtifactCorrupt, decode_group
from repro.faults.campaign import CampaignConfig, benchmark_geometry

__all__ = ["GoldenStore", "PackWriter", "golden_digest", "image_identity"]

#: Version tag of the digest payload; bump when the artifact *identity*
#: changes (what a golden group depends on), independent of the binary
#: format version in :mod:`repro.artifacts.codec`.
DIGEST_FORMAT = "xentry-golden-v4"

#: Trailer magic; the last byte is the pack-format version.
PACK_MAGIC = b"XENTPAK\x01"
PACK_FORMAT = "xentry-pack-v1"
_SUFFIX = ".pack"
_TABLE_CHECKSUM_BYTES = 16
#: u64 table length + table checksum + magic.
_FOOTER_BYTES = 8 + _TABLE_CHECKSUM_BYTES + len(PACK_MAGIC)


@functools.cache
def image_identity(n_domains: int) -> str:
    """Fingerprint of the hypervisor image a campaign's goldens execute.

    The handler text (:meth:`Program.text_digest`) plus the post-boot
    memory image: a store that outlives an edit to handler code or boot
    data must go cold instead of serving goldens of the old image.  Built
    once per process per domain count; the image does not depend on the
    seed or the execution knobs.
    """
    from repro.hypervisor.xen import XenHypervisor

    hv = XenHypervisor(n_domains=n_domains)
    h = hashlib.blake2b(hv.program.text_digest().encode(), digest_size=16)
    for base, page in sorted(hv.checkpoint().pages.items()):
        h.update(base.to_bytes(8, "little"))
        h.update(page)
    return h.hexdigest()


def golden_digest(config: CampaignConfig, benchmark: str, group: int) -> str:
    """Content address of one golden group's artifact.

    The payload holds everything the golden products depend on — and nothing
    else, so detector/recovery/fault-model sweeps over the same workload
    share artifacts:

    * the hypervisor image (:func:`image_identity`);
    * the activation stream identity: seed, benchmark, mode, domain count,
      warmup length, and the *bulk draw geometry* (``stream_length`` and
      ``stride``) — the workload generator draws the whole activation-index
      array up front, so activation ``i`` depends on the total stream
      length, not just its prefix;
    * the group coordinate within that stream;
    * ``twin_batch`` (whether a :class:`TwinPlan` is captured);
    * the scenario payload when one is armed (workload overrides reshape
      the activation mix; the whole payload keys conservatively).

    ``fault_model``, ``recover`` and the detector are deliberately absent:
    they shape *trials*, never the fault-free golden products.
    """
    # Imported here, not at module scope: repro.engine.pool imports this
    # module, and importing the engine package from here would close that
    # loop for any artifacts-first import order.
    from repro.engine.planner import payload_digest

    geo = benchmark_geometry(config)
    payload: dict = {
        "format": DIGEST_FORMAT,
        "image": image_identity(config.n_domains),
        "seed": config.seed,
        "benchmark": benchmark,
        "group": group,
        "mode": config.mode.value,
        "n_domains": config.n_domains,
        "warmup_activations": config.warmup_activations,
        "stride": geo.stride,
        "stream_length": geo.n_goldens * geo.stride,
        "twin_batch": config.twin_batch,
    }
    if config.scenario is not None:
        payload["scenario"] = config.scenario.digest_payload()
    return payload_digest(payload)


class PackWriter:
    """One pack under construction: artifacts streamed to a temp file.

    :meth:`append` writes each artifact as it arrives (only the digest table
    stays in memory); :meth:`commit` seals the pack with one ``fsync``;
    :meth:`discard` removes the temp file.  Every method may raise
    ``OSError``; the caller decides what a failed write costs.
    """

    def __init__(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / f".{os.getpid()}-{secrets.token_hex(6)}.tmp"
        self._fh = open(self.path, "xb")
        self._entries: list[list] = []
        self._offset = 0
        #: Artifact bytes appended so far.
        self.nbytes = 0

    def append(self, digest: str, blob: bytes) -> None:
        """Write one artifact (8-aligned) to the pack."""
        pad = -self._offset % 8
        if pad:
            self._fh.write(b"\x00" * pad)
            self._offset += pad
        self._fh.write(blob)
        self._entries.append([digest, self._offset, len(blob)])
        self._offset += len(blob)
        self.nbytes += len(blob)

    def commit(self) -> Path:
        """Write the trailer, ``fsync`` once, rename into place.

        The pack id is the table checksum, so two attempts that captured the
        same artifacts in the same order commit the same file.
        """
        table = json.dumps(
            {"format": PACK_FORMAT, "entries": self._entries},
            separators=(",", ":"),
        ).encode()
        checksum = hashlib.blake2b(table, digest_size=_TABLE_CHECKSUM_BYTES).digest()
        self._fh.write(b"".join((
            table, len(table).to_bytes(8, "little"), checksum, PACK_MAGIC,
        )))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        final = self.path.with_name(checksum.hex() + _SUFFIX)
        os.replace(self.path, final)
        return final

    def discard(self) -> None:
        """Drop the pack: close and remove the temp file (never raises)."""
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            self.path.unlink()
        except OSError:
            pass


def read_pack_table(path: Path) -> list[tuple[str, int, int]] | None:
    """The ``(digest, offset, length)`` entries of a committed pack, or
    ``None`` when its trailer is torn or unparsable."""
    try:
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size < _FOOTER_BYTES:
                return None
            fh.seek(size - _FOOTER_BYTES)
            footer = fh.read(_FOOTER_BYTES)
            if footer[-len(PACK_MAGIC):] != PACK_MAGIC:
                return None
            table_len = int.from_bytes(footer[:8], "little")
            data_end = size - _FOOTER_BYTES - table_len
            if data_end < 0:
                return None
            fh.seek(data_end)
            table = fh.read(table_len)
        checksum = footer[8 : 8 + _TABLE_CHECKSUM_BYTES]
        if hashlib.blake2b(table, digest_size=_TABLE_CHECKSUM_BYTES).digest() != checksum:
            return None
        parsed = json.loads(table)
        if parsed.get("format") != PACK_FORMAT:
            return None
        entries = [(str(d), int(off), int(n)) for d, off, n in parsed["entries"]]
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return None
    if any(off < 0 or n < 0 or off + n > data_end for _, off, n in entries):
        return None
    return entries


class GoldenStore:
    """Filesystem half of the artifact cache (one directory of packs).

    Reads never raise on a bad artifact: :meth:`load_bytes` returns ``None``
    for a missing digest, :meth:`load` raises only :class:`ArtifactCorrupt`
    for present-but-invalid bytes (the runtime layer counts it and falls
    back to live capture).  The index is built once, at :meth:`scan` or the
    first lookup; packs committed afterwards are seen by the next store.
    """

    def __init__(self, root: str | Path) -> None:
        self.directory = Path(root) / "golden"
        self._index: dict[str, tuple[Path, int, int]] | None = None

    def packs(self) -> list[Path]:
        """Committed packs, oldest first (ties broken by name)."""
        try:
            with os.scandir(self.directory) as it:
                found = [
                    (e.stat().st_mtime_ns, e.name)
                    for e in it
                    if e.name.endswith(_SUFFIX) and e.is_file()
                ]
        except OSError:
            return []
        return [self.directory / name for _, name in sorted(found)]

    def scan(self) -> int:
        """Index every committed pack by its trailer; return how many packs
        were skipped as torn or unparsable.  A newer pack shadows older
        ones for every digest it holds."""
        index: dict[str, tuple[Path, int, int]] = {}
        torn = 0
        for path in self.packs():
            entries = read_pack_table(path)
            if entries is None:
                torn += 1
                continue
            for digest, offset, length in entries:
                index[digest] = (path, offset, length)
        self._index = index
        return torn

    def load_bytes(self, digest: str) -> bytes | None:
        """Raw artifact bytes, or ``None`` when absent/unreadable.

        One plain file read per artifact, in serial runs and pool workers
        alike.  No validation happens here — the codec's checksum check
        runs at decode time.
        """
        if self._index is None:
            self.scan()
        entry = self._index.get(digest)
        if entry is None:
            return None
        path, offset, length = entry
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                return fh.read(length)
        except OSError:
            return None

    def load(self, digest: str, *, registry):
        """Decode one artifact; ``None`` when absent, raises ArtifactCorrupt
        for present-but-invalid bytes."""
        blob = self.load_bytes(digest)
        if blob is None:
            return None
        payload = decode_group(blob, registry=registry)
        if payload.digest != digest:
            raise ArtifactCorrupt(
                f"artifact self-identifies as {payload.digest}, filed as {digest}"
            )
        return payload

    def begin_pack(self) -> PackWriter:
        """Open a new pack for one attempt's captures (raises ``OSError``)."""
        return PackWriter(self.directory)

    def sweep(self) -> int:
        """Remove temp packs whose writer process is gone; return how many.

        A worker killed mid-attempt (a hard crash) cannot discard its own
        temp file; the engine sweeps once its workers are gone.  Temp packs
        of live processes — a concurrent campaign's — are left alone.
        """
        try:
            with os.scandir(self.directory) as it:
                temps = [e.name for e in it if e.name.endswith(".tmp")]
        except OSError:
            return 0
        removed = 0
        for name in temps:
            try:
                pid = int(name[1:].split("-", 1)[0])
                os.kill(pid, 0)
                continue  # the writer still runs
            except ValueError:
                continue  # not a pack writer's name
            except ProcessLookupError:
                pass
            except OSError:
                continue  # alive under another user
            try:
                (self.directory / name).unlink()
                removed += 1
            except OSError:
                pass
        return removed
