"""Sparse, page-granular physical memory with protection.

The memory model gives fault injection its teeth: a bit flip in a pointer
register sends a load/store to an address that is (a) still mapped — silent
data corruption, (b) unmapped — #PF, or (c) non-canonical — #GP, which is
precisely the spectrum of behaviours the paper's runtime detection observes.

Pages are 4 KiB and materialized lazily inside mapped regions, so mapping a
multi-gigabyte region costs nothing until it is touched.

Checkpointing is copy-on-write: the memory tracks which pages were written
since the last checkpoint or restore, so :meth:`Memory.checkpoint` copies
only dirty pages (sharing clean-page buffers structurally with the previous
checkpoint) and :meth:`Memory.restore` rewrites only pages that changed since
the target checkpoint.  The trial loop of a fault-injection campaign — tens
of thousands of restore/execute pairs against a mostly-unchanging machine
image — is therefore O(dirty pages) per trial rather than O(all pages).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MemoryConfigError
from repro.machine.exceptions import HardwareException, PageFaultKind, Vector

try:  # vectorized word scan in diff_region; pure-Python fallback below
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

__all__ = [
    "PAGE_SIZE",
    "Region",
    "Memory",
    "MemoryCheckpoint",
    "is_canonical",
]

PAGE_SIZE = 4096
_PAGE_MASK = PAGE_SIZE - 1
_WORD_LIMIT = PAGE_SIZE - 8
_MASK64 = (1 << 64) - 1
_ZERO_PAGE = bytes(PAGE_SIZE)


def is_canonical(address: int) -> bool:
    """True when ``address`` is canonical (bits 63..47 all equal).

    x86-64 raises #GP on non-canonical accesses; flips in pointer high bits
    land here, giving the short-latency detection path of Fig. 2.
    """
    address &= _MASK64
    top = address >> 47
    return top == 0 or top == 0x1FFFF


@dataclass(frozen=True)
class Region:
    """A mapped address range with protection bits.

    ``name`` tags the region for diagnostics and outcome attribution (e.g.
    ``"hypervisor_text"``, ``"hypervisor_heap"``, ``"stack_cpu0"``).
    """

    name: str
    base: int
    size: int
    readable: bool = True
    writable: bool = True
    executable: bool = False

    def __post_init__(self) -> None:
        if self.base & _PAGE_MASK or self.size & _PAGE_MASK:
            raise MemoryConfigError(
                f"region {self.name!r} must be page aligned (base={self.base:#x}, size={self.size:#x})"
            )
        if self.size <= 0:
            raise MemoryConfigError(f"region {self.name!r} has non-positive size")
        if not is_canonical(self.base) or not is_canonical(self.base + self.size - 1):
            raise MemoryConfigError(f"region {self.name!r} spans non-canonical addresses")

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


@dataclass(frozen=True, eq=False)
class MemoryCheckpoint:
    """A copy-on-write memory snapshot.

    ``pages`` maps page base -> immutable page contents.  Buffers of pages
    that did not change between two checkpoints are *shared* (the same
    ``bytes`` object), which is what makes both capture and the restore-time
    diff O(pages touched) instead of O(pages mapped).

    Checkpoints are logically immutable values; equality compares page
    contents (two checkpoints of identical machine states are equal whatever
    their capture epochs).
    """

    pages: dict[int, bytes]
    #: Monotonic capture sequence number of the owning :class:`Memory`
    #: (diagnostics only; not part of the checkpoint's identity).
    epoch: int = field(default=0, compare=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryCheckpoint):
            return NotImplemented
        return self.pages == other.pages

    def __hash__(self) -> int:  # pragma: no cover - checkpoints aren't keys
        return id(self)


class Memory:
    """Sparse paged memory: 64-bit word access with protection checks.

    All word accesses are 8-byte; the toy ISA is a 64-bit word machine.
    Unaligned word access is tolerated (as on x86) but crossing into an
    unmapped page faults, matching hardware.
    """

    __slots__ = ("_regions", "_pages", "_writes", "_dirty", "_base", "_epoch",
                 "_region_cache")

    def __init__(self) -> None:
        self._regions: list[Region] = []
        self._pages: dict[int, bytearray] = {}
        #: Count of committed stores, exposed for sanity checks in tests.
        self._writes = 0
        #: Pages written or materialized since the last checkpoint/restore.
        #: Invariant: for every page base not in ``_dirty``, the live page
        #: set and contents agree exactly with ``_base``.
        self._dirty: set[int] = set()
        #: Page map of the most recent checkpoint (or restore target).
        self._base: dict[int, bytes] = {}
        self._epoch = 0
        #: Page base -> owning region, filled on first access (pages are
        #: region-aligned, so the mapping never changes once a region maps).
        self._region_cache: dict[int, Region] = {}

    # -- mapping ------------------------------------------------------------

    def map_region(self, region: Region) -> Region:
        """Map a region; overlapping an existing region is a config error."""
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise MemoryConfigError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        self._region_cache.clear()
        return region

    def region_at(self, address: int) -> Region | None:
        """Return the region containing ``address``, or None."""
        for region in self._regions:
            if region.contains(address):
                return region
        return None

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(self._regions)

    def region(self, name: str) -> Region:
        """Look up a mapped region by name."""
        for region in self._regions:
            if region.name == name:
                return region
        raise MemoryConfigError(f"no region named {name!r}")

    # -- access -------------------------------------------------------------

    def _check(self, address: int, rip: int, *, write: bool, execute: bool = False) -> Region:
        address &= _MASK64
        if not is_canonical(address):
            raise HardwareException(
                Vector.GENERAL_PROTECTION, rip, address=address,
                detail="non-canonical address",
            )
        region = self.region_at(address)
        if region is None:
            raise HardwareException(
                Vector.PAGE_FAULT, rip, address=address,
                kind=PageFaultKind.FATAL_UNMAPPED, detail="unmapped address",
            )
        if execute and not region.executable:
            raise HardwareException(
                Vector.PAGE_FAULT, rip, address=address,
                kind=PageFaultKind.FATAL_PROTECTION, detail=f"execute of {region.name}",
            )
        if write and not region.writable:
            raise HardwareException(
                Vector.PAGE_FAULT, rip, address=address,
                kind=PageFaultKind.FATAL_PROTECTION, detail=f"write to read-only {region.name}",
            )
        if not write and not execute and not region.readable:
            raise HardwareException(
                Vector.PAGE_FAULT, rip, address=address,
                kind=PageFaultKind.FATAL_PROTECTION, detail=f"read of {region.name}",
            )
        return region

    def _page(self, page_base: int) -> bytearray:
        page = self._pages.get(page_base)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_base] = page
            # Materialization changes the touched-page set, which restore
            # must be able to roll back, so it counts as dirtying.
            self._dirty.add(page_base)
        return page

    def read_u64(self, address: int, rip: int = 0) -> int:
        """Read a 64-bit little-endian word, enforcing mapping/protection."""
        address &= _MASK64
        off = address & _PAGE_MASK
        if off <= _WORD_LIMIT:
            page_base = address - off
            region = self._region_cache.get(page_base)
            if region is None:
                region = self._check(address, rip, write=False)
                self._region_cache[page_base] = region
            elif not region.readable:
                self._check(address, rip, write=False)  # raises with detail
            page = self._pages.get(page_base)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[page_base] = page
                self._dirty.add(page_base)
            return int.from_bytes(page[off:off + 8], "little")
        self._check(address, rip, write=False)
        self._check(address + 7, rip, write=False)  # word crosses a page
        return int.from_bytes(
            bytes(self._byte(address + i) for i in range(8)), "little"
        )

    def write_u64(self, address: int, value: int, rip: int = 0) -> None:
        """Write a 64-bit little-endian word, enforcing mapping/protection."""
        address &= _MASK64
        value &= _MASK64
        off = address & _PAGE_MASK
        if off <= _WORD_LIMIT:
            page_base = address - off
            region = self._region_cache.get(page_base)
            if region is None:
                region = self._check(address, rip, write=True)
                self._region_cache[page_base] = region
            elif not region.writable:
                self._check(address, rip, write=True)  # raises with detail
            page = self._pages.get(page_base)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[page_base] = page
            page[off:off + 8] = value.to_bytes(8, "little")
            self._dirty.add(page_base)
        else:
            self._check(address, rip, write=True)
            self._check(address + 7, rip, write=True)
            for i, b in enumerate(value.to_bytes(8, "little")):
                self._set_byte(address + i, b)
        self._writes += 1

    def check_execute(self, address: int, rip: int) -> Region:
        """Verify ``address`` may be fetched as an instruction."""
        return self._check(address, rip, write=False, execute=True)

    def _byte(self, address: int) -> int:
        page = self._page(address & ~_PAGE_MASK)
        return page[address & _PAGE_MASK]

    def _set_byte(self, address: int, value: int) -> None:
        page = self._page(address & ~_PAGE_MASK)
        page[address & _PAGE_MASK] = value
        self._dirty.add(address & ~_PAGE_MASK)

    # -- bulk setup access (DMA-style, not counted as CPU stores) --------------

    def write_block(self, address: int, data: bytes, *, rip: int = 0) -> None:
        """Write raw bytes starting at ``address`` (setup/DMA path).

        Protection is checked at both ends; the write does not count toward
        :attr:`store_count` because it models platform-level initialization,
        not CPU stores.
        """
        if not data:
            return
        self._check(address, rip, write=True)
        self._check(address + len(data) - 1, rip, write=True)
        offset = 0
        while offset < len(data):
            addr = address + offset
            page_base = addr & ~_PAGE_MASK
            page = self._page(page_base)
            page_off = addr & _PAGE_MASK
            chunk = min(len(data) - offset, PAGE_SIZE - page_off)
            page[page_off:page_off + chunk] = data[offset:offset + chunk]
            self._dirty.add(page_base)
            offset += chunk

    def read_block(self, address: int, length: int, *, rip: int = 0) -> bytes:
        """Read raw bytes (setup/diagnostic path)."""
        if length <= 0:
            return b""
        self._check(address, rip, write=False)
        self._check(address + length - 1, rip, write=False)
        out = bytearray(length)
        offset = 0
        while offset < length:
            addr = address + offset
            page = self._page(addr & ~_PAGE_MASK)
            page_off = addr & _PAGE_MASK
            chunk = min(length - offset, PAGE_SIZE - page_off)
            out[offset:offset + chunk] = page[page_off:page_off + chunk]
            offset += chunk
        return bytes(out)

    # -- checkpointing (golden/faulty run pairs) --------------------------------

    def checkpoint(self) -> MemoryCheckpoint:
        """Capture the current contents of all materialized pages (COW).

        Only pages dirtied since the previous checkpoint/restore are copied;
        clean pages share their buffers with the previous checkpoint.
        """
        dirty = self._dirty
        if dirty:
            base = dict(self._base)
            pages = self._pages
            for page_base in dirty:
                page = pages.get(page_base)
                if page is None:  # pragma: no cover - defensive; see restore()
                    base.pop(page_base, None)
                else:
                    base[page_base] = bytes(page)
            self._base = base
            dirty.clear()
        self._epoch += 1
        return MemoryCheckpoint(pages=self._base, epoch=self._epoch)

    def restore(self, snapshot: MemoryCheckpoint) -> None:
        """Restore page contents captured by :meth:`checkpoint`.

        Pages materialized after the checkpoint are dropped (they were zero
        then, and will be zero-filled again on demand).  Cost is proportional
        to the number of pages that changed since ``snapshot`` was captured —
        pages dirtied since the last sync point plus pages whose buffers
        differ between the two checkpoint generations (an identity check,
        thanks to structural sharing).
        """
        target = snapshot.pages
        dirty = self._dirty
        base = self._base
        if target is not base:
            get_base = base.get
            get_target = target.get
            for page_base in base.keys() | target.keys():
                if get_base(page_base) is not get_target(page_base):
                    dirty.add(page_base)
            self._base = target
        if dirty:
            pages = self._pages
            for page_base in dirty:
                source = target.get(page_base)
                if source is None:
                    pages.pop(page_base, None)
                else:
                    live = pages.get(page_base)
                    if live is None:
                        pages[page_base] = bytearray(source)
                    else:
                        live[:] = source
            dirty.clear()
        self._epoch += 1

    # -- diffing & stats (golden-run comparison) -----------------------------

    @property
    def store_count(self) -> int:
        """Total committed 64-bit stores since construction."""
        return self._writes

    @property
    def dirty_page_count(self) -> int:
        """Pages written or materialized since the last checkpoint/restore."""
        return len(self._dirty)

    def dirty_pages(self) -> tuple[int, ...]:
        """Bases of pages dirtied since the last checkpoint/restore (sorted)."""
        return tuple(sorted(self._dirty))

    def touched_pages(self) -> tuple[int, ...]:
        """Bases of all materialized pages (sorted)."""
        return tuple(sorted(self._pages))

    def snapshot_region(self, region: Region) -> bytes:
        """Copy the current contents of an entire region (zero-filled holes)."""
        out = bytearray(region.size)
        for page_base, page in self._pages.items():
            if region.base <= page_base < region.end:
                off = page_base - region.base
                out[off:off + PAGE_SIZE] = page
        return bytes(out)

    def diff_region(self, region: Region, baseline: bytes) -> list[int]:
        """Return addresses of 8-byte words in ``region`` differing from ``baseline``.

        Compares page by page — a single C-speed equality check skips
        identical pages — and word-scans only pages that actually differ,
        so the common no-divergence case costs one memcmp per page.
        """
        if len(baseline) != region.size:
            raise MemoryConfigError("baseline length does not match region size")
        view = memoryview(baseline)
        pages = self._pages
        diffs: list[int] = []
        for off in range(0, region.size, PAGE_SIZE):
            page = pages.get(region.base + off)
            chunk = view[off:off + PAGE_SIZE]
            if page is None:
                if chunk == _ZERO_PAGE:
                    continue
                page = _ZERO_PAGE
            elif page == chunk:
                continue
            if _np is not None:
                a = _np.frombuffer(page, dtype=_np.uint64)
                b = _np.frombuffer(chunk, dtype=_np.uint64)
                base = region.base + off
                diffs.extend(base + int(w) * 8 for w in _np.nonzero(a != b)[0])
            else:
                for word in range(0, PAGE_SIZE, 8):
                    if page[word:word + 8] != chunk[word:word + 8]:
                        diffs.append(region.base + off + word)
        return diffs
