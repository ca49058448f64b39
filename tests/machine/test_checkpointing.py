"""COW checkpoints and dirty-page accounting.

The copy-on-write checkpoint/restore path is the trial hot path of the
fault-injection campaign; an eager full copy of the live pages
(:func:`checkpoint_full`) is the differential oracle, and these tests hold
the two observationally identical over randomized write sequences, nested
checkpoint generations, and interleaved restores.
"""

import numpy as np
import pytest

from repro.machine import Memory, MemoryCheckpoint, PAGE_SIZE, Region


def make_memory() -> Memory:
    mem = Memory()
    mem.map_region(Region("heap", 0x10000, 8 * PAGE_SIZE))
    mem.map_region(Region("stack", 0x40000, 4 * PAGE_SIZE))
    return mem


def checkpoint_full(mem: Memory) -> dict[int, bytes]:
    """Eagerly copy every materialized page: the oracle COW must match."""
    return {base: bytes(page) for base, page in mem._pages.items()}


def random_writes(mem: Memory, rng: np.random.Generator, n: int) -> None:
    """Apply ``n`` random word writes across both mapped regions."""
    for _ in range(n):
        if rng.integers(2):
            base, size = 0x10000, 8 * PAGE_SIZE
        else:
            base, size = 0x40000, 4 * PAGE_SIZE
        addr = base + int(rng.integers(0, size // 8)) * 8
        mem.write_u64(addr, int(rng.integers(0, 1 << 63)))


class TestCowEquivalence:
    """checkpoint()/restore() must match the eager full-copy oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_restore_matches_full_copy_oracle(self, seed):
        mem = make_memory()
        rng = np.random.default_rng(seed)
        random_writes(mem, rng, 40)

        cow = mem.checkpoint()
        oracle = checkpoint_full(mem)

        random_writes(mem, rng, 60)
        assert checkpoint_full(mem) != oracle  # the writes did something

        mem.restore(cow)
        assert checkpoint_full(mem) == oracle

    @pytest.mark.parametrize("seed", range(3))
    def test_nested_generations_restore_in_any_order(self, seed):
        """Checkpoints taken at different depths all restore correctly."""
        mem = make_memory()
        rng = np.random.default_rng(100 + seed)
        snaps: list[tuple[MemoryCheckpoint, dict[int, bytes]]] = []
        for _ in range(4):
            random_writes(mem, rng, 25)
            snaps.append((mem.checkpoint(), checkpoint_full(mem)))
        # Restore in a shuffled order, diverging in between each restore.
        for i in rng.permutation(len(snaps)):
            random_writes(mem, rng, 15)
            cow, oracle = snaps[i]
            mem.restore(cow)
            assert checkpoint_full(mem) == oracle

    def test_pages_materialized_after_checkpoint_are_dropped(self):
        mem = make_memory()
        snap = mem.checkpoint()
        mem.write_u64(0x40000, 7)  # materializes a fresh stack page
        assert 0x40000 in mem.touched_pages()
        mem.restore(snap)
        assert 0x40000 not in mem.touched_pages()
        assert mem.read_u64(0x40000) == 0  # zero-filled on demand again

    def test_checkpoint_equality_is_content_based(self):
        a = make_memory()
        b = make_memory()
        for mem in (a, b):
            mem.write_u64(0x10010, 99)
        assert a.checkpoint() == b.checkpoint()
        b.write_u64(0x10010, 100)
        assert a.checkpoint() != b.checkpoint()


class TestDirtyAccounting:
    def test_checkpoint_clears_dirty_set(self):
        mem = make_memory()
        mem.write_u64(0x10000, 1)
        assert mem.dirty_page_count == 1
        mem.checkpoint()
        assert mem.dirty_page_count == 0

    def test_writes_dirty_exactly_their_pages(self):
        mem = make_memory()
        mem.checkpoint()
        mem.write_u64(0x10000, 1)
        mem.write_u64(0x10008, 2)  # same page: still one dirty page
        assert mem.dirty_pages() == (0x10000,)
        mem.write_u64(0x10000 + PAGE_SIZE, 3)
        assert mem.dirty_pages() == (0x10000, 0x10000 + PAGE_SIZE)

    def test_reads_do_not_dirty_existing_pages(self):
        mem = make_memory()
        mem.write_u64(0x10000, 1)
        mem.checkpoint()
        mem.read_u64(0x10000)
        assert mem.dirty_page_count == 0

    def test_checkpoint_shares_clean_page_buffers(self):
        """Unchanged pages are the *same* bytes object across generations."""
        mem = make_memory()
        mem.write_u64(0x10000, 1)
        mem.write_u64(0x40000, 2)
        first = mem.checkpoint()
        mem.write_u64(0x40000, 3)  # dirty only the stack page
        second = mem.checkpoint()
        assert second.pages[0x10000] is first.pages[0x10000]
        assert second.pages[0x40000] is not first.pages[0x40000]

    def test_restore_cost_set_is_bounded_by_divergence(self):
        mem = make_memory()
        snap = mem.checkpoint()
        mem.write_u64(0x10000, 1)
        mem.restore(snap)
        # After the restore the live state is clean against the target.
        assert mem.dirty_page_count == 0
        assert checkpoint_full(mem) == {}

