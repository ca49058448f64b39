"""COW checkpoints, dirty-page accounting, and resumable execution.

The copy-on-write checkpoint/restore path is the trial hot path of the
fault-injection campaign; an eager full copy of the live pages
(:func:`checkpoint_full`) is the differential oracle, and these tests hold
the two observationally identical over randomized write sequences, nested
checkpoint generations, and interleaved restores.
"""

import numpy as np
import pytest

from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.machine import (
    CPUCore,
    Memory,
    MemoryCheckpoint,
    PAGE_SIZE,
    Region,
    parse_asm,
)


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


ASM = """
start:
    mov rax, 0
    mov rcx, 10
loop:
    add rax, 3
    store [rbp+0], rax
    dec rcx
    jne loop
    halt
"""


class TestResumableCore:
    def make_core(self):
        mem = Memory()
        mem.map_region(Region("text", 0x1000, PAGE_SIZE, writable=False, executable=True))
        mem.map_region(Region("data", 0x10000, PAGE_SIZE))
        mem.map_region(Region("stack", 0x20000, PAGE_SIZE))
        program = parse_asm(ASM, base=0x1000)
        core = CPUCore(0, mem)
        core.regs["rbp"] = 0x10000
        core.regs["rsp"] = 0x20000 + PAGE_SIZE
        return core, program, mem

    def test_resume_in_slices_matches_uninterrupted_run(self):
        core, program, _ = self.make_core()
        reference = core.run(program, 0x1000)

        core2, program2, _ = self.make_core()
        core2.begin(0x1000)
        stop = 0
        result = None
        while result is None:
            stop += 5
            result = core2.resume(program2, stop_at=stop)
        assert result == reference

    def test_checkpoint_restore_replays_suffix_bit_identically(self):
        core, program, mem = self.make_core()
        core.begin(0x1000)
        assert core.resume(program, stop_at=12) is None
        snap_core = core.checkpoint_core()
        snap_mem = mem.checkpoint()
        reference = core.resume(program)

        # Diverge, then rewind to the mid-run boundary and replay.
        mem.write_u64(0x10000, 0xDEAD)
        core.restore_core(snap_core)
        mem.restore(snap_mem)
        assert core.resume(program) == reference

    def test_core_checkpoint_index_is_dynamic_count(self):
        core, program, _ = self.make_core()
        core.begin(0x1000)
        core.resume(program, stop_at=7)
        assert core.checkpoint_core().index == 7


class TestMachineCheckpointLadder:
    """XenHypervisor-level ladder capture and resume."""

    @pytest.fixture(scope="class")
    def hv(self) -> XenHypervisor:
        return XenHypervisor(seed=17)

    def act(self, seq=0) -> Activation:
        return Activation(
            vmer=REGISTRY.by_name("mmu_update").vmer, args=(8, 1),
            domain_id=1, seq=seq,
        )

    def test_ladder_run_is_bit_identical_to_execute(self, hv):
        hv.reset()
        plain = hv.execute(self.act())
        hv.reset()
        laddered, ladder = hv.execute_with_ladder(self.act(), interval=16)
        assert laddered == plain
        assert ladder, "expected at least the index-0 rung"
        indices = [rung.index for rung in ladder]
        assert indices == sorted(indices)
        assert indices[0] == 0
        assert all(idx % 16 == 0 for idx in indices)

    def test_resume_from_every_rung_reaches_same_result(self, hv):
        hv.reset()
        reference, ladder = hv.execute_with_ladder(self.act(), interval=32)
        for rung in ladder:
            hv.restore_machine(rung)
            resumed = hv.resume_execution(self.act())
            assert resumed == reference
