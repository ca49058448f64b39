"""The working recovery implementation (Section VI, executed for real)."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.hypervisor.layout import Slot, ValueKind
from repro.ml import CORRECT, Dataset, DecisionTreeClassifier
from repro.xentry import VMTransitionDetector, Xentry
from repro.xentry.recovery_exec import CriticalCopy, RecoveryManager, merge_extents


def permissive_detector() -> VMTransitionDetector:
    ds = Dataset.from_samples([(i, 10 * i, i, i, i) for i in range(8)], [CORRECT] * 8)
    return VMTransitionDetector.from_classifier(DecisionTreeClassifier().fit(ds))


@pytest.fixture()
def manager() -> RecoveryManager:
    hv = XenHypervisor(seed=33)
    return RecoveryManager(Xentry(hv, transition_detector=permissive_detector()))


def act(name: str, *args: int, seq=0, domain=1) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args,
                      domain_id=domain, seq=seq)


class TestCleanPath:
    def test_clean_activation_needs_no_recovery(self, manager):
        outcome = manager.protect(act("xen_version", 1))
        assert not outcome.detected and not outcome.recovered
        assert outcome.result is not None
        assert manager.recoveries == 0

    def test_snapshot_roundtrip_is_identity(self, manager):
        hv = manager.xentry.hv
        snapshot = manager.snapshot_critical()
        before = hv.memory.checkpoint()
        manager.restore_critical(snapshot)
        assert hv.memory.checkpoint() == before


@functools.lru_cache(maxsize=1)
def aged_machine() -> XenHypervisor:
    hv = XenHypervisor(seed=33)
    for seq, name in enumerate(("xen_version", "event_channel_op", "sched_op")):
        hv.execute(act(name, 3, 1, seq=seq))
    return hv


def slot(address: int, words: int) -> Slot:
    return Slot(f"s{address:#x}", address, words, -1, ValueKind.CONTROL)


class TestCriticalCopy:
    """One block per merged slot extent, equal to the word-by-word copy."""

    def test_adjacent_and_overlapping_slots_merge(self):
        slots = [slot(0x100, 2), slot(0x110, 1), slot(0x200, 4), slot(0x208, 1),
                 slot(0x300, 1)]
        assert merge_extents(reversed(slots)) == ((0x100, 24), (0x200, 32), (0x300, 8))

    def test_layout_is_covered_word_for_word(self):
        slots = aged_machine().layout.all_slots.values()
        covered = {
            address + offset
            for address, size in merge_extents(slots)
            for offset in range(0, size, 8)
        }
        assert covered == {s.word_address(w) for s in slots for w in range(s.words)}

    @given(st.lists(st.tuples(st.integers(0, 2047), st.integers(0, 2**64 - 1)),
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_block_restore_equals_wordwise_restore(self, corruption):
        """Words anywhere in the 16 KiB heap — inside the 805 slot words and
        past them — are corrupted; both restores must leave equal pages."""
        hv = aged_machine()
        memory = hv.memory
        slots = tuple(hv.layout.all_slots.values())
        copy = CriticalCopy(memory, slots)
        pristine = memory.checkpoint()
        block = copy.snapshot()
        words = {
            s.word_address(w): memory.read_u64(s.word_address(w))
            for s in slots for w in range(s.words)
        }

        def corrupt() -> None:
            for word, value in corruption:
                memory.write_u64(hv.memory_map.heap_base + 8 * word, value)

        try:
            corrupt()
            copy.restore(block)
            by_block = memory.checkpoint()
            memory.restore(pristine)
            corrupt()
            for address, value in words.items():
                memory.write_u64(address, value)
            by_word = memory.checkpoint()
        finally:
            memory.restore(pristine)
        assert by_block == by_word


class TestRecoveryFromRealFaults:
    def test_hw_exception_recovers_to_fault_free_result(self, manager):
        """A transient pointer corruption dies with a page fault; recovery
        restores the critical copy and re-executes to the golden outcome."""
        hv = manager.xentry.hv
        activation = act("event_channel_op", 9, 0, domain=2)
        # Golden reference.
        golden = hv.execute(activation)
        golden_outputs = hv.read_outputs(activation)
        hv.reset()
        # Same activation, with a fault that kills the first attempt.
        hv.cpu.schedule_flips(4, (("r12", 43),))
        outcome = manager.protect(activation)
        assert outcome.detected and outcome.recovered
        assert outcome.result is not None
        assert outcome.result.path_hash == golden.path_hash
        assert hv.read_outputs(activation) == golden_outputs
        assert hv.domain(2).is_port_pending(9)

    def test_assertion_detection_recovers(self, manager):
        hv = manager.xentry.hv
        hv.reset()
        activation = act("do_irq", 7)
        hv.cpu.schedule_flips(1, (("rdi", 44),))  # vector out of range
        outcome = manager.protect(activation)
        assert outcome.recovered
        assert "recovered after" in outcome.detail
        # The guest sees the *correct* trap number after recovery.
        assert hv.vcpu(1).trapno == 7

    def test_corrupted_state_rolled_back_before_reexecution(self, manager):
        """If the faulty attempt scribbled on critical structures before
        dying, the restore wipes the scribbles (state equals a clean run)."""
        hv = manager.xentry.hv
        hv.reset()
        activation = act("grant_table_op", 16, 3)
        clean = hv.execute(activation)
        clean_critical = manager.snapshot_critical()
        hv.reset()
        # Fault late in the handler so partial writes have happened.
        hv.cpu.schedule_flips(clean.instructions // 2, (("rbp", 41),))
        outcome = manager.protect(activation)
        assert outcome.recovered
        # Every critical (non-scratch) word matches the clean execution.
        assert manager.snapshot_critical() == clean_critical


class TestFalsePositiveRecovery:
    def test_false_positive_converges_to_original_result(self):
        """Section VI's worry: a false positive triggers needless recovery.
        Re-execution is deterministic, so the guest-visible outcome is
        unchanged — only time is lost."""
        hv = XenHypervisor(seed=34)
        # A detector that flags *everything*: worst-case false positives.
        ds = Dataset.from_samples(
            [(i, 10 * i, i, i, i) for i in range(8)], [1] * 8
        )
        paranoid = VMTransitionDetector.from_classifier(DecisionTreeClassifier().fit(ds))
        manager = RecoveryManager(Xentry(hv, transition_detector=paranoid))
        activation = act("set_timer_op", 500)
        golden = hv.execute(activation)
        golden_outputs = hv.read_outputs(activation)
        hv.reset()
        outcome = manager.protect(activation)
        assert outcome.detected and outcome.recovered  # the FP fired
        assert outcome.result.path_hash == golden.path_hash
        assert hv.read_outputs(activation) == golden_outputs

    def test_statistics_accumulate(self):
        hv = XenHypervisor(seed=35)
        manager = RecoveryManager(Xentry(hv, transition_detector=permissive_detector()))
        for i in range(5):
            manager.protect(act("xen_version", 1, seq=i))
        assert manager.exits_protected == 5
        assert manager.recoveries == 0 and manager.unrecoverable == 0


class TestPersistentFaultUnrecoverable:
    """Regression: a fault that re-arms on every execution (a *permanent*
    error, not a soft one) used to leave the machine in whatever state the
    last failed re-execution corrupted.  Every attempt must be counted, no
    exception may leak, and the manager must hand back a sane machine."""

    def test_persistent_fault_surfaces_unrecoverable(self, manager):
        hv = manager.xentry.hv
        manager.max_reexecutions = 3
        activation = act("event_channel_op", 9, 0, domain=2)
        pristine = manager.snapshot_critical()
        original_execute = hv.execute

        def rearming_execute(activation_, **kwargs):
            # The persistent-fault model: the same bit flips again on every
            # execution, defeating clear_injection between attempts.
            hv.cpu.schedule_flips(4, (("r12", 43),))
            return original_execute(activation_, **kwargs)

        hv.execute = rearming_execute
        try:
            outcome = manager.protect(activation)
        finally:
            hv.execute = original_execute

        assert outcome.detected and not outcome.recovered
        assert outcome.result is None
        assert outcome.attempts == 3
        assert "re-execution failed" in outcome.detail
        assert manager.unrecoverable == 1 and manager.recoveries == 0
        # The machine came back sane: critical state restored, nothing armed.
        assert manager.snapshot_critical() == pristine
        follow_on = manager.protect(act("xen_version", 1, seq=1))
        assert not follow_on.detected and follow_on.result is not None

    def test_recovered_outcome_counts_its_attempts(self, manager):
        hv = manager.xentry.hv
        hv.reset()
        hv.cpu.schedule_flips(4, (("r12", 43),))
        outcome = manager.protect(act("event_channel_op", 9, 0, domain=2))
        assert outcome.recovered and outcome.attempts == 1
