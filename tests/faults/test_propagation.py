"""Golden-run comparison and consequence classification."""

import pytest

from repro.faults import (
    Divergence,
    FailureClass,
    UndetectedKind,
    capture_golden,
    classify_divergence,
    compute_divergence,
    undetected_kind_for,
)
from repro.faults.propagation import materialize_followups
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.hypervisor.layout import GLOBAL_OWNER, Slot, ValueKind
from tests.faults.eager import capture_golden_eager


def slot(name="s", owner=1, kind=ValueKind.APP_DATA) -> Slot:
    return Slot(name, 0x1000, 4, owner, kind)


def divergence(outputs=(), internals=(), path=False, features=False) -> Divergence:
    return Divergence(
        path_changed=path,
        features_changed=features,
        output_diffs=tuple(outputs),
        internal_diffs=tuple(internals),
    )


ACT = Activation(vmer=0, args=(1,), domain_id=1)


class TestClassification:
    def test_no_divergence_is_benign(self):
        assert classify_divergence(divergence(), ACT) is FailureClass.BENIGN

    def test_guest_app_data_low_bits_is_sdc(self):
        d = divergence(outputs=[(0x1000, slot(), ValueKind.APP_DATA, 5, 7)])
        assert classify_divergence(d, ACT) is FailureClass.APP_SDC

    def test_guest_app_data_high_bits_is_crash(self):
        d = divergence(
            outputs=[(0x1000, slot(), ValueKind.APP_DATA, 5, 5 | (1 << 40))]
        )
        assert classify_divergence(d, ACT) is FailureClass.APP_CRASH

    def test_pointer_kind_is_crash(self):
        d = divergence(outputs=[(0x1000, slot(kind=ValueKind.POINTER), ValueKind.POINTER, 1, 2)])
        assert classify_divergence(d, ACT) is FailureClass.APP_CRASH

    def test_time_kind_is_sdc(self):
        d = divergence(outputs=[(0x1000, slot(kind=ValueKind.TIME), ValueKind.TIME, 1, 2)])
        assert classify_divergence(d, ACT) is FailureClass.APP_SDC

    def test_vcpu_state_is_one_vm_failure(self):
        d = divergence(
            outputs=[(0x1000, slot(kind=ValueKind.VCPU_STATE), ValueKind.VCPU_STATE, 0, 1)]
        )
        assert classify_divergence(d, ACT) is FailureClass.ONE_VM_FAILURE

    def test_dom0_ownership_is_all_vm_failure(self):
        """Section II.A: corrupting the control VM affects the whole system."""
        d = divergence(outputs=[(0x1000, slot(owner=0), ValueKind.APP_DATA, 1, 2)])
        assert classify_divergence(d, ACT) is FailureClass.ALL_VM_FAILURE

    def test_global_control_is_all_vm_failure(self):
        d = divergence(
            internals=[(0x1000, slot(owner=GLOBAL_OWNER, kind=ValueKind.CONTROL))]
        )
        assert classify_divergence(d, ACT) is FailureClass.ALL_VM_FAILURE

    def test_most_severe_wins(self):
        d = divergence(
            outputs=[
                (0x1000, slot(), ValueKind.APP_DATA, 5, 7),
                (0x2000, slot(owner=0), ValueKind.APP_DATA, 1, 2),
            ]
        )
        assert classify_divergence(d, ACT) is FailureClass.ALL_VM_FAILURE

    def test_path_only_change_is_benign(self):
        """A detour that leaves no state behind is harmless to guests."""
        assert classify_divergence(divergence(path=True), ACT) is FailureClass.BENIGN


class TestUndetectedKinds:
    def test_feature_visible_miss_is_misclassify(self):
        d = divergence(path=True, features=True,
                       outputs=[(0x1000, slot(), ValueKind.APP_DATA, 1, 2)])
        assert undetected_kind_for(d, "rax") is UndetectedKind.MIS_CLASSIFY

    def test_pure_time_diff_is_time_values(self):
        d = divergence(outputs=[(0x1000, slot(kind=ValueKind.TIME), ValueKind.TIME, 1, 2)])
        assert undetected_kind_for(d, "rax") is UndetectedKind.TIME_VALUES

    def test_pointer_or_rsp_is_stack_values(self):
        d = divergence(
            internals=[(0x1000, slot(kind=ValueKind.POINTER))]
        )
        assert undetected_kind_for(d, "rax") is UndetectedKind.STACK_VALUES
        d2 = divergence(outputs=[(0x1000, slot(), ValueKind.APP_DATA, 1, 2)])
        assert undetected_kind_for(d2, "rsp") is UndetectedKind.STACK_VALUES

    def test_fallback_is_other(self):
        d = divergence(outputs=[(0x1000, slot(), ValueKind.APP_DATA, 1, 2)])
        assert undetected_kind_for(d, "rax") is UndetectedKind.OTHER_VALUES


class TestDivergenceComputation:
    @pytest.fixture(scope="class")
    def hv(self):
        return XenHypervisor(seed=31)

    def test_identical_rerun_has_no_divergence(self, hv):
        hv.reset()
        act = Activation(vmer=REGISTRY.by_name("set_timer_op").vmer, args=(9,), domain_id=1)
        golden = capture_golden(hv, act)
        hv.restore(golden.checkpoint)
        result = hv.execute(act)
        d = compute_divergence(hv, act, golden, result)
        assert not d.any

    def test_scratch_slots_do_not_count(self, hv):
        """Scratch/stat divergence must never classify as a failure."""
        hv.reset()
        act = Activation(vmer=REGISTRY.by_name("mmu_update").vmer, args=(8, 1), domain_id=1)
        golden = capture_golden(hv, act)
        hv.restore(golden.checkpoint)
        result = hv.execute(act)
        # Corrupt a scratch word post-hoc: still no reported divergence.
        hv.memory.write_u64(hv.layout.scratch.word_address(0), 0xDEAD)
        d = compute_divergence(hv, act, golden, result)
        assert not d.internal_diffs

    def test_golden_captures_followups(self, hv):
        hv.reset()
        act = Activation(vmer=REGISTRY.by_name("xen_version").vmer, args=(1,), domain_id=1)
        follows = (
            Activation(vmer=REGISTRY.by_name("set_timer_op").vmer, args=(2,), domain_id=1, seq=1),
            Activation(vmer=REGISTRY.by_name("do_irq").vmer, args=(3,), domain_id=2, seq=2),
        )
        start = hv.checkpoint()
        golden = capture_golden(hv, act)
        # Capture runs no follow-up; the first trial that needs them does.
        assert golden.followups is None
        hv.restore(start)
        eager = capture_golden_eager(hv, act, follows)
        hv.restore(start)
        hv.memory.write_u64(hv.layout.scratch.word_address(0), 0xBEEF)
        trial = hv.checkpoint()
        materialize_followups(hv, golden, follows)
        assert golden.followups == eager.followups
        assert len(golden.followups) == 2
        assert golden.followups[0].reason.name == "set_timer_op"
        # The trial's memory is put back.
        assert hv.checkpoint() == trial
