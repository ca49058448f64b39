"""Outcome taxonomy semantics."""

from repro.faults.outcomes import (
    DetectionTechnique,
    FailureClass,
    FaultSpec,
    TrialRecord,
    UndetectedKind,
    most_severe,
)


class TestFailureClass:
    def test_long_latency_is_exactly_the_cross_vm_entry_classes(self):
        long = {c for c in FailureClass if c.is_long_latency}
        assert long == {
            FailureClass.ONE_VM_FAILURE,
            FailureClass.ALL_VM_FAILURE,
            FailureClass.APP_CRASH,
            FailureClass.APP_SDC,
        }

    def test_benign_is_not_manifested(self):
        assert not FailureClass.BENIGN.is_manifested
        assert FailureClass.APP_SDC.is_manifested
        assert FailureClass.HYPERVISOR_CRASH.is_manifested

    def test_host_side_failures_are_short_latency(self):
        assert not FailureClass.HYPERVISOR_CRASH.is_long_latency
        assert not FailureClass.HYPERVISOR_HANG.is_long_latency

    def test_most_severe_ordering(self):
        assert most_severe([FailureClass.APP_SDC, FailureClass.ALL_VM_FAILURE]) is FailureClass.ALL_VM_FAILURE
        assert most_severe([FailureClass.APP_SDC, FailureClass.APP_CRASH]) is FailureClass.APP_CRASH
        assert most_severe([FailureClass.ONE_VM_FAILURE, FailureClass.APP_CRASH]) is FailureClass.ONE_VM_FAILURE
        assert most_severe([]) is FailureClass.BENIGN


class TestTrialRecord:
    def make(self, **kw) -> TrialRecord:
        base = dict(
            benchmark="mcf",
            vmer=3,
            fault=FaultSpec("rax", 5, 10),
            activated=True,
            failure_class=FailureClass.APP_SDC,
            detected_by=DetectionTechnique.VM_TRANSITION,
            detection_latency=42,
        )
        base.update(kw)
        return TrialRecord(**base)

    def test_detected_property(self):
        assert self.make().detected
        assert not self.make(detected_by=DetectionTechnique.UNDETECTED,
                             detection_latency=None).detected

    def test_long_latency_follows_failure_class(self):
        assert self.make().long_latency
        assert not self.make(failure_class=FailureClass.HYPERVISOR_CRASH).long_latency

    def test_manifested_follows_failure_class(self):
        assert not self.make(failure_class=FailureClass.BENIGN).manifested

    def test_undetected_kind_enum_matches_table2(self):
        assert {k.value for k in UndetectedKind} == {
            "mis_classify", "stack_values", "time_values", "other_values",
        }
