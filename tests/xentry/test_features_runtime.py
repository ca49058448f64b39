"""Feature vectors and runtime detection."""

from repro.faults.outcomes import DetectionTechnique
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.machine import AssertionViolation, HardwareException, Vector
from repro.machine.exceptions import PageFaultKind
from repro.machine.perfcounters import CounterSample
from repro.xentry import FEATURE_NAMES, FeatureVector, RuntimeDetector


class TestFeatureVector:
    def test_table1_feature_order(self):
        assert FEATURE_NAMES == ("VMER", "RT", "BR", "RM", "WM")

    def test_from_sample(self):
        sample = CounterSample(instructions=10, branches=3, loads=2, stores=1)
        fv = FeatureVector.from_sample(7, sample)
        assert fv.as_tuple() == (7, 10, 3, 2, 1)

    def test_from_result_matches_activation(self):
        hv = XenHypervisor(seed=2)
        act = Activation(vmer=REGISTRY.by_name("xen_version").vmer, args=(1,), domain_id=1)
        result = hv.execute(act)
        fv = FeatureVector.from_result(result)
        assert fv.vmer == act.vmer
        assert fv.as_tuple() == result.features

    def test_str_is_readable(self):
        fv = FeatureVector(1, 2, 3, 4, 5)
        assert "VMER=1" in str(fv) and "WM=5" in str(fv)


class TestRuntimeDetector:
    def test_fatal_exception_is_detected(self):
        detector = RuntimeDetector()
        exc = HardwareException(Vector.INVALID_OPCODE, rip=0x100)
        event = detector.on_hardware_exception(exc, vmer=3, at_instruction=12)
        assert event is not None
        assert event.technique is DetectionTechnique.HW_EXCEPTION
        assert detector.detections == 1

    def test_benign_exception_is_filtered(self):
        """The Section III.A parsing step: minor page faults are legal."""
        detector = RuntimeDetector()
        exc = HardwareException(
            Vector.PAGE_FAULT, rip=0x100, address=0x2000, kind=PageFaultKind.MINOR
        )
        assert detector.on_hardware_exception(exc, vmer=1) is None
        assert detector.exceptions_benign == 1
        assert detector.detections == 0

    def test_guest_induced_gp_is_benign(self):
        detector = RuntimeDetector()
        exc = HardwareException(Vector.GENERAL_PROTECTION, rip=0x100)  # no address
        assert detector.on_hardware_exception(exc, vmer=1) is None

    def test_host_gp_with_address_is_fatal(self):
        detector = RuntimeDetector()
        exc = HardwareException(
            Vector.GENERAL_PROTECTION, rip=0x100, address=0x9000_0000_0000_0000
        )
        assert detector.on_hardware_exception(exc, vmer=1) is not None

    def test_assertion_is_always_detected(self):
        detector = RuntimeDetector()
        violation = AssertionViolation("vcpu_idle_invariant", rip=0x40, observed=2)
        event = detector.on_assertion_violation(violation, vmer=9, at_instruction=5)
        assert event.technique is DetectionTechnique.SW_ASSERTION
        assert "vcpu_idle_invariant" in event.detail
        assert detector.assertions_failed == 1

    def test_event_log_accumulates(self):
        detector = RuntimeDetector()
        detector.on_hardware_exception(
            HardwareException(Vector.DIVIDE_ERROR, rip=1), vmer=0
        )
        detector.on_assertion_violation(
            AssertionViolation("x", rip=2, observed=0), vmer=0
        )
        assert [e.technique for e in detector.events] == [
            DetectionTechnique.HW_EXCEPTION,
            DetectionTechnique.SW_ASSERTION,
        ]
