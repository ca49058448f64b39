"""Execute-everything trial paths: the oracle for golden reuse.

Production executes only what reads corrupted state
(:mod:`repro.faults.injector`): a follow-up whose golden twin read no word
the trial changed, with no flip pending, takes the golden result, and a
memory fault's activation is not executed when the golden activation never
reads the flipped word.  These are the bodies that executed everything,
kept as the differential oracle; :func:`executing_everything` swaps them in
where the trial paths look them up.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.errors import SimulationLimitExceeded
from repro.faults import injector
from repro.faults.outcomes import DetectionTechnique, FailureClass, TrialRecord
from repro.faults.propagation import capture_golden, materialize_followups
from repro.machine.exceptions import AssertionViolation, HardwareException, classify_exception


def run_followups_executing_all(
    hv, activation, fault, followups, golden, failure, activated, *,
    base_latency, detector, benchmark,
):
    """Execute every follow-up of the window on the trial's state."""
    if golden.followups is None:
        materialize_followups(hv, golden, followups)
    elapsed = base_latency
    diverged = False
    for follow, golden_follow in zip(followups, golden.followups):
        try:
            result = hv.execute(follow)
        except (HardwareException, AssertionViolation) as exc:
            is_assert = isinstance(exc, AssertionViolation)
            if not is_assert:
                verdict = classify_exception(exc)
                if not verdict.fatal:
                    return None, True  # benign trap; corruption persists
                detail = f"{exc.vector.name} in follow-up: {verdict.reason}"
                technique = DetectionTechnique.HW_EXCEPTION
            else:
                detail = f"assertion {exc.assertion_id} in follow-up"
                technique = DetectionTechnique.SW_ASSERTION
            return TrialRecord(
                benchmark=benchmark,
                vmer=activation.vmer,
                fault=fault,
                activated=activated,
                failure_class=failure,
                detected_by=technique,
                detection_latency=elapsed + hv.cpu.tracer.count,
                detail=detail,
            ), True
        except SimulationLimitExceeded:
            return TrialRecord(
                benchmark=benchmark,
                vmer=activation.vmer,
                fault=fault,
                activated=activated,
                failure_class=FailureClass.HYPERVISOR_HANG,
                detected_by=DetectionTechnique.HW_EXCEPTION,
                detection_latency=elapsed + hv.cpu.tracer.count,
                detail="watchdog NMI in follow-up execution",
            ), True
        elapsed += result.instructions
        if result.features != golden_follow.features:
            diverged = True
            if detector is not None and detector.flags_incorrect(result.features):
                return TrialRecord(
                    benchmark=benchmark,
                    vmer=activation.vmer,
                    fault=fault,
                    activated=activated,
                    failure_class=failure,
                    detected_by=DetectionTechnique.VM_TRANSITION,
                    detection_latency=elapsed,  # detected at this VM entry
                    detail="transition classifier flagged a follow-up execution",
                ), True
    return None, diverged


def run_memory_trial_executing(
    hv, activation, fault, *, detector=None, golden=None, benchmark="", followups=(),
):
    """Flip the word at the checkpoint and execute the activation."""
    if golden is None:
        golden = capture_golden(hv, activation)
    hv.restore(golden.checkpoint)
    hv.cpu.clear_injection()
    original = hv.memory.read_u64(fault.address)
    hv.memory.write_u64(fault.address, original ^ (1 << fault.bit))
    return injector._execute_and_classify(
        hv, activation, fault, golden,
        detector=detector, benchmark=benchmark, followups=followups,
    )


@contextmanager
def executing_everything(run_followups=run_followups_executing_all):
    """Run trials the way they ran before golden reuse."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(injector, "_run_followups", run_followups))
        stack.enter_context(
            mock.patch.object(injector, "run_memory_trial", run_memory_trial_executing)
        )
        yield
