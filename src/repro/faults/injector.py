"""Single-trial fault injection.

One *trial* executes the same activation twice from identical machine state —
fault-free, then with a scheduled single-bit register flip — and reduces the
pair to a :class:`~repro.faults.outcomes.TrialRecord`:

* a hardware exception or failed software assertion during the faulty run is
  a **runtime detection** (short detection latency, Fig. 10);
* a faulty run that reaches VM entry is shown to the optional **transition
  detector** (anything with a ``flags_incorrect(features)`` predicate, e.g.
  compiled tree rules);
* divergence against the golden run yields the ground-truth consequence
  (Fig. 9) and, for missed faults, the Table II attribution.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import SimulationLimitExceeded
from repro.faults.outcomes import (
    BurstFaultSpec,
    DetectionTechnique,
    FailureClass,
    FaultSpec,
    MemoryFaultSpec,
    MultiBitFaultSpec,
    TrialRecord,
    UndetectedKind,
)
from repro.faults.propagation import (
    GoldenRun,
    capture_golden,
    classify_divergence,
    compute_divergence,
    materialize_followups,
    undetected_kind_for,
)
from repro.hypervisor.xen import Activation, XenHypervisor
from repro.machine import lockstep
from repro.machine.exceptions import AssertionViolation, HardwareException, classify_exception
from repro.machine.isa import Program
from repro.metrics import COUNTERS

__all__ = [
    "TransitionDetector",
    "run_trial",
    "run_burst_trial",
    "run_memory_trial",
    "run_spec_trial",
    "run_twin_batch",
    "trace_plan",
]

class TransitionDetector(Protocol):
    """Anything usable as the VM-transition classifier in a trial."""

    def flags_incorrect(self, features: tuple[int, ...]) -> bool: ...


def run_trial(
    hv: XenHypervisor,
    activation: Activation,
    fault: FaultSpec | MultiBitFaultSpec,
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
    read_point: int | None = None,
) -> TrialRecord:
    """Execute one golden/faulty pair and classify the outcome.

    ``golden`` may be supplied to amortize the fault-free run across several
    injections into the same activation; it must have been captured from the
    current machine state (its follow-ups, once materialized, from the same
    ``followups``).

    ``followups`` continues the simulation past the injected activation, the
    way the paper's Simics campaign does: corrupted state that survived the
    first VM entry is detected when a later hypervisor execution consumes it
    (a fatal exception, a failed assertion, or a transition-feature anomaly),
    with the detection latency accumulating across activations.

    ``read_point`` (from the lock-step batch scan) asserts that the golden
    run neither reads nor writes the flipped register between the injection
    index and that dynamic index: the resume may then fast-forward to the
    ladder rung at-or-before the *read point* and re-apply the flip to the
    restored golden register value — bit-identical to flipping at the
    injection index, but skipping the shared prefix.
    """
    if golden is None:
        golden = capture_golden(hv, activation)
    # Fast-forward: resume from the latest ladder rung at-or-before the
    # injection index (or the scan-proven read point) instead of re-executing
    # the golden prefix.  The flip cannot fire before the rung
    # (rung.index <= dynamic_index) and the prefix is deterministic, so the
    # faulty run is bit-identical either way.
    rung = _start_from_ladder(
        hv, golden, fault.dynamic_index if read_point is None else read_point
    )
    multibit = isinstance(fault, MultiBitFaultSpec)
    if rung is not None and rung.index > fault.dynamic_index:
        # Past the injection index: the register still holds its golden
        # value here (the scan proved no access), so flip it now.
        COUNTERS.read_point_skipped.inc(rung.index - fault.dynamic_index)
        if multibit:
            hv.cpu.arm_applied_flip_set(
                fault.dynamic_index,
                tuple((fault.register, b) for b in fault.bits),
                known_activation=read_point,
            )
        else:
            hv.cpu.arm_applied_flip(
                fault.dynamic_index, fault.register, fault.bit,
                known_activation=read_point,
            )
    else:
        # ``read_point`` doubles as the analytically proven activation
        # index (the golden trace's first post-flip access is a read
        # there), letting the core skip the activation watch and keep the
        # whole window on the translated path.
        if multibit:
            hv.cpu.schedule_flip_set(
                fault.dynamic_index,
                tuple((fault.register, b) for b in fault.bits),
                known_activation=read_point,
            )
        else:
            hv.cpu.schedule_register_flip(
                fault.dynamic_index, fault.register, fault.bit,
                known_activation=read_point,
            )

    def _activation_index() -> int:
        report = hv.cpu.injection_report
        if report is not None and report.activation_index is not None:
            return report.activation_index
        return fault.dynamic_index

    def _activated() -> bool:
        report = hv.cpu.injection_report
        return bool(report is not None and report.applied and report.activated)

    return _execute_and_classify(
        hv, activation, fault, golden,
        detector=detector, benchmark=benchmark, followups=followups,
        activation_index=_activation_index, activated=_activated,
        resume=rung is not None,
    )


def _start_from_ladder(hv: XenHypervisor, golden: GoldenRun, target: int):
    """Restore the latest ladder rung at-or-before ``target`` — or, without
    one, the pre-activation checkpoint — count how the trial started, and
    return the rung (``None`` for the checkpoint)."""
    rung = None
    for candidate in golden.ladder:  # ascending by index
        if candidate.index > target:
            break
        rung = candidate
    if rung is None:
        hv.restore(golden.checkpoint)
        COUNTERS.trials_replayed.inc()
    else:
        hv.restore_machine(rung)
        COUNTERS.trials_resumed.inc()
        COUNTERS.skipped_by_rung.inc(rung.index)
    return rung


def trace_plan(program: Program, golden: GoldenRun) -> lockstep.TwinPlan:
    """Lower the golden run's recorded address stream into a
    :class:`~repro.machine.lockstep.TwinPlan`.

    The stream is the one :func:`capture_golden` recorded while the golden
    activation executed, so nothing is restored or re-executed here.  Public
    because the campaign calls it right after capture, to publish the plan
    with the golden products; a warm run hands the cached plan straight to
    :func:`run_twin_batch`.
    """
    if len(golden.trace) != golden.result.instructions:
        raise ValueError(
            f"golden trace holds {len(golden.trace)} addresses for "
            f"{golden.result.instructions} instructions (captured without recording?)"
        )
    return lockstep.build_plan(program, golden.trace)


def _classify_spec_twin(plan, fault):
    """Classify one twin for the lock-step batch, by fault class.

    Register and multi-bit faults use the position-column scan directly
    (one register, one injection index — multi-bit only widens the flipped
    mask, not the access pattern that decides liveness).  A burst is DEAD
    only if *every* flipped register is individually dead: until a faulty
    value is read, the faulty twin follows the golden control flow, so the
    per-register proofs compose.  A live burst peels with no read point —
    the single-register no-access proof does not cover its other flips.
    Memory faults always peel conservatively: the scan only tracks register
    liveness.
    """
    if isinstance(fault, MemoryFaultSpec):
        return (lockstep.PEEL, None)
    if isinstance(fault, BurstFaultSpec):
        for register, _bit in fault.flips:
            kind, _ = lockstep.classify_twin(plan, register, fault.dynamic_index)
            if kind != lockstep.DEAD:
                return (lockstep.PEEL, None)
        return (lockstep.DEAD, None)
    return lockstep.classify_twin(plan, fault.register, fault.dynamic_index)


def run_twin_batch(
    hv: XenHypervisor,
    activation: Activation,
    faults,
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
    on_record=None,
    recover=None,
    plan: lockstep.TwinPlan | None = None,
) -> list[TrialRecord]:
    """Execute every faulty twin of one golden group as a lock-step batch.

    Classifies each twin against the shared golden position columns
    (:mod:`repro.machine.lockstep`): *dead* twins — flip overwritten
    before the next read, or never touched again — synthesize their
    non-activated record without executing; diverging twins peel into
    :func:`run_trial`, fast-forwarded to their first-read point.  Record
    order matches the ``faults`` order, and every record is bit-identical
    to what per-trial execution would produce.

    ``recover`` is the campaign's recovery hook — called as
    ``recover(record, index)`` immediately after each trial settles (while
    the machine still holds that trial's post-faulty state) and may return
    a replacement record carrying the recovery outcome.  Dead twins were
    never detected, so the hook is a no-op for them, and every recovery
    attempt restores machine state itself — the following twin's trial is
    unperturbed either way.

    ``plan`` is the group's :class:`~repro.machine.lockstep.TwinPlan` when
    the caller already holds it (from the artifact cache, or lowered for
    publication); left at ``None``, the batch lowers ``golden.trace``
    itself (:func:`trace_plan`).
    """
    if golden is None:
        golden = capture_golden(hv, activation)
    faults = list(faults)
    if plan is None and faults:
        plan = trace_plan(hv.program, golden)
    COUNTERS.twin_batches.inc()
    COUNTERS.twins.inc(len(faults))
    records: list[TrialRecord] = []
    for index, fault in enumerate(faults):
        kind, read_point = _classify_spec_twin(plan, fault)
        if kind == lockstep.DEAD:
            # The whole faulty run is provably golden: account it as a
            # full-length fast-forward.
            COUNTERS.dead_twins.inc()
            COUNTERS.trials_synthesized.inc()
            COUNTERS.skipped_by_dead_twin.inc(golden.result.instructions)
            record = TrialRecord(
                benchmark=benchmark,
                vmer=activation.vmer,
                fault=fault,
                activated=False,
                failure_class=FailureClass.BENIGN,
                detected_by=DetectionTechnique.UNDETECTED,
                detection_latency=None,
                detail="non-activated",
            )
        else:
            COUNTERS.peeled_twins.inc()
            record = run_spec_trial(
                hv,
                activation,
                fault,
                detector=detector,
                golden=golden,
                benchmark=benchmark,
                followups=followups,
                read_point=read_point,
            )
        if recover is not None:
            record = recover(record, index)
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


def run_memory_trial(
    hv: XenHypervisor,
    activation: Activation,
    fault: "MemoryFaultSpec",
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
) -> TrialRecord:
    """Inject a single bit flip into hypervisor *memory* before an activation.

    Extension beyond the paper's register-only model: the paper scopes to CPU
    faults because "combinational logic circuits in CPU are usually not
    protected by ECC", noting that memory errors beyond ECC's correction
    capability still occur.  This models exactly that residual class — an
    uncorrected flip in a hypervisor structure, present when the activation
    begins.

    A memory fault is present from instruction 0 and has no register to
    watch; it counts as activated when the execution observably diverges.
    """
    if golden is None:
        golden = capture_golden(hv, activation)
    # Memory faults are present from instruction 0, so there is no prefix to
    # skip: always replay from the pre-run checkpoint.
    hv.restore(golden.checkpoint)
    COUNTERS.trials_replayed.inc()
    hv.cpu.clear_injection()
    original = hv.memory.read_u64(fault.address)
    hv.memory.write_u64(fault.address, original ^ (1 << fault.bit))

    return _execute_and_classify(
        hv, activation, fault, golden,
        detector=detector, benchmark=benchmark, followups=followups,
        activation_index=lambda: 0,
        activated=None,  # inferred from divergence
    )


def run_burst_trial(
    hv: XenHypervisor,
    activation: Activation,
    fault: BurstFaultSpec,
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
) -> TrialRecord:
    """Inject a time-correlated fault storm: every flip of the burst strikes
    atomically at one dynamic instruction.

    A burst spans registers, so there is no single register to watch —
    activation is inferred from divergence, exactly like memory faults.
    The ladder fast-forward to the rung at-or-before the storm index is
    still sound: the shared prefix is fault-free either way.
    """
    if golden is None:
        golden = capture_golden(hv, activation)
    rung = _start_from_ladder(hv, golden, fault.dynamic_index)
    hv.cpu.schedule_flip_set(fault.dynamic_index, fault.flips)

    return _execute_and_classify(
        hv, activation, fault, golden,
        detector=detector, benchmark=benchmark, followups=followups,
        activation_index=lambda: fault.dynamic_index,
        activated=None,  # inferred from divergence
        resume=rung is not None,
    )


def run_spec_trial(
    hv: XenHypervisor,
    activation: Activation,
    fault,
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
    read_point: int | None = None,
) -> TrialRecord:
    """Dispatch one trial on the fault spec's class.

    The generic entry point the campaign and twin-batch paths use: register
    and multi-bit faults run through :func:`run_trial` (honoring the
    lock-step ``read_point``), bursts through :func:`run_burst_trial`, and
    memory faults through :func:`run_memory_trial` (both ignore
    ``read_point`` — neither has a per-register no-access proof).
    """
    if isinstance(fault, MemoryFaultSpec):
        return run_memory_trial(
            hv, activation, fault,
            detector=detector, golden=golden,
            benchmark=benchmark, followups=followups,
        )
    if isinstance(fault, BurstFaultSpec):
        return run_burst_trial(
            hv, activation, fault,
            detector=detector, golden=golden,
            benchmark=benchmark, followups=followups,
        )
    return run_trial(
        hv, activation, fault,
        detector=detector, golden=golden,
        benchmark=benchmark, followups=followups,
        read_point=read_point,
    )


def _execute_and_classify(
    hv: XenHypervisor,
    activation: Activation,
    fault,
    golden: GoldenRun,
    *,
    detector: TransitionDetector | None,
    benchmark: str,
    followups: tuple[Activation, ...],
    activation_index,
    activated,
    resume: bool = False,
) -> TrialRecord:
    """Run the prepared faulty activation and classify (shared trial core).

    With ``resume=True`` the machine already sits at a restored mid-run
    checkpoint, so only the activation's suffix executes.
    """
    _activation_index = activation_index
    try:
        faulty = hv.resume_execution(activation) if resume else hv.execute(activation)
    except HardwareException as exc:
        verdict = classify_exception(exc)
        latency = max(0, hv.cpu.tracer.count - _activation_index())
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=True,
            failure_class=FailureClass.HYPERVISOR_CRASH,
            detected_by=(
                DetectionTechnique.HW_EXCEPTION
                if verdict.fatal
                else DetectionTechnique.UNDETECTED
            ),
            detection_latency=latency if verdict.fatal else None,
            undetected_kind=None if verdict.fatal else UndetectedKind.OTHER_VALUES,
            detail=f"{exc.vector.name}: {verdict.reason}",
        )
    except AssertionViolation as exc:
        latency = max(0, hv.cpu.tracer.count - _activation_index())
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=True,
            failure_class=FailureClass.HYPERVISOR_CRASH,
            detected_by=DetectionTechnique.SW_ASSERTION,
            detection_latency=latency,
            detail=f"assertion {exc.assertion_id}",
        )
    except SimulationLimitExceeded:
        # A stuck host-mode execution trips the platform's NMI watchdog —
        # delivered as a hardware exception, hence a runtime detection.
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=True,
            failure_class=FailureClass.HYPERVISOR_HANG,
            detected_by=DetectionTechnique.HW_EXCEPTION,
            detection_latency=max(0, hv.cpu.tracer.count - _activation_index()),
            detail="watchdog NMI (instruction budget exhausted)",
        )

    # The faulty run reached VM entry.
    divergence = compute_divergence(hv, activation, golden, faulty)
    was_activated = activated() if activated is not None else divergence.any
    if not was_activated and not divergence.any:
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=False,
            failure_class=FailureClass.BENIGN,
            detected_by=DetectionTechnique.UNDETECTED,
            detection_latency=None,
            detail="non-activated",
        )
    failure = classify_divergence(divergence, activation)
    # VM transition detection runs at every VM entry (Fig. 4).
    flagged = detector is not None and detector.flags_incorrect(faulty.features)
    if flagged:
        latency = max(0, faulty.instructions - _activation_index())
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=was_activated,
            failure_class=failure,
            detected_by=DetectionTechnique.VM_TRANSITION,
            detection_latency=latency,
            detail="transition classifier flagged the feature vector",
        )
    # Continue the simulation: corrupted machine state may be consumed by a
    # later hypervisor execution (and the fault detected there).
    followups_diverged = False
    if divergence.any and followups:
        record, followups_diverged = _run_followups(
            hv, activation, fault, followups, golden, failure, was_activated,
            base_latency=max(0, faulty.instructions - _activation_index()),
            detector=detector, benchmark=benchmark,
        )
        if record is not None:
            return record
        # Internal-only corruption that neither reached a guest-visible
        # output nor perturbed any follow-up execution is *latent*: the
        # paper's methodology counts only injections that cause observable
        # failures or data corruptions.
        if (
            failure.is_manifested
            and failure not in (FailureClass.APP_SDC, FailureClass.APP_CRASH)
            and not divergence.output_diffs
            and not followups_diverged
        ):
            failure = FailureClass.LATENT
    kind = (
        undetected_kind_for(divergence, fault.register)
        if failure.is_manifested
        else None
    )
    return TrialRecord(
        benchmark=benchmark,
        vmer=activation.vmer,
        fault=fault,
        activated=was_activated,
        failure_class=failure,
        detected_by=DetectionTechnique.UNDETECTED,
        detection_latency=None,
        undetected_kind=kind,
        detail="",
    )


def _run_followups(
    hv: XenHypervisor,
    activation: Activation,
    fault: FaultSpec,
    followups: tuple[Activation, ...],
    golden: GoldenRun,
    failure,
    activated: bool,
    *,
    base_latency: int,
    detector: TransitionDetector | None,
    benchmark: str,
) -> tuple[TrialRecord | None, bool]:
    """Execute the continuation stream on the corrupted state.

    Returns ``(record, diverged)``: a detection record (or ``None`` when the
    corruption survives the whole window undetected) and whether any
    follow-up execution visibly diverged from its golden twin.  The first
    trial of a group to get here materializes the golden follow-ups.
    """
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
