"""Single-trial fault injection.

One *trial* executes the same activation twice from identical machine state —
fault-free, then with the fault armed — and reduces the pair to a
:class:`~repro.faults.outcomes.TrialRecord`:

* a hardware exception or failed software assertion during the faulty run is
  a **runtime detection** (short detection latency, Fig. 10);
* a faulty run that reaches VM entry is shown to the optional **transition
  detector** (anything with a ``flags_incorrect(features)`` predicate, e.g.
  compiled tree rules);
* divergence against the golden run yields the ground-truth consequence
  (Fig. 9) and, for missed faults, the Table II attribution.

Every register fault (the paper's single-bit flip, a multi-bit upset, a
burst) is a set of ``(register, bit)`` flips that :func:`run_trial` arms
with one :meth:`~repro.machine.cpu.CPUCore.schedule_flips` call; memory
faults run through :func:`run_memory_trial`.

Only what reads corrupted state executes: a follow-up or a memory fault's
activation whose golden twin reads no word the fault changed takes the
golden run's result (:func:`_run_followups`, :func:`run_memory_trial`).
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
    prepared_words,
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
    fault: FaultSpec | MultiBitFaultSpec | BurstFaultSpec,
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
    read_point: int | None = None,
) -> TrialRecord:
    """Execute one golden/faulty pair and classify the outcome.

    ``fault`` is any register fault: its ``flips`` strike together at
    ``fault.dynamic_index``.  Register and multi-bit faults take their
    activation from the core's report (:func:`_activation`); a burst spans
    registers, so it is activated when the run diverges and its latency
    counts from ``fault.dynamic_index``.

    ``golden`` may be supplied to amortize the fault-free run across several
    injections into the same activation; it must have been captured from the
    current machine state (its follow-ups, once materialized, from the same
    ``followups``).

    ``followups`` continues the simulation past the injected activation, the
    way the paper's Simics campaign does: corrupted state that survived the
    first VM entry is detected when a later hypervisor execution consumes it
    (a fatal exception, a failed assertion, or a transition-feature anomaly),
    with the detection latency accumulating across activations.

    ``read_point`` (from the lock-step batch scan) is the dynamic index of
    the golden run's first read of the flipped register, with no access to
    it between the injection index and there: the flip activates exactly
    at that read.  The core settles the activation report from it instead
    of watching the register, which keeps the whole window on the
    translated path.
    """
    if golden is None:
        golden = capture_golden(hv, activation)
    hv.restore(golden.checkpoint)
    COUNTERS.trials_replayed.inc()
    hv.cpu.schedule_flips(fault.dynamic_index, fault.flips, known_activation=read_point)
    return _execute_and_classify(
        hv, activation, fault, golden,
        detector=detector, benchmark=benchmark, followups=followups,
    )


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
    """Classify one twin for the lock-step batch, by the registers it flips.

    A fault flipping one register uses the slot-stream scan directly
    (one register, one injection index — several bits only widen the
    flipped mask, not the access pattern that decides liveness).  A fault
    flipping several registers (a burst) is DEAD only if *every* flipped
    register is individually dead: until a faulty value is read, the
    faulty twin follows the golden control flow, so the per-register
    proofs compose.  A live one peels with no read point — the
    single-register no-access proof does not cover its other flips.
    Memory faults always peel conservatively: the scan only tracks register
    liveness.
    """
    if isinstance(fault, MemoryFaultSpec):
        return (lockstep.PEEL, None)
    registers = tuple(dict.fromkeys(register for register, _bit in fault.flips))
    if len(registers) == 1:
        return lockstep.classify_twin(plan, registers[0], fault.dynamic_index)
    for register in registers:
        kind, _ = lockstep.classify_twin(plan, register, fault.dynamic_index)
        if kind != lockstep.DEAD:
            return (lockstep.PEEL, None)
    return (lockstep.DEAD, None)


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

    Classifies each twin against the shared golden slot stream
    (:mod:`repro.machine.lockstep`): *dead* twins — flip overwritten
    before the next read, or never touched again — synthesize their
    non-activated record without executing; diverging twins peel into
    :func:`run_trial`, which replays them from the checkpoint with their
    activation settled at the first-read point.  Record
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
            # The whole faulty run is provably golden: count all of it as
            # skipped.
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

    When the golden activation never reads the flipped word
    (``golden.log``), the faulty activation retires the golden's path,
    features and writes, so it is not executed: the trial starts from
    ``golden.after``, with the flip re-applied unless ``prepare()`` or the
    handler overwrote that word, and classifies ``golden.result``.
    """
    if golden is None:
        golden = capture_golden(hv, activation)
    if golden.log is None:
        raise ValueError("memory trials need a golden captured with logging")
    hv.cpu.clear_injection()
    flipped = (fault.address + (fault.bit >> 3)) & ~7
    classify = dict(detector=detector, benchmark=benchmark, followups=followups)
    if flipped in golden.log.reads:
        hv.restore(golden.checkpoint)
        COUNTERS.trials_replayed.inc()
        _flip_memory(hv, fault)
        return _execute_and_classify(hv, activation, fault, golden, **classify)
    hv.restore(golden.after)
    COUNTERS.trials_from_golden.inc()
    COUNTERS.skipped_by_golden.inc(golden.result.instructions)
    if flipped not in golden.log.writes and flipped not in prepared_words(hv, activation)[0]:
        _flip_memory(hv, fault)
    return _classify_at_entry(hv, activation, fault, golden, golden.result, **classify)


def _flip_memory(hv: XenHypervisor, fault: MemoryFaultSpec) -> None:
    original = hv.memory.read_u64(fault.address)
    hv.memory.write_u64(fault.address, original ^ (1 << fault.bit))


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

    The generic entry point the campaign and twin-batch paths use: memory
    faults run through :func:`run_memory_trial` (which ignores
    ``read_point`` — it has no per-register no-access proof), every
    register fault through :func:`run_trial`.
    """
    if isinstance(fault, MemoryFaultSpec):
        return run_memory_trial(
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
) -> TrialRecord:
    """Run the prepared faulty activation and classify (shared trial core)."""
    try:
        faulty = hv.execute(activation)
    except HardwareException as exc:
        verdict = classify_exception(exc)
        latency = max(0, hv.cpu.tracer.count - _activation(hv, fault)[0])
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
        latency = max(0, hv.cpu.tracer.count - _activation(hv, fault)[0])
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
            detection_latency=max(0, hv.cpu.tracer.count - _activation(hv, fault)[0]),
            detail="watchdog NMI (instruction budget exhausted)",
        )
    return _classify_at_entry(
        hv, activation, fault, golden, faulty,
        detector=detector, benchmark=benchmark, followups=followups,
    )


def _activation(hv: XenHypervisor, fault) -> tuple[int, bool | None]:
    """Where and whether the fault activated, once its activation ran:
    ``(activation index, activated)``, keyed on the fault class.

    ``activated`` is ``None`` when it is inferred from divergence.  A memory
    fault is present from instruction 0.  A burst spans registers, so no
    register is watched and its latency counts from the strike,
    ``fault.dynamic_index``, never from the core's report: a bulk
    ``rep movs`` retire can carry the count past that index before the
    flips apply.  Register and multi-bit faults read the core's report,
    falling back to the injection index when nothing settled it.
    """
    if fault.fault_class == "memory":
        return 0, None
    if fault.fault_class == "burst":
        return fault.dynamic_index, None
    report = hv.cpu.injection_report
    if report is None:
        return fault.dynamic_index, False
    index = report.activation_index
    return (
        fault.dynamic_index if index is None else index,
        bool(report.applied and report.activated),
    )


def _classify_at_entry(
    hv: XenHypervisor,
    activation: Activation,
    fault,
    golden: GoldenRun,
    faulty,
    *,
    detector: TransitionDetector | None,
    benchmark: str,
    followups: tuple[Activation, ...],
) -> TrialRecord:
    """Classify a faulty run that reached VM entry with result ``faulty``,
    continuing into the follow-up window when it diverged unflagged."""
    divergence = compute_divergence(hv, activation, golden, faulty)
    activation_index, activated = _activation(hv, fault)
    was_activated = divergence.any if activated is None else activated
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
        latency = max(0, faulty.instructions - activation_index)
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
            base_latency=max(0, faulty.instructions - activation_index),
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
    """Continue the trial through its follow-up window on the corrupted state.

    Returns ``(record, diverged)``: a detection record (or ``None`` when the
    corruption survives the whole window undetected) and whether any
    follow-up execution visibly diverged from its golden twin.  The first
    trial of a group to get here materializes the golden follow-ups.

    Only what reads corrupted state executes.  While no flip is pending and
    a follow-up's golden read set misses every word in which the trial's
    memory differs from the golden's (:func:`_golden_prefix`), it retires
    the golden's path, features, instruction count and writes: its golden
    result is taken, its instructions still count toward the detection
    latency, and it can neither diverge nor be flagged.  At the first
    follow-up that does not qualify, the skipped ones' ``prepare()`` blocks
    and write logs are replayed onto live memory in order
    (:func:`_replay_golden`); it and every later follow-up then execute, so
    detection, recovery and hangs see the true state.  When every follow-up
    qualifies, live memory is left unflushed: nothing reads it before the
    next trial restores its own starting state.
    """
    if golden.followups is None:
        materialize_followups(hv, golden, followups)
    window = tuple(zip(followups, golden.followups, golden.followup_logs))
    taken = _golden_prefix(hv, golden, window)
    elapsed = base_latency
    for _follow, golden_follow, _log in window[:taken]:
        elapsed += golden_follow.instructions
    if taken:
        COUNTERS.followups_from_golden.inc(taken)
        COUNTERS.skipped_by_golden.inc(elapsed - base_latency)
        if taken == len(window):
            return None, False
        _replay_golden(hv, window[:taken])
    diverged = False
    for follow, golden_follow, _log in window[taken:]:
        COUNTERS.followups_executed.inc()
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


def _golden_prefix(hv: XenHypervisor, golden: GoldenRun, window) -> int:
    """How many leading follow-ups of ``window`` — ``(activation, golden
    result, golden log)`` triples — retire their golden result on the
    trial's live state.

    None while a flip is pending: it strikes in the next execution.  The
    differing set is computed once, live memory against ``golden.after``;
    a follow-up qualifies while its exposed reads miss it, and then rewrites
    its ``prepare()`` words and its logged words in both runs alike, so they
    leave the set.  The ``prepare()`` words leave it only when a read meets
    the set: deriving them costs each skipped follow-up's guest-request
    payload, which the replay before the next real execution needs anyway.
    """
    if hv.cpu.flip_pending:
        return 0
    differing = hv.memory.diff_checkpoint(golden.after)
    settled = 0  # follow-ups whose prepare() words have left the set
    for taken, (_follow, _result, log) in enumerate(window):
        if not differing.isdisjoint(log.reads):
            for earlier, _, _ in window[settled:taken]:
                differing.difference_update(prepared_words(hv, earlier)[0])
            settled = taken
            if not differing.isdisjoint(log.reads):
                return taken
        differing.difference_update(log.writes)
    return len(window)


def _replay_golden(hv: XenHypervisor, skipped) -> None:
    """Apply, in order, what the ``skipped`` follow-ups would have written:
    each one's ``prepare()`` blocks, then its golden write log."""
    memory = hv.memory
    for follow, _result, log in skipped:
        for address, data in hv.prepare_writes(follow):
            memory.write_block(address, data)
        for word, value in zip(log.writes, log.values):
            memory.write_u64(word, value)
