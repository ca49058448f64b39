"""Golden-run comparison and consequence classification.

For each injection trial, the same activation is executed twice from the same
machine state: once fault-free (the *golden* run) and once with the scheduled
bit flip.  This module captures the golden state and classifies the faulty
run's divergence into the paper's consequence taxonomy:

* divergence in a guest's **app-data** outputs → application-level failure —
  crash when the corruption perturbs address-forming high bits, silent data
  corruption otherwise (Section V.E's APP crash / APP SDC);
* divergence in **time** slots → APP SDC of the Table II "time values" kind;
* divergence in a guest's **VCPU/control state** → one-VM failure;
* divergence in **Dom0-owned** or **hypervisor-global control** state →
  all-VM failure (the control domain manages every VM);
* no divergence at all → the fault was masked (benign).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.faults.outcomes import FailureClass, UndetectedKind, most_severe
from repro.hypervisor.layout import GLOBAL_OWNER, HypervisorLayout, Slot, ValueKind
from repro.hypervisor.xen import ActivationResult, XenHypervisor
from repro.machine.memory import AccessLog, ExecutionLog, MemoryCheckpoint
from repro.metrics import COUNTERS

__all__ = [
    "GoldenRun",
    "Divergence",
    "capture_golden",
    "classify_divergence",
    "execute_logged",
    "materialize_followups",
    "prepared_words",
]

#: Corruption of bits at or above this position in an app-data word is treated
#: as address-forming (the guest dereferences/indexes with it) -> crash.
_POINTERISH_BIT = 32


@dataclass(frozen=True)
class GoldenRun:
    """Everything the classifier needs from the fault-free execution.

    ``followups`` are the fault-free results of the activations that *follow*
    the target one: the paper "allow[s] the simulation to continue to observe
    if [the fault] can be detected", so corrupted state left behind by the
    injected activation is detected when later hypervisor executions consume
    it.  The golden continuation is the reference those later executions are
    compared against.  Only a trial that reaches VM entry diverged and
    unflagged reads it, so capture leaves it ``None`` and the first such
    trial fills it in from ``after`` (:func:`materialize_followups`).

    Every golden execution — the activation and each materialized
    follow-up — also keeps its :class:`~repro.machine.memory.ExecutionLog`:
    the words it read before writing them and the final value of each word
    its handler wrote.  They are what lets a trial take a golden result
    instead of executing it (``log`` for a memory fault's activation,
    ``followup_logs`` for the follow-up window; see
    :mod:`repro.faults.injector`).

    Apart from that one fill-in, a ``GoldenRun`` is pure reference data —
    trials read it — which is what makes it cacheable:
    :mod:`repro.artifacts` persists whole golden groups content-addressed and
    rebuilds them bit-equal, with page payloads rehydrated as memoryviews
    over the artifact buffer read from its pack.  Every consumer must
    therefore treat ``bytes`` fields as read-only buffers, never assume the
    concrete type.  The one field an artifact does not carry is ``trace``:
    it carries the :class:`~repro.machine.lockstep.TwinPlan` lowered from it
    instead.
    """

    result: ActivationResult
    outputs: dict[int, int]          # guest-visible output words
    heap_image: bytes                # full heap contents after the run
    checkpoint: MemoryCheckpoint     # machine state *before* the run
    #: Memory right after the run (copy-on-write: it shares every page the
    #: run left clean with ``checkpoint``).  Follow-ups execute from here,
    #: and detector training advances its state stream by restoring it.
    after: MemoryCheckpoint
    #: ``None`` until materialized; then one result per follow-up activation.
    followups: tuple[ActivationResult, ...] | None = None
    #: The activation's reads and writes; ``None`` when captured without
    #: logging (detector training, which runs no trial window).
    log: ExecutionLog | None = None
    #: One log per follow-up, materialized with ``followups``.
    followup_logs: tuple[ExecutionLog, ...] | None = None
    #: Per-retirement address stream of the injected activation (not its
    #: follow-ups), recorded while it executed; what the lock-step batch
    #: lowers into its TwinPlan.  Empty when captured without recording or
    #: served from the artifact cache.
    trace: tuple[int, ...] = field(default=(), repr=False)


def prepared_words(hv: XenHypervisor, activation) -> tuple[list[int], list[int]]:
    """The aligned words :meth:`~repro.hypervisor.xen.XenHypervisor.prepare`
    writes for ``activation``: those it writes whole, and those it writes in
    part (the ragged ends of a block), derived from
    :meth:`~repro.hypervisor.xen.XenHypervisor.prepare_writes`."""
    whole: list[int] = []
    part: list[int] = []
    for address, data in hv.prepare_writes(activation):
        end = address + len(data)
        whole.extend(range((address + 7) & ~7, end & ~7, 8))
        if address & 7:
            part.append(address & ~7)
        if end & 7:
            part.append(end & ~7)
    return whole, part


def execute_logged(hv: XenHypervisor, activation) -> tuple[ActivationResult, ExecutionLog]:
    """Execute ``activation`` (through ``hv.execute``) and log the words it
    reads before writing them and the final value of each word its handler
    writes.

    The words ``prepare()`` writes count as written from the start, and
    stay out of the write log: every execution of the activation rewrites
    them (:func:`prepared_words`).  Logging costs only this execution; every
    other run goes through the memory's own accessors.
    """
    whole, part = prepared_words(hv, activation)
    with hv.cpu.logging_accesses(AccessLog(hv.memory, whole, part)) as log:
        result = hv.execute(activation)
    return result, log.result()


def capture_golden(
    hv: XenHypervisor,
    activation,
    *,
    record: bool = True,
    log: bool = True,
) -> GoldenRun:
    """Run ``activation`` fault-free and keep what trials compare against.

    The pre-run checkpoint is taken first so every faulty twin can be
    replayed from the identical machine state, and the post-run one
    (``after``) last, so the follow-up stream can be executed later, only
    if a trial needs it (:func:`materialize_followups`).

    With ``record`` the activation runs under the full tracer and the run
    keeps its own address stream (``GoldenRun.trace``), so one execution
    yields both the features and the input of
    :func:`~repro.faults.injector.trace_plan`.  With ``log`` it keeps its
    read set and write log (``GoldenRun.log``, :func:`execute_logged`),
    which every trial needs; detector training, which runs none, passes
    ``log=False``.  Recording and logging are observations: results,
    outputs and heap image are identical either way.
    """
    checkpoint = hv.checkpoint()
    tracer = hv.cpu.tracer
    light = tracer.light
    tracer.light = not record
    try:
        if log:
            result, execution_log = execute_logged(hv, activation)
        else:
            result, execution_log = hv.execute(activation), None
        trace = tuple(tracer.addresses) if record else ()
    finally:
        tracer.light = light
    heap = hv.memory.region("hypervisor_heap")
    return GoldenRun(
        result=result,
        outputs=hv.read_outputs(activation),
        heap_image=hv.memory.snapshot_region(heap),
        checkpoint=checkpoint,
        after=hv.checkpoint(),
        trace=trace,
        log=execution_log,
    )


def materialize_followups(hv: XenHypervisor, golden: GoldenRun, followups) -> None:
    """Execute ``golden``'s follow-up stream fault-free from ``golden.after``
    and store the results in ``golden.followups``, each execution's log in
    ``golden.followup_logs`` (:func:`execute_logged`).

    Called in the middle of a trial, so the trial's state is set aside and
    put back: its memory is checkpointed and restored, and the core's
    injection state (a flip still pending, an armed activation watch) is
    parked, because the golden continuation must run fault-free.  Memory
    and injection state are all that carries between activations
    (:meth:`~repro.hypervisor.xen.XenHypervisor.prepare` resets registers,
    TSC and counters) — which is also why an execution that reads no word
    the trial changed, with no flip pending, retires its golden result
    (the follow-up window in :mod:`repro.faults.injector`).  Its seconds
    count as golden capture.
    """
    started = time.perf_counter()
    trial = hv.checkpoint()
    parked = hv.cpu.park_injection()
    try:
        hv.restore(golden.after)
        logged = tuple(execute_logged(hv, f) for f in followups)
    finally:
        hv.restore(trial)
        hv.cpu.unpark_injection(parked)
    # The one write to a GoldenRun after capture (see its docstring).
    object.__setattr__(golden, "followups", tuple(result for result, _ in logged))
    object.__setattr__(golden, "followup_logs", tuple(log for _, log in logged))
    COUNTERS.followups_materialized.inc()
    COUNTERS.capture_seconds.inc(time.perf_counter() - started)


@dataclass(frozen=True)
class Divergence:
    """How a faulty run that reached VM entry differs from its golden twin."""

    path_changed: bool
    features_changed: bool
    output_diffs: tuple[tuple[int, Slot, ValueKind, int, int], ...]
    internal_diffs: tuple[tuple[int, Slot], ...]

    @property
    def any(self) -> bool:
        return self.path_changed or bool(self.output_diffs) or bool(self.internal_diffs)

    @property
    def silent_data_only(self) -> bool:
        """Data changed but the dynamic footprint did not (the hard case)."""
        return self.any and not self.path_changed and not self.features_changed


def _diff_outputs(
    hv: XenHypervisor, activation, golden: GoldenRun
) -> tuple[tuple[int, Slot, ValueKind, int, int], ...]:
    diffs = []
    for addr, slot, _ref in hv.output_addresses(activation):
        now = hv.memory.read_u64(addr)
        was = golden.outputs[addr]
        if now != was:
            diffs.append((addr, slot, slot.kind, was, now))
    return tuple(diffs)


def compute_divergence(
    hv: XenHypervisor,
    activation,
    golden: GoldenRun,
    faulty: ActivationResult,
) -> Divergence:
    """Compare the just-finished faulty run against its golden twin."""
    heap = hv.memory.region("hypervisor_heap")
    diff_addrs = hv.memory.diff_region(heap, golden.heap_image)
    layout: HypervisorLayout = hv.layout
    output_addr_set = {a for a, _, _ in hv.output_addresses(activation)}
    internal = tuple(
        (addr, slot)
        for addr in diff_addrs
        if addr not in output_addr_set
        for slot in (layout.slot_at(addr),)
        if slot is not None and slot.kind is not ValueKind.SCRATCH
    )
    return Divergence(
        path_changed=faulty.path_hash != golden.result.path_hash,
        features_changed=faulty.features != golden.result.features,
        output_diffs=_diff_outputs(hv, activation, golden),
        internal_diffs=internal,
    )


def classify_divergence(divergence: Divergence, activation) -> FailureClass:
    """Map a divergence onto the paper's consequence taxonomy.

    Guest-visible output corruption takes priority: the paper's campaign
    classifies by *observed* consequence (a VM or application visibly
    misbehaving), so what crossed VM entry determines the class.  Internal
    corruption only classifies when nothing guest-visible diverged — and the
    injector downgrades it to LATENT unless it perturbs a later execution.
    """
    if not divergence.any:
        return FailureClass.BENIGN
    output_classes = [
        _classify_slot(slot, kind, was ^ now, activation)
        for _addr, slot, kind, was, now in divergence.output_diffs
    ]
    if output_classes:
        return most_severe(output_classes)
    internal_classes = [
        _classify_slot(slot, slot.kind, 0, activation)
        for _addr, slot in divergence.internal_diffs
    ]
    if not internal_classes:
        # Pure control-flow change with no surviving state difference: the
        # detour touched only scratch data.  Harmless to the guest.
        return FailureClass.BENIGN
    return most_severe(internal_classes)


def _classify_slot(slot: Slot, kind: ValueKind, xor: int, activation) -> FailureClass:
    if slot.owner == GLOBAL_OWNER:
        # Hypervisor-global control state feeds every future activation.
        return FailureClass.ALL_VM_FAILURE
    if slot.owner == 0:
        # Dom0 is the control VM: "if this is a control VM ... the whole
        # system will be affected" (Section II.A).
        return FailureClass.ALL_VM_FAILURE
    if kind is ValueKind.TIME:
        return FailureClass.APP_SDC
    if kind is ValueKind.POINTER:
        return FailureClass.APP_CRASH
    if kind is ValueKind.APP_DATA:
        if xor >> _POINTERISH_BIT:
            return FailureClass.APP_CRASH
        return FailureClass.APP_SDC
    # VCPU_STATE / CONTROL owned by a guest domain.
    return FailureClass.ONE_VM_FAILURE


def undetected_kind_for(divergence: Divergence, fault_register: str) -> UndetectedKind:
    """Attribute an undetected fault to a Table II bucket."""
    if divergence.features_changed or divergence.path_changed:
        # The classifier had signal and still said "correct".
        return UndetectedKind.MIS_CLASSIFY
    kinds = {kind for _, _, kind, _, _ in divergence.output_diffs}
    kinds |= {slot.kind for _, slot in divergence.internal_diffs}
    if kinds <= {ValueKind.TIME} and kinds:
        return UndetectedKind.TIME_VALUES
    if ValueKind.POINTER in kinds or fault_register == "rsp":
        return UndetectedKind.STACK_VALUES
    if ValueKind.TIME in kinds:
        return UndetectedKind.TIME_VALUES
    return UndetectedKind.OTHER_VALUES
