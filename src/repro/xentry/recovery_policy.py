"""Recovery policies: the bounded escalation ladder behind ``--recover``.

The paper *assumes* a recovery scheme and prices it (Section VI); ReHype
(PAPERS.md) shows what a real one looks like: micro-reboot the hypervisor on
failure while preserving VM state, and report survival.  This module turns
detection into measured survival — a :class:`RecoveryPolicy` escalates from
the paper's per-activation restore-and-re-execute to whole-machine recovery:

* ``REEXECUTE`` — the Section VI scheme: restore the per-VM-exit critical
  copy (every layout slot), drop the transient, re-initiate the hypervisor
  execution.  Cheap, but blind to corruption outside the critical copy.
* ``MICROREBOOT`` — ReHype-style: roll the whole machine back to the clean
  pre-activation checkpoint (``GoldenRun.checkpoint``) and replay the whole
  activation.  Guest-visible state stays live in the checkpoint, and the
  replay is bit-identical to the golden run.
* ``QUARANTINE_VM`` — squash the poisoned activation: roll back to the
  pre-activation state, skip the activation, and quarantine the domain.  The
  machine survives; the activation's effects are sacrificed.
* ``UNRECOVERABLE`` — every rung's budget is exhausted; the trial is
  declared lost (the machine is still left at a sane pre-activation state).

Determinism contract: recovery decisions are pure in ``(seed, trial,
attempt)`` — the only randomness is the optional *hazard* model (a second
soft error striking during recovery), drawn from a dedicated
``(seed, "recovery", benchmark, mode, group, trial, attempt)`` stream, so
campaigns stay bit-reproducible across reruns, shard layouts, and the
twin-batch fast path.

Divergence measurement: after every attempt the post-recovery hypervisor
heap is diffed word-by-word against the golden post-activation image
(:meth:`~repro.machine.memory.Memory.diff_region`) and the guest-visible
output words against the golden outputs; an attempt only counts as
*recovered* when both diffs are empty.  Records carry short state digests so
zero-divergence claims are checkable offline.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro import rng as rng_mod
from repro.errors import CampaignConfigError, SimulationLimitExceeded
from repro.faults.outcomes import FaultSpec, RecoveryRecord
from repro.machine.exceptions import AssertionViolation, HardwareException
from repro.xentry.recovery_exec import CriticalCopy

__all__ = [
    "RecoveryAction",
    "RecoveryPolicy",
    "RecoveryExecutor",
    "LADDER_POLICY",
    "MICROREBOOT_POLICY",
    "REEXECUTE_POLICY",
    "POLICIES",
    "policy_from_name",
]


class RecoveryAction(enum.Enum):
    """One rung of the escalation ladder."""

    REEXECUTE = "reexecute"
    MICROREBOOT = "microreboot"
    QUARANTINE_VM = "quarantine_vm"
    UNRECOVERABLE = "unrecoverable"


@dataclass(frozen=True)
class RecoveryPolicy:
    """A bounded escalation ladder: ``(action, retry budget)`` rungs in order.

    Each rung's budget bounds how many attempts that action gets before the
    policy escalates to the next rung; a policy that exhausts every rung
    declares the trial ``UNRECOVERABLE``.
    """

    name: str
    rungs: tuple[tuple[RecoveryAction, int], ...]

    def __post_init__(self) -> None:
        if not self.rungs:
            raise CampaignConfigError(f"policy {self.name!r} needs at least one rung")
        for action, budget in self.rungs:
            if action is RecoveryAction.UNRECOVERABLE:
                raise CampaignConfigError("UNRECOVERABLE is an outcome, not a rung")
            if budget < 1:
                raise CampaignConfigError(
                    f"policy {self.name!r}: rung {action.value} budget must be >= 1"
                )

    def escalation(self) -> tuple[RecoveryAction, ...]:
        """The flattened attempt sequence (each rung repeated by its budget)."""
        return tuple(
            action for action, budget in self.rungs for _ in range(budget)
        )


#: The paper's Section VI scheme alone: restore the critical copy and
#: re-execute, twice, then give up.
REEXECUTE_POLICY = RecoveryPolicy(
    "reexecute", ((RecoveryAction.REEXECUTE, 2),)
)

#: ReHype-style whole-machine recovery alone.
MICROREBOOT_POLICY = RecoveryPolicy(
    "microreboot", ((RecoveryAction.MICROREBOOT, 2),)
)

#: The full ladder: cheap re-execution first, micro-reboot when the critical
#: copy was not enough, quarantine as the terminal fallback.
LADDER_POLICY = RecoveryPolicy(
    "ladder",
    (
        (RecoveryAction.REEXECUTE, 1),
        (RecoveryAction.MICROREBOOT, 2),
        (RecoveryAction.QUARANTINE_VM, 1),
    ),
)

POLICIES: dict[str, RecoveryPolicy] = {
    p.name: p for p in (REEXECUTE_POLICY, MICROREBOOT_POLICY, LADDER_POLICY)
}


def policy_from_name(name: str) -> RecoveryPolicy:
    """Resolve a policy by CLI name."""
    try:
        return POLICIES[name]
    except KeyError:
        raise CampaignConfigError(
            f"unknown recovery policy {name!r} (have: {', '.join(sorted(POLICIES))})"
        ) from None


def _digest(heap_image: bytes, outputs: dict[int, int]) -> str:
    """Short, stable digest of one post-activation state (heap + outputs)."""
    h = hashlib.blake2b(heap_image, digest_size=8)
    for addr in sorted(outputs):
        h.update(addr.to_bytes(8, "little"))
        h.update((outputs[addr] & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little"))
    return h.hexdigest()


@dataclass(frozen=True)
class _Attempt:
    """One ladder rung's execution outcome (before the golden-state check)."""

    completed: bool          # the recovery execution reached VM entry
    retired: int             # instructions retired inside this attempt
    detail: str


class RecoveryExecutor:
    """Runs one policy's ladder against the detected trials of a campaign.

    Lifecycle (driven by :func:`repro.faults.campaign.run_benchmark_groups`):
    ``arm`` once per benchmark with the aged pre-run critical snapshot, then
    ``begin_group`` per golden group, then :meth:`recover` for every detected
    trial record.  Every attempt restores machine state itself, so recovery
    never perturbs the following trial — campaigns with recovery on remain
    bit-identical between the twin-batch and per-trial execution paths.
    """

    def __init__(
        self,
        hv,
        policy: RecoveryPolicy,
        *,
        seed: int = 0,
        benchmark: str = "",
        mode: str = "",
        fault_model=None,
        hazard_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= hazard_rate < 1.0:
            raise CampaignConfigError("hazard_rate must be in [0, 1)")
        self.hv = hv
        self.policy = policy
        self.seed = seed
        self.benchmark = benchmark
        self.mode = mode
        self.fault_model = fault_model
        self.hazard_rate = hazard_rate
        # The per-VM-exit redundant copy of the Section VI scheme covers
        # every layout slot (domain/VCPU structures + hypervisor control).
        self._copy = CriticalCopy(hv.memory, hv.layout.all_slots.values())
        self._critical: tuple[bytes, ...] | None = None
        self._group: int = -1
        self._activation = None
        self._golden = None
        self._golden_digest = ""
        self.quarantined_domains: set[int] = set()

    # -- lifecycle -------------------------------------------------------------

    def snapshot_critical(self) -> tuple[bytes, ...]:
        """Copy every critical word (call with the pre-run state live)."""
        return self._copy.snapshot()

    def arm(self, critical: tuple[bytes, ...] | None = None) -> None:
        """Install the per-VM-exit critical copy (defaults to a fresh one)."""
        self._critical = critical if critical is not None else self.snapshot_critical()

    def begin_group(self, group: int, activation, golden) -> None:
        """Bind one golden group's activation and golden run."""
        self._group = group
        self._activation = activation
        self._golden = golden
        self._golden_digest = _digest(golden.heap_image, golden.outputs)

    # -- the ladder ------------------------------------------------------------

    def recover(self, index: int) -> RecoveryRecord:
        """Run the escalation ladder for one detected trial.

        ``index`` is the trial's position within its golden group — together
        with the group it identifies the trial for the hazard RNG stream.
        """
        if self._golden is None or self._critical is None:
            raise CampaignConfigError("executor not armed (arm + begin_group first)")
        golden = self._golden
        attempts = 0
        downtime = 0
        recovered = False
        action_taken = RecoveryAction.UNRECOVERABLE
        detail = ""
        measurement: tuple[int, int, str] | None = None
        for action in self.policy.escalation():
            attempts += 1
            hazard = self._hazard_fault(index, attempts)
            if action is RecoveryAction.QUARANTINE_VM:
                attempt = self._quarantine()
                measurement = self._measure()
                action_taken = action
                detail = attempt.detail
                break
            if action is RecoveryAction.REEXECUTE:
                attempt = self._reexecute(hazard)
            else:
                attempt = self._microreboot(hazard)
            downtime += attempt.retired
            if not attempt.completed:
                detail = attempt.detail
                continue
            measurement = self._measure()
            divergent_words, outputs_divergent, _ = measurement
            if divergent_words == 0 and outputs_divergent == 0:
                recovered = True
                action_taken = action
                detail = attempt.detail
                break
            detail = f"{attempt.detail}; {divergent_words} heap words still divergent"
        else:
            # Ladder exhausted: leave a sane pre-activation machine behind.
            self.hv.restore(golden.checkpoint)
            self.hv.cpu.clear_injection()
            measurement = self._measure()
        if measurement is None:  # no attempt completed; machine reset above
            measurement = self._measure()
        divergent_words, outputs_divergent, digest = measurement
        return RecoveryRecord(
            policy=self.policy.name,
            action=action_taken.value,
            recovered=recovered,
            attempts=attempts,
            downtime_instructions=downtime,
            divergent_words=divergent_words,
            outputs_divergent=outputs_divergent,
            state_digest=digest,
            golden_digest=self._golden_digest,
            detail=detail,
        )

    # -- rungs -----------------------------------------------------------------

    def _reexecute(self, hazard: FaultSpec | None) -> _Attempt:
        """Section VI: restore the critical copy and re-initiate the handler."""
        hv = self.hv
        self._copy.restore(self._critical)
        hv.cpu.clear_injection()
        if hazard is not None:
            hv.cpu.schedule_register_flip(hazard.dynamic_index, hazard.register, hazard.bit)
        try:
            result = hv.execute(self._activation)
        except HardwareException as exc:
            return _Attempt(False, hv.cpu.tracer.count, f"re-execution died: {exc.vector.name}")
        except AssertionViolation as exc:
            return _Attempt(
                False, hv.cpu.tracer.count, f"re-execution assertion {exc.assertion_id}"
            )
        except SimulationLimitExceeded:
            return _Attempt(False, hv.cpu.tracer.count, "re-execution hung (watchdog NMI)")
        return _Attempt(True, result.instructions, "re-executed from critical copy")

    def _microreboot(self, hazard: FaultSpec | None) -> _Attempt:
        """ReHype: roll the whole machine back to the clean pre-activation
        checkpoint and replay the activation."""
        hv = self.hv
        hv.restore(self._golden.checkpoint)
        hv.cpu.clear_injection()
        if hazard is not None:
            hv.cpu.schedule_register_flip(hazard.dynamic_index, hazard.register, hazard.bit)
        try:
            result = hv.execute(self._activation)
        except HardwareException as exc:
            return _Attempt(False, hv.cpu.tracer.count, f"micro-reboot died: {exc.vector.name}")
        except AssertionViolation as exc:
            return _Attempt(
                False, hv.cpu.tracer.count, f"micro-reboot assertion {exc.assertion_id}"
            )
        except SimulationLimitExceeded:
            return _Attempt(False, hv.cpu.tracer.count, "micro-reboot hung (watchdog NMI)")
        # "rung @0": the wording of the pre-activation restart since the
        # records first carried it; rewording it would change the records.
        return _Attempt(True, result.instructions, "micro-rebooted from rung @0")

    def _quarantine(self) -> _Attempt:
        """Squash the activation: pre-activation rollback + domain quarantine."""
        hv = self.hv
        hv.restore(self._golden.checkpoint)
        hv.cpu.clear_injection()
        domain_id = self._activation.domain_id
        self.quarantined_domains.add(domain_id)
        return _Attempt(
            True, 0, f"domain {domain_id} quarantined; activation squashed"
        )

    # -- measurement -----------------------------------------------------------

    def _measure(self) -> tuple[int, int, str]:
        """Diff the live post-recovery state against the golden image."""
        hv = self.hv
        golden = self._golden
        heap = hv.memory.region("hypervisor_heap")
        divergent_words = len(hv.memory.diff_region(heap, golden.heap_image))
        outputs_now = hv.read_outputs(self._activation)
        outputs_divergent = sum(
            1 for addr, value in golden.outputs.items() if outputs_now[addr] != value
        )
        digest = _digest(hv.memory.snapshot_region(heap), outputs_now)
        return divergent_words, outputs_divergent, digest

    # -- hazard model ----------------------------------------------------------

    def _hazard_fault(self, index: int, attempt: int) -> FaultSpec | None:
        """A second soft error striking *during* recovery, pure in
        ``(seed, trial, attempt)`` — the knob tests use to exercise the
        ladder's escalation deterministically.  Off by default."""
        if self.hazard_rate <= 0.0 or self.fault_model is None:
            return None
        rng = rng_mod.stream(
            self.seed, "recovery", self.benchmark, self.mode,
            self._group, index, attempt,
        )
        if float(rng.random()) >= self.hazard_rate:
            return None
        return self.fault_model.sample(rng, self._golden.result.instructions)
