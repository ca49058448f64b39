"""Fault-outcome taxonomy.

Mirrors the paper's vocabulary end to end:

* **detection technique** (Fig. 8): hardware exception, software assertion,
  VM transition detection, or undetected;
* **failure class** (Fig. 9 / Section V.E): the consequence a fault *would*
  have without detection — one-VM failure, all-VM failure, application crash,
  application silent data corruption; plus host-side classes for faults that
  never reach VM entry (hypervisor crash/hang, Fig. 2 path 1) and
  benign/masked faults;
* **undetected kind** (Table II): mis-classified, stack values, time values,
  other values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "DetectionTechnique",
    "FailureClass",
    "UndetectedKind",
    "FaultSpec",
    "MultiBitFaultSpec",
    "BurstFaultSpec",
    "MemoryFaultSpec",
    "AnyFaultSpec",
    "RecoveryRecord",
    "TrialRecord",
]


class DetectionTechnique(enum.Enum):
    """Which Xentry mechanism caught the fault (Fig. 8 legend)."""

    HW_EXCEPTION = "hw_exception"
    SW_ASSERTION = "sw_assertion"
    VM_TRANSITION = "vm_transition"
    UNDETECTED = "undetected"


class FailureClass(enum.Enum):
    """Consequence of the fault absent detection."""

    BENIGN = "benign"                    # masked / non-activated: no effect
    LATENT = "latent"                    # internal state corrupted, but no
    #                                      observable failure within the
    #                                      observation window (the paper's
    #                                      methodology only counts injections
    #                                      that "cause failures or data
    #                                      corruptions" as manifested)
    HYPERVISOR_CRASH = "hypervisor_crash"  # fatal corruption in host mode (path 1)
    HYPERVISOR_HANG = "hypervisor_hang"    # watchdog-budget exhaustion
    ONE_VM_FAILURE = "one_vm_failure"
    ALL_VM_FAILURE = "all_vm_failure"
    APP_CRASH = "app_crash"
    APP_SDC = "app_sdc"

    @property
    def is_long_latency(self) -> bool:
        """Long-latency errors propagate *across VM entry* (Section II.A)."""
        return self in (
            FailureClass.ONE_VM_FAILURE,
            FailureClass.ALL_VM_FAILURE,
            FailureClass.APP_CRASH,
            FailureClass.APP_SDC,
        )

    @property
    def is_manifested(self) -> bool:
        """True when the fault caused an observable failure or corruption."""
        return self not in (FailureClass.BENIGN, FailureClass.LATENT)


#: Severity order used when one fault corrupts several structures.
_SEVERITY = {
    FailureClass.BENIGN: 0,
    FailureClass.LATENT: 0,
    FailureClass.APP_SDC: 1,
    FailureClass.APP_CRASH: 2,
    FailureClass.ONE_VM_FAILURE: 3,
    FailureClass.HYPERVISOR_CRASH: 4,
    FailureClass.HYPERVISOR_HANG: 4,
    FailureClass.ALL_VM_FAILURE: 5,
}


def most_severe(classes: list[FailureClass]) -> FailureClass:
    """Pick the most severe consequence among ``classes``."""
    if not classes:
        return FailureClass.BENIGN
    return max(classes, key=lambda c: _SEVERITY[c])


class UndetectedKind(enum.Enum):
    """Why an undetected fault slipped through (Table II)."""

    MIS_CLASSIFY = "mis_classify"    # footprint changed; classifier wrong
    STACK_VALUES = "stack_values"    # corrupted saved/restored context
    TIME_VALUES = "time_values"      # corrupted time delivery
    OTHER_VALUES = "other_values"


@dataclass(frozen=True)
class FaultSpec:
    """One injected soft error: a single bit flip in one register at one
    dynamic instruction of a host-mode execution (the Section V.B model)."""

    register: str
    bit: int
    dynamic_index: int

    @property
    def flips(self) -> tuple[tuple[str, int], ...]:
        """The ``(register, bit)`` pairs the core arms (one, here)."""
        return ((self.register, self.bit),)

    @property
    def fault_class(self) -> str:
        return "register"


@dataclass(frozen=True)
class MultiBitFaultSpec:
    """Several bits flipped in *one* register at one dynamic instruction.

    Models multi-bit upsets in a single physical storage cell group — the
    whole set strikes atomically at ``dynamic_index``.  Duck-types the
    fields aggregations read from :class:`FaultSpec` (``bit`` reports the
    lowest flipped bit).
    """

    register: str
    bits: tuple[int, ...]
    dynamic_index: int

    @property
    def bit(self) -> int:
        return self.bits[0]

    @property
    def flips(self) -> tuple[tuple[str, int], ...]:
        return tuple((self.register, b) for b in self.bits)

    @property
    def fault_class(self) -> str:
        return "multibit"


@dataclass(frozen=True)
class BurstFaultSpec:
    """A time-correlated fault storm: flips across several registers, all
    striking at the *same* dynamic instruction.

    Models a particle strike spanning adjacent register-file cells.  The
    storm has no single register to watch, so activation is inferred from
    divergence (like memory faults).  ``flips`` is a tuple of
    ``(register, bit)`` pairs; ``register`` reports ``"burst"`` so
    aggregations keyed by register keep working.
    """

    flips: tuple[tuple[str, int], ...]
    dynamic_index: int

    @property
    def register(self) -> str:
        return "burst"

    @property
    def bit(self) -> int:
        return self.flips[0][1]

    @property
    def fault_class(self) -> str:
        return "burst"


@dataclass(frozen=True)
class MemoryFaultSpec:
    """An uncorrected *memory* bit flip (extension beyond the paper).

    Present in a hypervisor structure when the activation begins — the
    residual class ECC cannot correct.  Duck-types the fields aggregations
    read from :class:`FaultSpec` (``register`` reports ``"memory"``).
    """

    address: int
    bit: int

    @property
    def register(self) -> str:
        return "memory"

    @property
    def dynamic_index(self) -> int:
        return 0

    @property
    def fault_class(self) -> str:
        return "memory"


#: Everything a TrialRecord's ``fault`` field may carry.
AnyFaultSpec = FaultSpec | MultiBitFaultSpec | BurstFaultSpec | MemoryFaultSpec


@dataclass(frozen=True)
class RecoveryRecord:
    """What the recovery policy did about one *detected* trial.

    Recorded when a campaign runs with a recovery policy armed: after a
    positive detection the policy's escalation ladder executes, and this
    record captures whether the machine survived, how many rungs it cost,
    the guest-visible downtime (retired instructions spent inside recovery),
    and the exact post-recovery state divergence against the golden run
    (heap words + output words that still differ, plus short state digests
    so zero-divergence claims are checkable from the record alone).
    """

    #: Name of the policy that ran ("reexecute", "microreboot", "ladder").
    policy: str
    #: Action that settled the trial ("reexecute", "microreboot",
    #: "quarantine_vm", "unrecoverable").
    action: str
    #: True when the activation was replayed to a state matching golden.
    recovered: bool
    #: Ladder rungs executed (each failed attempt counts).
    attempts: int
    #: Dynamic instructions retired inside recovery — guest-visible downtime.
    downtime_instructions: int
    #: Heap words still differing from the golden post-activation image.
    divergent_words: int
    #: Guest-visible output words still differing from golden.
    outputs_divergent: int
    #: blake2b digest of the post-recovery heap + outputs.
    state_digest: str
    #: Same digest of the golden post-activation state.
    golden_digest: str
    detail: str = ""

    @property
    def clean(self) -> bool:
        """Recovered with bit-identical post-activation state."""
        return (
            self.recovered
            and self.divergent_words == 0
            and self.outputs_divergent == 0
            and self.state_digest == self.golden_digest
        )


@dataclass(frozen=True)
class TrialRecord:
    """Complete record of one fault-injection trial."""

    benchmark: str
    vmer: int
    fault: AnyFaultSpec
    #: Whether the flipped value was read before being overwritten.
    activated: bool
    failure_class: FailureClass
    detected_by: DetectionTechnique
    #: Dynamic instructions between activation and detection (None when
    #: undetected or never activated) — the Fig. 10 metric.
    detection_latency: int | None
    undetected_kind: UndetectedKind | None = None
    #: Diagnostic details (assertion id, exception vector, corrupted slots).
    detail: str = ""
    #: Recovery outcome (campaigns run with ``--recover``; None otherwise —
    #: only *detected* trials run the policy).
    recovery: RecoveryRecord | None = None

    @property
    def fault_class(self) -> str:
        """Taxonomy bucket of the injected fault ("register", "multibit",
        "burst", "memory") — the per-class coverage axis."""
        return self.fault.fault_class

    @property
    def manifested(self) -> bool:
        return self.failure_class.is_manifested

    @property
    def detected(self) -> bool:
        return self.detected_by is not DetectionTechnique.UNDETECTED

    @property
    def long_latency(self) -> bool:
        return self.failure_class.is_long_latency
