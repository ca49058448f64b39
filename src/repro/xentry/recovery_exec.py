"""A working implementation of the Section VI recovery scheme.

The paper *assumes* a light-weight recovery mechanism and estimates its cost:
"the recovery techniques will preserve the critical hypervisor data (e.g.
VCPU and domain information) and the VM exit reason by making a redundant
copy at every VM exit.  If there is a positive detection (correct or false),
these critical data and the VM exit reason will be restored and the
hypervisor execution is re-initiated."

:class:`RecoveryManager` implements exactly that on the simulated platform:

* at every VM exit it snapshots the critical state (all domain/VCPU
  structures plus the hypervisor control slots — the data the paper measured
  at ~1,900 ns to copy);
* on any positive detection it restores the snapshot and re-executes the
  activation once;
* a *false* positive therefore converges to the original fault-free result
  (re-execution is deterministic), and a *true* positive whose fault was
  transient (one bit flip, not re-injected) produces the correct execution —
  the fault never reaches the guest.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import SimulationLimitExceeded
from repro.hypervisor.layout import Slot
from repro.hypervisor.xen import Activation, ActivationResult
from repro.machine.exceptions import AssertionViolation, HardwareException
from repro.machine.memory import Memory
from repro.xentry.framework import ProtectionVerdict, Xentry

__all__ = ["CriticalCopy", "RecoveryOutcome", "RecoveryManager", "merge_extents"]


def merge_extents(slots: Iterable[Slot]) -> tuple[tuple[int, int], ...]:
    """``(address, size)`` byte extents covering ``slots``, with adjacent
    and overlapping slots merged into one extent each."""
    merged: list[list[int]] = []
    for slot in sorted(slots, key=lambda s: s.address):
        if merged and slot.address <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], slot.end)
        else:
            merged.append([slot.address, slot.end])
    return tuple((start, end - start) for start, end in merged)


class CriticalCopy:
    """The per-VM-exit redundant copy of every layout slot (Section VI).

    Snapshot and restore move each merged extent as one block
    (``Memory.read_block``/``write_block``), the way the shim copies
    the structures, instead of word by word.  The block copy is not a CPU
    store, so it leaves ``Memory.store_count`` alone.
    """

    def __init__(self, memory: Memory, slots: Iterable[Slot]) -> None:
        self.memory = memory
        self.extents = merge_extents(slots)

    def snapshot(self) -> tuple[bytes, ...]:
        """Copy every critical extent (call with the state to preserve live)."""
        return tuple(self.memory.read_block(address, size) for address, size in self.extents)

    def restore(self, snapshot: tuple[bytes, ...]) -> None:
        """Write a :meth:`snapshot` back."""
        for (address, _size), data in zip(self.extents, snapshot, strict=True):
            self.memory.write_block(address, data)


@dataclass(frozen=True)
class RecoveryOutcome:
    """What happened to one activation under protect-and-recover."""

    detected: bool
    recovered: bool
    #: Result of the execution the guest actually observes (the re-executed
    #: one when recovery ran); None when even re-execution failed.
    result: ActivationResult | None
    detail: str = ""
    #: Re-executions spent (0 for a clean activation; every attempt counts,
    #: including ones that themselves died with an exception).
    attempts: int = 0


@dataclass
class RecoveryManager:
    """Copy-at-exit / restore-and-re-execute recovery around Xentry."""

    xentry: Xentry
    max_reexecutions: int = 1
    exits_protected: int = 0
    recoveries: int = 0
    unrecoverable: int = 0
    _critical: CriticalCopy = field(init=False, repr=False)

    def __post_init__(self) -> None:
        hv = self.xentry.hv
        # "Critical hypervisor data (e.g. VCPU and domain information) and
        # the VM exit reason" — plus bookkeeping, so that re-execution is
        # bit-identical to a fault-free first attempt.  (Scratch buffers are
        # cheap; what matters for correctness is that nothing the handler
        # reads can differ between the attempts.)
        self._critical = CriticalCopy(hv.memory, hv.layout.all_slots.values())

    # -- the copy the paper prices at ~1,900 ns --------------------------------

    def snapshot_critical(self) -> tuple[bytes, ...]:
        """Copy every critical word (the per-VM-exit redundant copy)."""
        return self._critical.snapshot()

    def restore_critical(self, snapshot: tuple[bytes, ...]) -> None:
        self._critical.restore(snapshot)

    # -- protect + recover ------------------------------------------------------

    def protect(self, activation: Activation) -> RecoveryOutcome:
        """Execute one activation; on any positive detection, restore the
        critical copy and re-execute."""
        self.exits_protected += 1
        snapshot = self.snapshot_critical()
        outcome = self.xentry.protect(activation)
        if outcome.verdict is ProtectionVerdict.CLEAN:
            return RecoveryOutcome(
                detected=False, recovered=False, result=outcome.result
            )
        # Positive detection (runtime or transition, correct or false):
        # restore and re-initiate the hypervisor execution.
        detail = outcome.detection.detail if outcome.detection else "hang"
        attempts = 0
        for _attempt in range(self.max_reexecutions):
            self.restore_critical(snapshot)
            # The transient fault is not re-injected (soft errors do not
            # repeat); a still-armed injection would model a permanent fault.
            self.xentry.hv.cpu.clear_injection()
            attempts += 1
            try:
                result = self.xentry.hv.execute(activation)
            except (HardwareException, AssertionViolation, SimulationLimitExceeded):
                continue  # corrupted beyond this scheme's reach (e.g. a
                # persistent fault the injector re-arms every execution)
            self.recoveries += 1
            return RecoveryOutcome(
                detected=True, recovered=True, result=result,
                detail=f"recovered after: {detail}", attempts=attempts,
            )
        # Every re-execution died too.  Leave the machine in a sane state —
        # critical slots restored, nothing armed — so the caller can keep
        # using the hypervisor (quarantine, next activation, ...) instead of
        # inheriting whatever the last failed attempt corrupted.
        self.restore_critical(snapshot)
        self.xentry.hv.cpu.clear_injection()
        self.unrecoverable += 1
        return RecoveryOutcome(
            detected=True, recovered=False, result=None,
            detail=f"re-execution failed after: {detail}", attempts=attempts,
        )
