"""Lock-step batched execution of faulty twins.

Every faulty twin of a golden group runs the *same* activation from the
*same* machine state; a twin's column of architectural state stays
bit-identical to the golden column until its flipped register first
matters.  Advancing N still-identical twins in lock-step is therefore
the identity on N-1 of them: one decode/dispatch of the golden stream
drives every column at once.  This module exploits that degeneracy
head-on — the golden activation records its own address stream while
it executes (full-trace mode, on the translated path), and
:func:`build_plan` keeps it as a *slot stream*: the instruction slot of
each retirement, plus the retirement boundaries.  Each twin's divergence
point then falls out of one scan of the program's per-slot read/write
mask rows over the stream, instead of by execution:

* the flip fires at the first retirement boundary at-or-after its
  injection index (bulk-retiring REP iterations snap the flip to the
  next boundary, exactly like the interpreter's between-dispatch
  injection check);
* a twin whose flipped register is **overwritten before the next
  read** — or never touched again — is *dead*: its column can never
  diverge from the golden one, so its trial record is synthesized
  without executing a single instruction;
* a twin whose register is **read first** diverges there: it peels off
  into the per-trial path, which replays it from the pre-activation
  checkpoint.  The first read is the *read point*: the flip activates
  exactly there, so the injector hands it to the core as the known
  activation index and the run needs no activation watch.

RIP and RFLAGS flips always peel (control is consumed on the very next
fetch / flags have implicit readers), as do injection indices at or
beyond the recorded run (the scan refuses to guess; the per-trial path
is the oracle).  The fixed-seed campaign is bit-identical with the
batch scan on or off — ``--no-twin-batch`` forces the per-trial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machine.isa import Op, Program, register_accesses
from repro.machine.registers import ALL_REGISTERS, RegisterFile
from repro.metrics import COUNTERS

__all__ = [
    "TwinPlan",
    "build_plan",
    "classify_twin",
    "plan_from_columns",
    "stats",
    "DEAD",
    "PEEL",
]

_RIP = RegisterFile.index_of("rip")
_RFLAGS = RegisterFile.index_of("rflags")
_N_REGS = len(ALL_REGISTERS)

#: Access bits of one register at one instruction slot.
_READ = 1
_WRITE = 2

DEAD = "dead"
PEEL = "peel"

def stats() -> dict[str, int]:
    """This process's lock-step twin counts."""
    # A view over repro.metrics.COUNTERS for perfbench/spans.py, its only reader.
    return {
        "twins": COUNTERS.twins.value,
        "dead_twins": COUNTERS.dead_twins.value,
        "peeled_twins": COUNTERS.peeled_twins.value,
    }


@dataclass(frozen=True)
class TwinPlan:
    """Shared batch state of one golden group's faulty twins: the golden
    run's slot stream, bound to its program's mask rows."""

    #: Instruction slot of each retirement (a REP iteration repeats its slot).
    slots: np.ndarray
    #: Dynamic indices that start a dispatch (flip application points): REP
    #: continuations collapse into their first dispatch.
    tops: np.ndarray
    #: The program's mask rows, filled for every slot in ``slots``: row ``r``
    #: holds each slot's read/write bits for register ``r``.  Shared by every
    #: plan of the program and never stored.
    masks: np.ndarray = field(repr=False, compare=False)

    @property
    def instructions(self) -> int:
        """Dynamic length of the recorded golden run."""
        return len(self.slots)


#: Per-program mask tables, keyed by text digest: the (registers x slots)
#: read/write bits, whether each slot is a REP_MOVS, and whether its column
#: is filled yet.  Columns fill on first use: a process lowers only the slots its
#: goldens execute (about a third of the hypervisor text), and forked pool
#: workers start with the tables of the process that forked them.  The tables
#: are the cache, so filling one stores no memo on the program's instructions
#: (one per lowered instruction grows every filling process's resident
#: memory).
_MASK_TABLES: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _mask_tables(program: Program, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(masks, is_rep)`` of ``program``, filled for every slot in ``slots``."""
    key = program.text_digest()
    tables = _MASK_TABLES.get(key)
    if tables is None:
        n = len(program.instructions)
        tables = _MASK_TABLES[key] = (
            np.zeros((_N_REGS, n), dtype=np.uint8),
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=bool),
        )
    masks, is_rep, filled = tables
    if not filled[slots].all():
        for slot in np.unique(slots[~filled[slots]]).tolist():
            ins = program.instructions[slot]
            reads, writes = register_accesses(ins)
            masks[list(reads), slot] |= _READ
            masks[list(writes), slot] |= _WRITE
            is_rep[slot] = ins.op is Op.REP_MOVS
            filled[slot] = True
    return masks, is_rep


def build_plan(program: Program, addresses) -> TwinPlan:
    """Lower a golden run's recorded address stream into a :class:`TwinPlan`.

    ``addresses`` is the per-retirement address stream (REP iterations
    appear once per moved word, at the same address), as the full-trace
    tracer records it.  Each address becomes its instruction slot; nothing
    is decoded or executed here beyond filling the mask columns of slots
    this process has not seen yet.
    """
    n = len(addresses)
    offsets = np.fromiter(addresses, dtype=np.int64, count=n) - program.base
    # One unsigned maximum bounds both ends: a negative offset wraps high.
    if n and (
        offsets.view(np.uint64).max() >= 4 * len(program.instructions)
        or (offsets & 3).any()
    ):
        raise ValueError("address stream leaves the program text")
    slots = offsets >> 2
    masks, is_rep = _mask_tables(program, slots)
    # Consecutive same-slot REP entries are one dispatch: a flip scheduled
    # inside the bulk applies at the *next* boundary.
    rep = is_rep[slots]
    if rep[1:].any():
        loop_top = np.ones(n, dtype=bool)
        loop_top[1:] = ~(rep[1:] & (slots[1:] == slots[:-1]))
        tops = np.flatnonzero(loop_top)
    else:
        tops = np.arange(n)
    return TwinPlan(slots=slots, tops=tops, masks=masks)


def plan_from_columns(program: Program, slots: np.ndarray, tops: np.ndarray) -> TwinPlan:
    """Bind a slot stream and its boundaries to ``program``'s mask rows.

    Fills the mask columns of ``slots`` first: a process that only
    decodes stored plans (a warm pool worker) may never have lowered those
    slots itself.
    """
    n = len(slots)
    # One unsigned maximum bounds both ends: a negative slot wraps high.
    if n and slots.view(np.uint64).max() >= len(program.instructions):
        raise ValueError("slot stream leaves the program text")
    if bool(len(tops)) != bool(n) or (n and not 0 <= tops[0] <= tops[-1] < n):
        raise ValueError("retirement boundaries leave the slot stream")
    masks, _ = _mask_tables(program, slots)
    return TwinPlan(slots=slots, tops=tops, masks=masks)


def classify_twin(
    plan: TwinPlan, register: str, dynamic_index: int
) -> tuple[str, int | None]:
    """Settle one twin against the golden slot stream.

    Returns ``(DEAD, None)`` when the flip provably cannot diverge the
    twin from the golden column (synthesize the non-activated record),
    or ``(PEEL, read_point)`` when it must execute per-trial —
    ``read_point`` is the dynamic index of the first golden read of the
    flipped register (where the flip activates), or ``None`` when the
    scan cannot bound it.  One scan of the register's mask row over the
    stream from the flip point finds its first access: a read (an
    instruction that reads and writes it reads first) peels there, a
    write kills the flip, and no access at all leaves it dead.
    """
    reg = RegisterFile.index_of(register)
    if reg == _RIP or reg == _RFLAGS:
        return PEEL, None
    tops = plan.tops
    j = int(tops.searchsorted(dynamic_index))
    if j >= len(tops):
        return PEEL, None  # at/past the end of the recorded run
    p = int(tops[j])
    touched = plan.masks[reg].take(plan.slots[p:])
    first = int((touched != 0).argmax())
    if touched[first] & _READ:
        return PEEL, p + first
    return DEAD, None  # written first, or never touched again
