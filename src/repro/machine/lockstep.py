"""Lock-step batched execution of faulty twins.

Every faulty twin of a golden group runs the *same* activation from the
*same* machine state; a twin's column of architectural state stays
bit-identical to the golden column until its flipped register first
matters.  Advancing N still-identical twins in lock-step is therefore
the identity on N-1 of them: one decode/dispatch of the golden stream
drives every column at once.  This module exploits that degeneracy
head-on — the golden activation records its own address stream while
it executes (full-trace mode, on the translated path), and
:func:`build_plan` lowers that shared instruction stream into
per-register *read/write position columns* (numpy arrays of dynamic
indices) through per-program read/write/REP mask tables.  Each twin's
divergence point then falls out analytically instead of by execution:

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

from dataclasses import dataclass

import numpy as np

from repro.machine.isa import Op, Program, instr_register_accesses
from repro.machine.registers import ALL_REGISTERS, RegisterFile
from repro.metrics import COUNTERS

__all__ = [
    "TwinPlan",
    "build_plan",
    "classify_twin",
    "stats",
    "DEAD",
    "PEEL",
]

_RIP = RegisterFile.index_of("rip")
_RFLAGS = RegisterFile.index_of("rflags")
_N_REGS = len(ALL_REGISTERS)

#: Sentinel past any real dynamic index ("never touched again").
_NEVER = 1 << 62

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
    """Shared batch state of one golden group's faulty twins.

    The golden instruction stream, lowered to sorted position columns:
    ``tops`` holds every retirement boundary (REP continuations collapse
    into their first dispatch), ``reads_pos[r]`` / ``writes_pos[r]`` the
    dynamic indices at which register ``r`` is read / written.
    """

    #: Dynamic indices that start a dispatch (flip application points).
    tops: np.ndarray
    #: Per-register sorted dynamic indices of reads.
    reads_pos: tuple[np.ndarray, ...]
    #: Per-register sorted dynamic indices of writes.
    writes_pos: tuple[np.ndarray, ...]
    #: Dynamic length of the recorded golden run.
    instructions: int


#: Per-program lowering tables, keyed by text digest: per instruction slot,
#: whether it is a REP_MOVS and whether its hit column is filled yet, plus
#: the hit matrix — row ``r`` marks the slots that read register ``r``, row
#: ``_N_REGS + r`` the slots that write it.  Columns fill on first use: a
#: process lowers only the slots its goldens execute (about a third of the
#: hypervisor text), and forked pool workers start with the tables of the
#: process that forked them.
_MASK_TABLES: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

#: Row ``k`` of a stream's hit matrix ends before flat index ``(k + 1) * n``.
_ROW_ENDS = np.arange(1, 2 * _N_REGS + 1)


def _mask_tables(program: Program, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hits, is_rep)`` of ``program``, filled for every slot in ``slots``."""
    key = program.text_digest()
    tables = _MASK_TABLES.get(key)
    if tables is None:
        n = len(program.instructions)
        tables = _MASK_TABLES[key] = (
            np.zeros((2 * _N_REGS, n), dtype=bool),
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=bool),
        )
    hits, is_rep, filled = tables
    missing = slots[~filled[slots]]
    if len(missing):
        for slot in np.unique(missing).tolist():
            ins = program.instructions[slot]
            reads, writes = instr_register_accesses(ins)
            hits[list(reads), slot] = True
            hits[[_N_REGS + r for r in writes], slot] = True
            is_rep[slot] = ins.op is Op.REP_MOVS
            filled[slot] = True
    return hits, is_rep


def build_plan(program: Program, addresses) -> TwinPlan:
    """Lower a golden run's recorded address stream into a :class:`TwinPlan`.

    ``addresses`` is the per-retirement address stream (REP iterations
    appear once per moved word, at the same address), as the full-trace
    tracer records it.  Each address selects its instruction's column of
    the program's mask tables; nothing is decoded or executed here.
    """
    n = len(addresses)
    offsets = np.fromiter(addresses, dtype=np.int64, count=n) - program.base
    # One unsigned maximum bounds both ends: a negative offset wraps high.
    if n and (
        offsets.view(np.uint64).max() >= 4 * len(program.instructions)
        or np.any(offsets & 3)
    ):
        raise ValueError("address stream leaves the program text")
    slots = offsets >> 2
    hit_table, is_rep = _mask_tables(program, slots)
    # Consecutive same-address REP entries are one dispatch: a flip
    # scheduled inside the bulk applies at the *next* boundary.
    rep = is_rep[slots]
    if rep[1:].any():
        loop_top = np.ones(n, dtype=bool)
        loop_top[1:] = ~(rep[1:] & (slots[1:] == slots[:-1]))
        tops = np.flatnonzero(loop_top)
    else:
        tops = np.arange(n)
    # Row-major hits of the stream: flat indices come grouped by row and
    # ascending within it, so row boundaries split them into the columns.
    flat = np.flatnonzero(hit_table[:, slots])
    ends = np.searchsorted(flat, _ROW_ENDS * n).tolist()
    positions = flat % n if n else flat
    columns = [positions[a:b] for a, b in zip([0, *ends], ends)]
    return TwinPlan(
        tops=tops,
        reads_pos=tuple(columns[:_N_REGS]),
        writes_pos=tuple(columns[_N_REGS:]),
        instructions=n,
    )


def classify_twin(
    plan: TwinPlan, register: str, dynamic_index: int
) -> tuple[str, int | None]:
    """Settle one twin against the shared golden columns.

    Returns ``(DEAD, None)`` when the flip provably cannot diverge the
    twin from the golden column (synthesize the non-activated record),
    or ``(PEEL, read_point)`` when it must execute per-trial —
    ``read_point`` is the dynamic index of the first golden read of the
    flipped register (where the flip activates), or ``None`` when the
    scan cannot bound it.
    """
    reg = RegisterFile.index_of(register)
    if reg == _RIP or reg == _RFLAGS:
        return PEEL, None
    tops = plan.tops
    j = int(np.searchsorted(tops, dynamic_index, side="left"))
    if j >= len(tops):
        return PEEL, None  # at/past the end of the recorded run
    p = int(tops[j])
    rp = plan.reads_pos[reg]
    i = int(np.searchsorted(rp, p, side="left"))
    first_read = int(rp[i]) if i < len(rp) else _NEVER
    wp = plan.writes_pos[reg]
    i = int(np.searchsorted(wp, p, side="left"))
    first_write = int(wp[i]) if i < len(wp) else _NEVER
    if first_read <= first_write and first_read < _NEVER:
        return PEEL, first_read
    return DEAD, None
