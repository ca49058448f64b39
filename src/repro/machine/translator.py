"""Trace translation: decode-once, compile-to-closures execution.

The campaign re-executes the same hypervisor text thousands of times per
golden group, so per-instruction fetch/decode/dispatch in the interpreter
loop is pure overhead after the first trial.  This module translates the
program once into *traces* — the longest statically-predictable instruction
path from an entry: straight-line code, the fall-through arm of conditional
branches, and the always-taken targets of resolved JMP/CALL.  A trace ends
at RET (dynamic target), a terminator, an op the translator leaves to the
interpreter (REP_MOVS/RDTSC/CPUID, whose semantics touch per-core mutable
state), a cycle back into itself, or the length cap.  Each trace compiles
into a specialized Python closure:

* operands are pre-resolved to literal register indices and immediates,
* RFLAGS updates are *deferred*: operands are captured in locals and the
  flag word is only packed (via the interpreter's own ``add_flags``/
  ``sub_flags``/``update_flags_logic``) where something can observe it — a
  faulting op, a conditional, an exit; *dead* updates (provably overwritten
  first) are elided entirely, and a conditional branch fed by a pending
  update fuses into a direct operand comparison (packing flags only on its
  taken, exiting arm),
* the FNV-1a path hash folds retired literal addresses in grouped chains,
* taken conditional branches and RET leave through mid-trace exits, each
  returning the baked retirement deltas (count, PMU inst/branch/load/store
  events, assertion checks) of the path actually executed, which the
  dispatch loop applies in one batch.

Determinism contract: a trace performs *exactly* the architectural effects
of interpreting its instructions in order — same register writes, same
memory calls (hence the same memory-system side effects and exception
details), same #SS conversion for stack accesses.  Anything the trace cannot
retire exactly (a pending injection, a live activation watch on a register
the trace touches, an exception mid-trace) side-exits to the interpreter:
exceptions raised inside a trace carry the faulting instruction's address,
and the dispatch loop re-synchronizes counters/hash/RIP for the partially
retired prefix before re-raising, so a mid-trace fault is bit-identical to
an interpreted one (see ``CPUCore._dispatch``).  A full trace logs the
retired prefix of ``BlockMeta.addrs`` the same way.

Compilation is warmth-gated: an entry interprets until it has been
dispatched :data:`COMPILE_THRESHOLD` times, so one-off entry points (every
injection index creates one) never pay the compile cost.

Compiled traces are shared process-wide through :data:`CACHE`, keyed by
``(text digest, entry address)`` — all trials of a golden group, and even
separate :class:`XenHypervisor` instances with identical images, reuse one
compiled set.  Pool workers
inherit the set of the process that forked them, which compiles the entries
its earlier workers reported before each fork (:meth:`TranslationCache.adopt`).
"""

from __future__ import annotations

from repro.machine.exceptions import (
    AssertionViolation,
    HardwareException,
    Vector,
    raise_stack_fault,
)
from repro.machine.flags import (
    CONDITION_TABLES,
    SIGN_BIT,
    add_flags,
    sub_flags,
    update_flags_logic,
)
from repro.machine.isa import (
    INSTRUCTION_BYTES,
    Instr,
    Op,
    OP_MEM_LOADS,
    OP_MEM_STORES,
    Program,
    instr_register_accesses,
)
from repro.machine.registers import MASK64, RegisterFile
from repro.machine.tracer import _FNV_PRIME
from repro.metrics import COUNTERS

__all__ = [
    "BlockMeta",
    "CACHE",
    "COMPILE_THRESHOLD",
    "MAX_BLOCK_INSTRUCTIONS",
    "ProgramTranslation",
    "TranslationCache",
    "translation_for",
]

#: Longest trace compiled into one closure.  Bounds generated source size
#: and keeps traces enterable close to the dispatch loop's stops (it only
#: enters a trace whose longest path finishes before the next one: a pending
#: injection, a loop-probe window, or the watchdog budget).
MAX_BLOCK_INSTRUCTIONS = 64

#: Dispatches of an entry before it compiles.  Golden paths cross this
#: within the first trials; per-injection side entries (usually dispatched
#: once) stay interpreted instead of paying ``compile()``.  Swept on the
#: campaign-shaped benchmark: 8 compiles too many one-off side entries,
#: 128 leaves too much of the steady state interpreted; 32 maximizes
#: trials/sec at campaign scale.
COMPILE_THRESHOLD = 32

_RIP = RegisterFile.index_of("rip")
_RSP = RegisterFile.index_of("rsp")
_RFLAGS = RegisterFile.index_of("rflags")

# Literals baked into generated source (never looked up at run time).
_M = f"{MASK64:#x}"
_F = f"{_FNV_PRIME:#x}"
_SIGN = f"{SIGN_BIT:#x}"

#: Ops the translator compiles.  REP_MOVS (bulk per-word accounting),
#: RDTSC (reads the batched TSC mid-block) and CPUID (per-core mutable
#: table) stay interpreter-only; terminators end execution, not blocks.
TRANSLATABLE_OPS: frozenset[Op] = frozenset({
    Op.MOV, Op.LOAD, Op.STORE, Op.LEA,
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.IMUL, Op.DIV, Op.SHL, Op.SHR,
    Op.CMP, Op.TEST, Op.INC, Op.DEC,
    Op.JMP, Op.JCC, Op.CALL, Op.RET, Op.PUSH, Op.POP,
    Op.ASSERT_RANGE, Op.ASSERT_EQ, Op.ASSERT_EQ_REG, Op.NOP,
})

_ASSERT_OPS = frozenset({Op.ASSERT_RANGE, Op.ASSERT_EQ, Op.ASSERT_EQ_REG})


class BlockMeta:
    """Side-exit/debug metadata of one compiled block.

    The prefix arrays let the dispatch loop reconstruct exact interpreter
    accounting for a block that faulted at instruction ``k`` (0-based within
    the block): ``loads_before[k]``/``stores_before[k]`` count memory events
    retired *before* k (a faulting memory op never counts its own access),
    while ``asserts_through[k]`` counts assertion checks *through* k (a
    failing assertion pre-increments the tally, exactly like the
    interpreter's handlers).  ``branches_through[k]`` counts branch events
    *through* k — inclusive, because the only branches that can fault
    (CALL/RET, on their stack access) still retire their branch event.

    ``index_of`` maps instruction address to trace position: traces are not
    contiguous (they follow JMP/CALL targets), so a faulting RIP cannot be
    converted to a position arithmetically.

    ``touched`` is the union, over the trace's instructions, of
    register-index bits read or written (``instr_register_accesses``
    semantics, so RIP is excluded).  The dispatch loop uses it while an
    injection watch is live: a trace that never touches the watched
    register cannot resolve the watch, so it may run translated with the
    watch left pending — bit-identical to interpreting it one instruction
    at a time.
    """

    __slots__ = (
        "addr", "addrs", "loads_before", "stores_before", "branches_through",
        "asserts_through", "index_of", "touched", "source",
    )

    def __init__(
        self,
        addr: int,
        addrs: tuple[int, ...],
        loads_before: tuple[int, ...],
        stores_before: tuple[int, ...],
        branches_through: tuple[int, ...],
        asserts_through: tuple[int, ...],
        index_of: dict[int, int],
        touched: int,
        source: str,
    ) -> None:
        self.addr = addr
        self.addrs = addrs
        self.loads_before = loads_before
        self.stores_before = stores_before
        self.branches_through = branches_through
        self.asserts_through = asserts_through
        self.index_of = index_of
        self.touched = touched
        self.source = source


def _src_expr(ins: Instr) -> str:
    return f"rvals[{ins.src_index}]" if ins.src_is_reg else str(ins.src_imm)


#: cond_table value -> condition code name (tables are distinct per code).
_TABLE_TO_CODE = {v: k for k, v in CONDITION_TABLES.items()}

# Fused branch predicates: when a JCC consumes a *pending* (not yet
# materialized) flag update, the branch decision is computed directly from
# the captured operands instead of packing and re-testing RFLAGS.  Keyed by
# pending kind, then condition code; ``{b}`` is the captured right operand,
# ``{S}`` the sign bit, ``{M}`` the 64-bit mask.  ``_w`` is the un-truncated
# arithmetic result, ``_a`` the left operand, ``_r`` the masked logic result.
# Signed compares use the classic order-preserving bias ``x ^ 2**63``.
# Conditions without an entry (and the constant-outcome logic ones)
# materialize the flags and fall back to the truth-table test.
_SUB_PREDS = {
    "e": "_a == {b}", "ne": "_a != {b}",
    "b": "_a < {b}", "ae": "_a >= {b}",
    "be": "_a <= {b}", "a": "_a > {b}",
    "l": "(_a ^ {S}) < ({b} ^ {S})", "ge": "(_a ^ {S}) >= ({b} ^ {S})",
    "le": "(_a ^ {S}) <= ({b} ^ {S})", "g": "(_a ^ {S}) > ({b} ^ {S})",
    "s": "_w & {S}", "ns": "not _w & {S}",
}
_ADD_PREDS = {
    "e": "not _w & {M}", "ne": "_w & {M}",
    "s": "_w & {S}", "ns": "not _w & {S}",
    "b": "_w > {M}", "ae": "_w <= {M}",
}
_LOGIC_PREDS = {  # CF = OF = 0, so l/ge collapse to SF and g/le to ZF|SF
    "e": "not _r", "ne": "_r",
    "s": "_r & {S}", "ns": "not _r & {S}",
    "l": "_r & {S}", "ge": "not _r & {S}",
    "g": "0 < _r < {S}", "le": "not 0 < _r < {S}",
    "be": "not _r", "a": "_r",
}
_PRED_TABLES = {"sub": _SUB_PREDS, "add": _ADD_PREDS, "logic": _LOGIC_PREDS}


def _push_word(mem_write, rvals, value: int, addr: int) -> None:
    """PUSH's stack half: write below RSP, #SS on fault, then commit RSP."""
    s = (rvals[_RSP] - 8) & MASK64
    try:
        mem_write(s, value, addr)
    except HardwareException as exc:
        raise_stack_fault(exc)
    rvals[_RSP] = s


def _pop_word(mem_read, rvals, addr: int) -> int:
    """POP's stack half: read at RSP, #SS on fault, then commit RSP."""
    s = rvals[_RSP]
    try:
        value = mem_read(s, addr)
    except HardwareException as exc:
        raise_stack_fault(exc)
    rvals[_RSP] = (s + 8) & MASK64
    return value


#: Flag-writing ops that cannot fault: these *kill* an earlier pending flag
#: update (it is overwritten before anything can observe it).
_FLAG_KILLERS = frozenset({
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.IMUL, Op.SHL, Op.SHR,
    Op.CMP, Op.TEST, Op.INC, Op.DEC,
})

#: Ops transparent to flag liveness: they neither read, write, nor expose
#: flags (cannot fault, so no side exit can observe machine state at them).
_FLAG_TRANSPARENT = frozenset({Op.MOV, Op.LEA, Op.NOP})


#: Retired addresses per combined hash-fold statement (bounds both the
#: generated expression size and the bignum growth of the unmasked chain).
_FOLD_GROUP = 16

_IND = "        "
_IND2 = "            "


class _Emitter:
    """Generated-source builder with deferred flags and grouped hash folds.

    ``pending`` is the most recent flag write whose RFLAGS materialization
    has not been emitted yet: ``("add"|"sub", b_expr)`` over the temps
    ``_w``/``_a``, or ``("logic", None)`` over ``_r``.  It materializes — a
    single ``add_flags``/``sub_flags``/``update_flags_logic`` call, the same
    helpers the interpreter uses — before anything that can observe
    architectural flags (a faulting op, a non-fused conditional, an exit),
    and is silently dropped when another flag writer kills it first.  A
    fused conditional evaluates its predicate from the temps directly and
    materializes only inside the taken (exit) arm, so steady-state loop
    iterations never pack RFLAGS at all.

    ``folds`` accumulates retired addresses whose FNV-1a fold into ``h`` is
    still pending; they flush as one chained expression (mask deferred to
    the end: XOR and multiply mod 2**64 never propagate high bits downward)
    before each conditional exit and at trace exits.  Mid-trace faults need
    no flushed ``h`` — the dispatch loop refolds from ``meta.addrs``.
    """

    __slots__ = ("out", "pending", "folds")

    def __init__(self) -> None:
        self.out = [
            "def _factory(HWE, AV, V_DE, _push, _pop, _AF, _SF, _LF):",
            "    def _block(rvals, mem_read, mem_write, h):",
        ]
        self.pending: tuple[str, str | None] | None = None
        self.folds: list[int] = []

    def line(self, code: str, indent: str = _IND) -> None:
        self.out.append(indent + code)

    def retire(self, addr: int) -> None:
        """Schedule ``addr``'s fold into the path hash."""
        self.folds.append(addr)
        if len(self.folds) >= _FOLD_GROUP:
            self.flush_folds()

    def flush_folds(self, indent: str = _IND) -> None:
        if not self.folds:
            return
        expr = "h"
        for a in self.folds:
            expr = f"(({expr} ^ {a}) * {_F})"
        self.line(f"h = {expr} & {_M}", indent)
        self.folds.clear()

    def materialize(self, indent: str = _IND, keep: bool = False) -> None:
        """Write the pending flag update into RFLAGS.

        ``keep=True`` (the fused-branch taken arm) leaves the update pending
        on the fall-through path, which did not execute the write.
        """
        p = self.pending
        if p is None:
            return
        kind, b = p
        if kind == "logic":
            self.line(f"rvals[{_RFLAGS}] = _LF(rvals[{_RFLAGS}], _r)", indent)
        elif kind == "add":
            self.line(f"rvals[{_RFLAGS}] = _AF(rvals[{_RFLAGS}], _w, _a, {b})", indent)
        else:
            self.line(f"rvals[{_RFLAGS}] = _SF(rvals[{_RFLAGS}], _w, _a, {b})", indent)
        if not keep:
            self.pending = None

    def exit_(self, rip: int, acct: tuple, indent: str = _IND) -> None:
        """One trace exit: the RIP write plus its baked accounting."""
        n, branches, loads, stores, asserts = acct
        self.line(f"rvals[{_RIP}] = {rip & MASK64}", indent)
        self.line(f"return h, {n}, {branches}, {loads}, {stores}, {asserts}", indent)


def _emit_step(em: _Emitter, ins: Instr, addr: int, flags: bool) -> None:
    """Emit the architectural effect of one non-branch instruction.

    With ``flags=False`` the op's RFLAGS update is dead (proven overwritten
    before any observer) and no flag state is captured at all; with
    ``flags=True`` the operands are captured in temps and the update becomes
    the emitter's ``pending`` for later materialization or branch fusion.
    """
    op = ins.op
    src = _src_expr(ins)
    di = ins.dst_index
    if op is Op.MOV:
        em.line(f"rvals[{di}] = {src}")
    elif op is Op.LEA:
        em.line(f"rvals[{di}] = (rvals[{ins.mem_base_index}] + {ins.mem_disp}) & {_M}")
    elif op is Op.NOP:
        pass
    elif op is Op.LOAD:
        em.materialize()
        em.line(
            f"rvals[{di}] = mem_read((rvals[{ins.mem_base_index}]"
            f" + {ins.mem_disp}) & {_M}, {addr})"
        )
    elif op is Op.STORE:
        em.materialize()
        em.line(
            f"mem_write((rvals[{ins.mem_base_index}] + {ins.mem_disp})"
            f" & {_M}, {src}, {addr})"
        )
    elif op is Op.PUSH:
        em.materialize()
        em.line(f"_push(mem_write, rvals, rvals[{ins.src_index}], {addr})")
    elif op is Op.POP:
        em.materialize()
        em.line(f"rvals[{di}] = _pop(mem_read, rvals, {addr})")
    elif op is Op.ADD or op is Op.SUB or op is Op.CMP:
        em.pending = None  # killed: this op overwrites the flags
        sign = "-" if op is not Op.ADD else "+"
        if not flags:
            if op is not Op.CMP:
                em.line(f"rvals[{di}] = (rvals[{di}] {sign} {src}) & {_M}")
            return
        b = src
        if ins.src_is_reg:
            em.line(f"_b = {src}")
            b = "_b"
        em.line(f"_a = rvals[{di}]")
        em.line(f"_w = _a {sign} {b}")
        if op is not Op.CMP:
            em.line(f"rvals[{di}] = _w & {_M}")
        em.pending = ("add" if op is Op.ADD else "sub", b)
    elif op is Op.INC or op is Op.DEC:
        em.pending = None
        sign = "+" if op is Op.INC else "-"
        if not flags:
            em.line(f"rvals[{di}] = (rvals[{di}] {sign} 1) & {_M}")
            return
        em.line(f"_a = rvals[{di}]")
        em.line(f"_w = _a {sign} 1")
        em.line(f"rvals[{di}] = _w & {_M}")
        em.pending = ("add" if op is Op.INC else "sub", "1")
    elif op in (Op.AND, Op.OR, Op.XOR):
        em.pending = None
        sym = {"and": "&", "or": "|", "xor": "^"}[op.value]
        if not flags:
            em.line(f"rvals[{di}] = rvals[{di}] {sym} {src}")
            return
        em.line(f"_r = rvals[{di}] {sym} {src}")
        em.line(f"rvals[{di}] = _r")
        em.pending = ("logic", None)
    elif op is Op.TEST:
        em.pending = None
        if flags:
            em.line(f"_r = rvals[{di}] & {src}")
            em.pending = ("logic", None)
    elif op is Op.IMUL:
        em.pending = None
        if not flags:
            em.line(f"rvals[{di}] = (rvals[{di}] * {src}) & {_M}")
            return
        em.line(f"_r = (rvals[{di}] * {src}) & {_M}")
        em.line(f"rvals[{di}] = _r")
        em.pending = ("logic", None)
    elif op is Op.SHL or op is Op.SHR:
        em.pending = None
        amount = f"({src} & 63)" if ins.src_is_reg else str(ins.src_imm & 63)
        expr = (
            f"(rvals[{di}] << {amount}) & {_M}"
            if op is Op.SHL
            else f"rvals[{di}] >> {amount}"
        )
        if not flags:
            em.line(f"rvals[{di}] = {expr}")
            return
        em.line(f"_r = {expr}")
        em.line(f"rvals[{di}] = _r")
        em.pending = ("logic", None)
    elif op is Op.DIV:
        em.materialize()  # the zero check can fault, exposing flags
        em.line(f"_b = {src}")
        em.line("if _b == 0:")
        em.line(f"    raise HWE(V_DE, {addr}, detail='division by zero')")
        if not flags:
            em.line(f"rvals[{di}] = rvals[{di}] // _b")
            return
        em.line(f"_r = rvals[{di}] // _b")
        em.line(f"rvals[{di}] = _r")
        em.pending = ("logic", None)
    elif op is Op.ASSERT_RANGE:
        aid = ins.assert_id or "<anon>"
        em.materialize()
        em.line(f"_v = rvals[{di}]")
        em.line(f"if not ({ins.lo} <= _v <= {ins.hi}):")
        em.line(
            f"    raise AV({aid!r}, {addr}, _v,"
            f" detail={f'expected [{ins.lo}, {ins.hi}]'!r})"
        )
    elif op is Op.ASSERT_EQ:
        aid = ins.assert_id or "<anon>"
        em.materialize()
        em.line(f"_v = rvals[{di}]")
        em.line(f"if _v != {ins.lo}:")
        em.line(
            f"    raise AV({aid!r}, {addr}, _v,"
            f" detail={f'expected {ins.lo:#x}'!r})"
        )
    elif op is Op.ASSERT_EQ_REG:
        aid = ins.assert_id or "<anon>"
        em.materialize()
        em.line(f"_va = rvals[{di}]")
        em.line(f"_vb = rvals[{ins.src_index}]")
        em.line("if _va != _vb:")
        em.line(
            f"    raise AV({aid!r}, {addr}, _va,"
            " detail=f'redundant copies differ: {_va:#x} != {_vb:#x}')"
        )
    else:  # pragma: no cover - walker admits only TRANSLATABLE_OPS
        raise AssertionError(f"untranslatable op {op} reached the emitter")


#: Flag-writing ops whose update participates in dead-flag elimination.
_FLAG_WRITERS = _FLAG_KILLERS | {Op.DIV}


def compile_block(instructions: tuple[Instr, ...], index: int, base: int):
    """Compile the trace entered at instruction ``index``.

    A trace is the longest statically-predictable instruction path from the
    entry: straight-line code, the fall-through arm of conditional branches,
    and the (always-taken) targets of resolved JMP/CALL.  Taken conditional
    branches and RET leave through mid-trace exits; every exit reports the
    accounting of the path actually retired.

    Returns ``False`` when the entry instruction is not translatable, else
    ``(fn, n_max, n_branches, n_loads, n_stores, n_asserts, meta)`` where the
    counts cover the trace's longest path and ``fn`` has signature
    ``fn(rvals, mem_read, mem_write, h) ->
    (h, n, branches, loads, stores, asserts)`` — the architectural effects
    including the final RIP write, plus the taken exit's retirement deltas.
    """
    n_instrs = len(instructions)
    addrs: list[int] = []
    loads_before: list[int] = []
    stores_before: list[int] = []
    branches_through: list[int] = []
    asserts_through: list[int] = []
    loads = stores = branches = asserts = 0
    touched = 0
    visited: set[int] = set()
    j = index
    open_exit = True

    # Pass 1 — decode: walk the trace once, collecting per-step records
    # (kind, ins, addr, acct) and the retirement prefix arrays.  No code is
    # generated yet; the flag-liveness pass below needs the whole trace.
    steps: list[tuple] = []
    while True:
        if (
            not 0 <= j < n_instrs
            or j in visited
            or len(addrs) >= MAX_BLOCK_INSTRUCTIONS
        ):
            break  # falls through to the open exit at base + j*4
        ins = instructions[j]
        op = ins.op
        if op not in TRANSLATABLE_OPS:
            break
        if ins.is_branch and op is not Op.RET and ins.target is None:
            break  # unresolved control transfer: leave to the interpreter
        addr = base + j * INSTRUCTION_BYTES
        visited.add(j)
        addrs.append(addr)
        loads_before.append(loads)
        stores_before.append(stores)
        loads += OP_MEM_LOADS.get(op, 0)
        stores += OP_MEM_STORES.get(op, 0)
        if ins.is_branch:
            branches += 1
        branches_through.append(branches)
        if op in _ASSERT_OPS:
            asserts += 1
        asserts_through.append(asserts)
        reads, writes = instr_register_accesses(ins)
        for r in reads:
            touched |= 1 << r
        for r in writes:
            touched |= 1 << r
        acct = (len(addrs), branches, loads, stores, asserts)

        if op is Op.JMP or op is Op.CALL:
            t_off = ins.target - base
            if t_off % INSTRUCTION_BYTES:
                # Misaligned target: exit and let the interpreter fault.
                steps.append(("xfer_exit", ins, addr, acct))
                open_exit = False
                break
            steps.append(("xfer", ins, addr, acct))
            j = t_off // INSTRUCTION_BYTES
            continue
        if op is Op.JCC:
            steps.append(("jcc", ins, addr, acct))
            j += 1
            continue
        if op is Op.RET:
            steps.append(("ret", ins, addr, acct))
            open_exit = False
            break
        steps.append(("body", ins, addr, acct))
        j += 1

    if not addrs:
        return False

    # Pass 2 — flag liveness, walked backwards.  A step's RFLAGS update is
    # dead iff a non-faulting flag writer overwrites it before any observer.
    # Observers are everything that can expose architectural state: JCC
    # (reads flags), any exit, and every op that can fault mid-trace (its
    # side exit re-raises into the interpreter's precise state).  MOV/LEA/NOP
    # bodies and continuing JMPs are transparent.
    flags_live = [True] * len(steps)
    live = True  # the trace-end / open exit observes everything
    for k in range(len(steps) - 1, -1, -1):
        kind, ins, _addr, _acct = steps[k]
        op = ins.op
        if kind == "body":
            if op in _FLAG_WRITERS:
                flags_live[k] = live
            if op in _FLAG_KILLERS:
                live = False
            elif op not in _FLAG_TRANSPARENT:
                live = True  # can fault: earlier flag state is observable
        elif kind == "xfer" and op is Op.JMP:
            pass  # transparent: no fault, no exit, no flag access
        else:  # jcc, ret, call, and every exit kind observe flags/state
            live = True

    # Pass 3 — emit.
    em = _Emitter()
    for k, (kind, ins, addr, acct) in enumerate(steps):
        if kind == "body":
            _emit_step(em, ins, addr, flags_live[k])
            em.retire(addr)
        elif kind == "xfer":
            if ins.op is Op.CALL:
                em.materialize()  # the return-address push can fault
                em.line(
                    f"_push(mem_write, rvals,"
                    f" {(addr + INSTRUCTION_BYTES) & MASK64}, {addr})"
                )
            em.retire(addr)
        elif kind == "xfer_exit":
            if ins.op is Op.CALL:
                em.materialize()
                em.line(
                    f"_push(mem_write, rvals,"
                    f" {(addr + INSTRUCTION_BYTES) & MASK64}, {addr})"
                )
            em.retire(addr)
            em.materialize()
            em.flush_folds()
            em.exit_(ins.target, acct)
        elif kind == "jcc":
            em.retire(addr)  # the branch retires on both arms
            pred = None
            if em.pending is not None:
                code = _TABLE_TO_CODE.get(ins.cond_table)
                tmpl = _PRED_TABLES[em.pending[0]].get(code) if code else None
                if tmpl is not None:
                    pred = tmpl.format(b=em.pending[1], S=_SIGN, M=_M)
            em.flush_folds()
            if pred is None:
                em.materialize()
                em.line(f"_f = rvals[{_RFLAGS}]")
                em.line(
                    f"if ({ins.cond_table} >> ((_f & 1) | ((_f >> 5) & 6)"
                    " | ((_f >> 8) & 8))) & 1:"
                )
                em.exit_(ins.target, acct, indent=_IND2)
            else:
                em.line(f"if {pred}:")
                em.materialize(indent=_IND2, keep=True)
                em.exit_(ins.target, acct, indent=_IND2)
        else:  # ret
            em.materialize()  # the return-target pop can fault
            em.line(f"_t = _pop(mem_read, rvals, {addr})")
            em.retire(addr)
            em.flush_folds()
            em.line(f"rvals[{_RIP}] = _t")
            n_through, n_br, n_ld, n_st, n_ak = acct
            em.line(f"return h, {n_through}, {n_br}, {n_ld}, {n_st}, {n_ak}")
    if open_exit:
        em.materialize()
        em.flush_folds()
        em.exit_(
            base + j * INSTRUCTION_BYTES,
            (len(addrs), branches, loads, stores, asserts),
        )
    em.out.append("    return _block")
    source = "\n".join(em.out)
    namespace: dict = {}
    exec(compile(source, f"<tblock@{addrs[0]:#x}>", "exec"), namespace)
    fn = namespace["_factory"](
        HardwareException, AssertionViolation, Vector.DIVIDE_ERROR,
        _push_word, _pop_word, add_flags, sub_flags, update_flags_logic,
    )
    addrs_t = tuple(addrs)
    meta = BlockMeta(
        addr=addrs_t[0],
        addrs=addrs_t,
        loads_before=tuple(loads_before),
        stores_before=tuple(stores_before),
        branches_through=tuple(branches_through),
        asserts_through=tuple(asserts_through),
        index_of={a: k for k, a in enumerate(addrs_t)},
        touched=touched,
        source=source,
    )
    return (fn, len(addrs_t), branches, loads, stores, asserts, meta)


class ProgramTranslation:
    """Lazily compiled basic blocks of one program text.

    ``blocks[i]`` is ``None`` (not yet compiled), ``False`` (entry ``i`` is
    not translatable), or the ``compile_block`` entry tuple.  One instance is
    shared by every :class:`~repro.machine.isa.Program` whose text digest
    matches, so blocks compile once per process, not once per hypervisor.
    """

    __slots__ = ("base", "instructions", "blocks", "digest", "heat", "compiled")

    def __init__(self, program: Program) -> None:
        self.base = program.base
        self.instructions = program.instructions
        self.blocks: list = [None] * len(program.instructions)
        #: Dispatch counts for not-yet-compiled entries; an entry compiles
        #: only once its heat reaches :data:`COMPILE_THRESHOLD`, so one-off
        #: side entries (e.g. post-injection resynchronization points) never
        #: pay the trace-compilation cost.
        self.heat = [0] * len(program.instructions)
        self.digest = program.text_digest()
        #: Entries compiled into blocks, in compile order (an append-only
        #: log: a slice past an earlier length is what a shard compiled).
        self.compiled: list[int] = []

    @property
    def compiled_blocks(self) -> int:
        """Blocks compiled so far."""
        return len(self.compiled)

    def compile_block(self, index: int):
        """Compile (and memoize) the block entered at instruction ``index``."""
        entry = compile_block(self.instructions, index, self.base)
        if entry is not False:
            self.compiled.append(index)
            COUNTERS.blocks_compiled.inc()
        self.blocks[index] = entry
        return entry

    def block_at(self, address: int):
        """Entry tuple for the block at byte ``address`` (compiling it on
        demand), or ``None`` when the address is not a translatable entry."""
        offset = address - self.base
        if offset < 0 or offset % INSTRUCTION_BYTES:
            return None
        index = offset // INSTRUCTION_BYTES
        if index >= len(self.instructions):
            return None
        entry = self.blocks[index]
        if entry is None:
            entry = self.compile_block(index)
        return entry if entry is not False else None


class TranslationCache:
    """Process-wide registry of program translations, keyed by text digest.

    It also carries compiled entries between processes.  A forked pool
    worker inherits every block its parent compiled, so a coordinator takes
    the entries its workers report (text digest plus entry indices: compiled
    code never crosses the process boundary) into :meth:`adopt` and, right
    before it forks its next pool, compiles them from its own image with
    :meth:`compile_adopted`.  Only the first pool of a process starts cold.
    """

    def __init__(self, max_programs: int = 64) -> None:
        self.max_programs = max_programs
        self._programs: dict[str, ProgramTranslation] = {}
        #: Entries other processes compiled and this one has not yet: text
        #: digest -> entry indices, waiting for :meth:`compile_adopted`.
        self.adopted: dict[str, set[int]] = {}

    def get(self, program: Program) -> ProgramTranslation:
        """The (shared) translation for ``program``, creating it on miss."""
        translation = program._translation
        if translation is not None:
            return translation
        digest = program.text_digest()
        translation = self._programs.get(digest)
        if translation is None:
            if len(self._programs) >= self.max_programs:
                # Campaigns use a handful of images; a full registry means
                # churn (e.g. fuzzing), where stale entries have no future.
                self._programs.clear()
            translation = ProgramTranslation(program)
            self._programs[digest] = translation
        program._translation = translation
        return translation

    # -- carrying compiled entries across a fork ---------------------------------

    def compile_marks(self) -> dict[str, int]:
        """Per-text compile-log positions, for :meth:`compiled_since`."""
        return {digest: len(t.compiled) for digest, t in self._programs.items()}

    def compiled_since(self, marks: dict[str, int]) -> dict[str, list[int]]:
        """Entries compiled after ``marks`` was taken: digest -> indices."""
        return {
            digest: t.compiled[marks.get(digest, 0):]
            for digest, t in self._programs.items()
            if len(t.compiled) > marks.get(digest, 0)
        }

    def adopt(self, entries: dict[str, list[int]]) -> int:
        """Queue entries another process compiled; return how many are new.

        Entries this process already compiled, or already holds, are skipped.
        """
        new = 0
        for digest, indices in entries.items():
            translation = self._programs.get(digest)
            held = self.adopted.setdefault(digest, set())
            for index in indices:
                if index in held or (
                    translation is not None and translation.blocks[index] is not None
                ):
                    continue
                held.add(index)
                new += 1
            if not held:
                del self.adopted[digest]
        return new

    def compile_adopted(self, program: Program) -> int:
        """Compile the adopted entries of ``program``'s text; return how many
        blocks that compiled."""
        indices = self.adopted.pop(program.text_digest(), None)
        if not indices:
            return 0
        translation = self.get(program)
        before = translation.compiled_blocks
        for index in sorted(indices):
            if translation.blocks[index] is None:
                translation.compile_block(index)
        return translation.compiled_blocks - before

    def stats(self) -> dict[str, int]:
        """This process's compiled blocks and execution mix."""
        # A view over repro.metrics.COUNTERS for perfbench/spans.py, its only reader.
        return {
            "blocks_compiled": COUNTERS.blocks_compiled.value,
            "translated_instructions": COUNTERS.translated.value,
            "interpreted_instructions": COUNTERS.interpreted.value,
        }


#: The process-wide cache used by every core (see ``CPUCore._dispatch``).
CACHE = TranslationCache()


def translation_for(program: Program) -> ProgramTranslation:
    """Shared :class:`ProgramTranslation` for ``program`` (cached)."""
    return CACHE.get(program)
