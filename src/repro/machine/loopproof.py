"""Runaway-loop induction proofs for the watchdog fast path.

A fault that corrupts a loop bound leaves the CPU spinning until the
watchdog budget expires — the paper's *hypervisor hang* outcome.  Those
trials dominate campaign wall-clock: each one burns the entire instruction
budget executing the same few-instruction cycle thousands of times, yet the
only architectural fact the hang record observes is the final dynamic
instruction count (the watchdog fires, the classifier reads
``tracer.count`` and the activation index, and the next trial restores a
checkpoint over everything else).

This module lets the dispatch loop *prove* that outcome instead of
executing it.  Given a detected rip-periodic cycle and the per-period
register deltas measured from two real periods, :func:`prove_runaway`
establishes — exactly, not heuristically — that the cycle cannot exit,
fault, or terminate before the budget is reached:

* register state is modeled as an **affine function of the iteration
  number** (``value = base + slope*k``) with demotion to sound intervals
  when affinity is lost (masking, loads);
* every conditional branch in the cycle must be *decidably constant* over
  all remaining iterations and match the recorded direction;
* every load/store address range must stay inside one mapped (and, for
  stores, writable) region for all remaining iterations;
* a loaded value is unknown (bottom) in the first pass; when that leaves a
  branch undecidable, a second pass **enumerates** the load's affine
  address set concretely — sound because the cycle's stores are proven
  disjoint from it, so those words cannot change — and retries with the
  observed value range;
* the cycle's live-in registers must be closed under the period transfer
  (``out = in + delta``), which is what extends two measured periods to an
  arbitrary number of them.

Any unsupported opcode, undecidable branch, possible wraparound, or failed
closure makes the proof **bail** — the dispatch loop simply keeps executing
concretely, so conservatism can never change an outcome.  A successful
proof lets the CPU advance its retirement count straight to the budget and
deliver the watchdog exception bit-identically to the slow path.

:class:`LoopProbe` decides when to look: the dispatch loop calls it only at
its pause threshold, never per instruction.
"""

from __future__ import annotations

from repro.machine.isa import (
    INSTRUCTION_BYTES,
    Instr,
    Mem,
    Op,
    Program,
    instr_register_accesses,
)
from repro.machine.memory import Memory
from repro.machine.registers import MASK64, RegisterFile
from repro.metrics import COUNTERS

__all__ = [
    "LoopProbe",
    "PROBE_AT",
    "PROBE_MAX_ATTEMPTS",
    "PROBE_RETRY",
    "PROBE_WINDOW",
    "find_period",
    "plan_rotation",
    "prove_runaway",
]

_RIP = RegisterFile.index_of("rip")
_RFLAGS = RegisterFile.index_of("rflags")
_RAX = RegisterFile.index_of("rax")
_RDX = RegisterFile.index_of("rdx")
_TWO64 = 1 << 64
_SIGN = 1 << 63

#: Opcodes the symbolic pass can transfer.  Anything else bails: DIV can
#: raise #DE, stack ops can fault through RSP, REP_MOVS retires in bulk
#: (breaking count-exactness), CPUID can reject a leaf, asserts can raise,
#: and terminators would have exited the cycle.
_SUPPORTED = frozenset({
    Op.MOV, Op.LOAD, Op.STORE, Op.LEA,
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.IMUL, Op.SHL, Op.SHR,
    Op.CMP, Op.TEST, Op.INC, Op.DEC,
    Op.JMP, Op.JCC, Op.NOP, Op.RDTSC,
})

# Symbolic values: ('a', base, slope) is exactly base + slope*k for every
# iteration k in [0, K] (creation guarantees no mod-2**64 wrap on that
# range); ('i', lo, hi) is a sound unsigned interval.  _FULL is the
# bottom element.
_FULL = ("i", 0, MASK64)

#: Cap on per-load concrete enumeration in the refinement pass (one word
#: per remaining iteration; the watchdog budget keeps K far below this).
_ENUM_LIMIT = 8192


def find_period(hist: list[int], cur: int) -> list[int] | None:
    """Smallest period of the retirement-address suffix of ``hist``.

    Returns the upcoming period's address sequence (starting at ``cur``,
    the next instruction to execute) when the last ``2p`` retirements are
    periodic and predict ``cur``; ``None`` when no period fits the window.
    """
    n = len(hist)
    if n < 4:
        return None
    last = hist[-1]
    for p in range(1, n // 2 + 1):
        if hist[-1 - p] != last:
            continue
        if hist[-p] != cur:
            continue
        if hist[-p:] == hist[-2 * p:-p]:
            return hist[-p:]
    return None


def _decode(program: Program, period: list[int]) -> list[Instr] | None:
    base = program.base
    span = program.end - base
    instrs = program.instructions
    out: list[Instr] = []
    for addr in period:
        off = addr - base
        if off < 0 or off >= span or off & 3:
            return None  # outside immutable text: cannot trust static decode
        ins = instrs[off >> 2]
        if ins.op not in _SUPPORTED:
            return None
        if ins.op is Op.MOV and isinstance(ins.src, Mem):
            return None  # memory-source MOV is not modeled
        out.append(ins)
    return out


def plan_rotation(program: Program, period: list[int]) -> int | None:
    """Pick a cycle rotation whose body defines RFLAGS before any JCC reads
    them (so the symbolic pass never needs a live-in flags value), after
    checking every cycle instruction is statically analyzable.  Among valid
    rotations, prefer the one with the fewest live-in registers: a register
    defined inside the cycle before any use (e.g. a load destination) needs
    no induction hypothesis, and loaded values change by data-dependent
    amounts each period that would defeat the delta-equality premise.
    Returns the rotation offset, or ``None`` when the cycle cannot be
    proven."""
    seq = _decode(program, period)
    if seq is None:
        return None
    p = len(seq)
    accesses = [instr_register_accesses(ins) for ins in seq]
    best: int | None = None
    best_live = -1
    for rot in range(p):
        flags_def = False
        ok = True
        live: set[int] = set()
        defined: set[int] = set()
        for i in range(p):
            reads, writes = accesses[(rot + i) % p]
            if _RFLAGS in reads and not flags_def:
                ok = False
                break
            for r in reads:
                if r not in defined:
                    live.add(r)
            if _RFLAGS in writes:
                flags_def = True
            defined |= writes
        if ok and (best is None or len(live) < best_live):
            best = rot
            best_live = len(live)
    return best


def _walk_alt(
    program: Program, pc: int, period: list[int], fork: int, limit: int = 32
) -> tuple[list[tuple[int, Instr]], int] | None:
    """Trace a JCC's *untaken* arm until it rejoins the cycle.

    Walks straight-line code (following JMPs) from ``pc`` and returns the
    traversed ``(address, instr)`` list plus the period index ``j > fork``
    where execution re-enters the recorded cycle; ``None`` when the arm
    branches again, leaves the text, uses an unsupported op, or fails to
    rejoin ahead of the fork within ``limit`` instructions.
    """
    base = program.base
    span = program.end - base
    instrs = program.instructions
    rejoin: dict[int, int] = {}
    for j in range(len(period) - 1, fork, -1):
        rejoin[period[j]] = j  # earliest index wins
    out: list[tuple[int, Instr]] = []
    for _ in range(limit):
        j = rejoin.get(pc)
        if j is not None:
            return out, j
        off = pc - base
        if off < 0 or off >= span or off & 3:
            return None
        ins = instrs[off >> 2]
        if ins.op not in _SUPPORTED or ins.op is Op.JCC:
            return None
        if ins.op is Op.MOV and isinstance(ins.src, Mem):
            return None
        out.append((pc, ins))
        pc = (ins.target & MASK64) if ins.op is Op.JMP else pc + INSTRUCTION_BYTES
    return None


def _sign_of(lo: int, hi: int) -> int | None:
    """Sign bit of an unsigned-[0, 2**64) range; None when undecidable."""
    if lo >= _SIGN:
        return 1
    if hi < _SIGN:
        return 0
    return None


def prove_runaway(
    program: Program,
    memory: Memory,
    period: list[int],
    regs: list[int],
    deltas1: list[int],
    deltas2: list[int],
    remaining: int,
) -> bool:
    """Prove the cycle spins for at least ``remaining`` more retirements.

    ``regs`` is the concrete register file at the cycle anchor (about to
    execute ``period[0]``); ``deltas1``/``deltas2`` the per-register change
    over the two preceding measured periods.  Only *live-in* registers of
    the cycle need equal deltas — everything defined inside the period
    before use (load destinations in particular change by data-dependent
    amounts) starts from bottom anyway.  True means execution is guaranteed
    to stay in the cycle — same branches, no architectural events — until
    the watchdog budget is reached, retiring exactly one instruction per
    address (the cycle contains no bulk-retiring ops).
    """
    seq = _decode(program, period)
    if seq is None:
        return False
    p = len(seq)
    mask = MASK64
    ib = INSTRUCTION_BYTES

    # -- static alternate arms ---------------------------------------------
    # A conditional inside the cycle whose direction the symbolic pass
    # cannot decide is still compatible with a hang when its other arm
    # rejoins the cycle ahead of the fork: either way execution stays in
    # the loop.  Map each JCC to its untaken-arm trace and rejoin index.
    alt_info: dict[int, tuple[list[tuple[int, Instr]], int]] = {}
    shrink = 0
    for i, (addr, ins) in enumerate(zip(period, seq)):
        if ins.op is not Op.JCC or i + 1 >= p:
            continue
        nxt = period[i + 1]
        taken_next = ins.target & mask
        fall_next = (addr + ib) & mask
        if taken_next == fall_next or nxt not in (taken_next, fall_next):
            continue
        walk = _walk_alt(
            program, fall_next if nxt == taken_next else taken_next, period, i
        )
        if walk is not None:
            alt_seq, j = walk
            alt_info[i] = (alt_seq, j)
            # An iteration through a shorter alternate arm retires fewer
            # instructions, so more iterations may fit in the budget.
            shrink += max(0, (j - i - 1) - len(alt_seq))
    # Branch/no-wrap obligations cover every full or partial iteration up
    # to the budget; closure pushes values one more period out.
    K = remaining // max(1, p - shrink) + 2

    def mk_aff(b: int, s: int):
        """Affine value, demoted to _FULL when [0, K]·slope leaves the
        unsigned 64-bit range (a wrap would break exactness)."""
        e = b + s * K
        lo, hi = (b, e) if s >= 0 else (e, b)
        if lo < 0 or hi > mask:
            return _FULL
        return ("a", b, s)

    def mk_iv(lo: int, hi: int):
        if lo < 0 or hi > mask:
            return _FULL
        return ("i", lo, hi)

    def rng(v) -> tuple[int, int]:
        if v[0] == "a":
            b, s = v[1], v[2]
            e = b + s * K
            return (b, e) if s >= 0 else (e, b)
        return v[1], v[2]

    # -- live-in set (use-before-def over one period) -----------------------
    # Alternate arms read registers too: anything they use that the shared
    # prefix has not defined by the fork also needs an induction value.
    live_in: set[int] = set()
    defined: set[int] = set()
    for i, ins in enumerate(seq):
        reads, writes = instr_register_accesses(ins)
        for r in reads:
            if r not in defined:
                live_in.add(r)
        if i in alt_info:
            seen = set(defined)
            for _, alt_ins in alt_info[i][0]:
                a_reads, a_writes = instr_register_accesses(alt_ins)
                for r in a_reads:
                    if r not in seen:
                        live_in.add(r)
                seen |= a_writes
        defined |= writes
    if _RFLAGS in live_in:
        return False  # plan_rotation should have prevented this

    # -- initial symbolic state --------------------------------------------
    if deltas1[_RIP] & mask or deltas2[_RIP] & mask:
        return False
    vals0: list = [_FULL] * len(regs)
    signed_d: list[int] = [0] * len(regs)
    for r in range(len(regs)):
        d = deltas2[r] & mask
        signed_d[r] = d if d < _SIGN else d - _TWO64
        if r in live_in:
            if d != deltas1[r] & mask:
                return False  # non-constant per-period change: no induction
            v = mk_aff(regs[r], signed_d[r])
            if v[0] != "a":
                return False  # live-in register would wrap: no induction
            vals0[r] = v

    const_cache: dict[int, tuple] = {}

    def const(c: int):
        v = const_cache.get(c)
        if v is None:
            v = const_cache[c] = ("a", c & mask, 0)
        return v

    def src_val(ins: Instr, vals: list):
        return vals[ins.src_index] if ins.src_is_reg else const(ins.src_imm)

    # -- transfer helpers (exact mirrors of the CPU's op semantics) ---------
    def add_vals(a, b):
        if a[0] == "a" and b[0] == "a":
            return mk_aff(a[1] + b[1], a[2] + b[2])
        (alo, ahi), (blo, bhi) = rng(a), rng(b)
        lo, hi = alo + blo, ahi + bhi
        if hi <= mask:
            return mk_iv(lo, hi)
        if lo >= _TWO64:
            return mk_iv(lo - _TWO64, hi - _TWO64)
        return _FULL

    def sub_vals(a, b):
        if a[0] == "a" and b[0] == "a":
            return mk_aff(a[1] - b[1], a[2] - b[2])
        (alo, ahi), (blo, bhi) = rng(a), rng(b)
        lo, hi = alo - bhi, ahi - blo
        if lo >= 0:
            return mk_iv(lo, hi)
        if hi < 0:
            return mk_iv(lo + _TWO64, hi + _TWO64)
        return _FULL

    def and_vals(a, b):
        if a[0] == "a" and a[2] == 0 and b[0] == "a" and b[2] == 0:
            return const(a[1] & b[1])
        for x, m in ((a, b), (b, a)):
            if m[0] == "a" and m[2] == 0:
                mc = m[1]
                if x[0] == "a" and mc + 1 & mc == 0 and x[2] % (mc + 1) == 0:
                    # Low-bit mask with period-invariant low bits:
                    # (base + slope*k) & mask is constant.
                    return const(x[1] & mc)
                return mk_iv(0, min(mc, rng(x)[1]))
        return mk_iv(0, min(rng(a)[1], rng(b)[1]))

    def or_vals(a, b):
        if a[0] == "a" and a[2] == 0 and b[0] == "a" and b[2] == 0:
            return const(a[1] | b[1])
        (alo, ahi), (blo, bhi) = rng(a), rng(b)
        return mk_iv(max(alo, blo), min(mask, ahi + bhi))

    def xor_vals(a, b):
        if a[0] == "a" and a[2] == 0 and b[0] == "a" and b[2] == 0:
            return const(a[1] ^ b[1])
        return mk_iv(0, min(mask, rng(a)[1] + rng(b)[1]))

    def imul_vals(a, b):
        for x, c in ((a, b), (b, a)):
            if c[0] == "a" and c[2] == 0:
                if x[0] == "a":
                    return mk_aff(x[1] * c[1], x[2] * c[1])
                lo, hi = rng(x)
                if hi * c[1] <= mask:
                    return mk_iv(lo * c[1], hi * c[1])
                return _FULL
        (alo, ahi), (blo, bhi) = rng(a), rng(b)
        if ahi * bhi <= mask:
            return mk_iv(alo * blo, ahi * bhi)
        return _FULL

    def shl_vals(a, b):
        if b[0] != "a" or b[2] != 0:
            return _FULL
        sh = b[1] & 63
        if a[0] == "a":
            return mk_aff(a[1] << sh, a[2] << sh)
        lo, hi = rng(a)
        if hi << sh <= mask:
            return mk_iv(lo << sh, hi << sh)
        return _FULL

    def shr_vals(a, b):
        if b[0] != "a" or b[2] != 0:
            return _FULL
        sh = b[1] & 63
        if a[0] == "a" and a[2] == 0:
            return const(a[1] >> sh)
        lo, hi = rng(a)
        return mk_iv(lo >> sh, hi >> sh)  # >> is monotone: exact bounds

    def check_mem(addr_val, *, write: bool) -> bool:
        if addr_val[0] == "i" and addr_val[1] == 0 and addr_val[2] == mask:
            return False  # unbounded address
        lo, hi = rng(addr_val)
        region = memory.region_at(lo)
        if region is None or hi + 8 > region.end:
            return False
        return region.writable or not write

    def flags_of(src) -> tuple:
        kind = src[0]
        if kind == "logic":
            lo, hi = rng(src[1])
            zf = 0 if lo > 0 else (1 if hi == 0 else None)
            return 0, zf, _sign_of(lo, hi), 0
        a, b = src[1], src[2]
        (alo, ahi), (blo, bhi) = rng(a), rng(b)
        sign_a, sign_b = _sign_of(alo, ahi), _sign_of(blo, bhi)
        if kind == "sub":
            if a[0] == "a" and b[0] == "a":
                d0 = a[1] - b[1]
                dK = d0 + (a[2] - b[2]) * K
                dlo, dhi = (d0, dK) if dK >= d0 else (dK, d0)
            else:
                dlo, dhi = alo - bhi, ahi - blo
            cf = 1 if dhi < 0 else (0 if dlo >= 0 else None)
            zf = 0 if (dlo > 0 or dhi < 0) else (1 if dlo == dhi == 0 else None)
            if (-_SIGN <= dlo and dhi < 0) or (_SIGN <= dlo and dhi < _TWO64):
                sf = 1
            elif (0 <= dlo and dhi < _SIGN) or (-_TWO64 < dlo and dhi < -_SIGN):
                sf = 0
            else:
                sf = None
            of = None
            if sign_a is not None and sign_b is not None and sf is not None:
                of = int(sign_a != sign_b and sign_a != sf)
            return cf, zf, sf, of
        # kind == "add": wide = a + b in [0, 2**65)
        if a[0] == "a" and b[0] == "a":
            w0 = a[1] + b[1]
            wK = w0 + (a[2] + b[2]) * K
            wlo, whi = (w0, wK) if wK >= w0 else (wK, w0)
        else:
            wlo, whi = alo + blo, ahi + bhi
        cf = 1 if wlo > mask else (0 if whi <= mask else None)
        zero_possible = wlo <= 0 <= whi or wlo <= _TWO64 <= whi
        zf = 0 if not zero_possible else (1 if wlo == whi else None)
        if (_SIGN <= wlo and whi < _TWO64) or (_TWO64 + _SIGN <= wlo):
            sf = 1
        elif whi < _SIGN or (_TWO64 <= wlo and whi < _TWO64 + _SIGN):
            sf = 0
        else:
            sf = None
        of = None
        if sign_a is not None and sign_b is not None and sf is not None:
            of = int(sign_a == sign_b and sf != sign_a)
        return cf, zf, sf, of

    def jcc_truth(table: int, flags: tuple) -> int | None:
        """Condition truth when constant over every consistent flag combo."""
        cf, zf, sf, of = flags
        truths = set()
        for c in (cf,) if cf is not None else (0, 1):
            for z in (zf,) if zf is not None else (0, 1):
                for s in (sf,) if sf is not None else (0, 1):
                    for o in (of,) if of is not None else (0, 1):
                        truths.add(table >> (c | z << 1 | s << 2 | o << 3) & 1)
                        if len(truths) > 1:
                            return None
        return truths.pop()

    # -- one symbolic period ------------------------------------------------
    # ``evaluate`` walks the cycle once, threading the symbolic register
    # state and a flag source — ('sub', a, b) | ('add', a, b) |
    # ('logic', result), set by the last flag-writing instruction; each JCC
    # derives (CF, ZF, SF, OF) from it.  Structural problems (wrong
    # successor, possible memory fault, missing flags) are *hard* failures:
    # no refinement can fix them.  An undecidable-or-wrong branch is a
    # *soft* failure: the walk continues (values evolve along the recorded
    # path either way) so every load address and store range is still
    # collected for the refinement pass.  Load keys are a period index, or
    # ('alt', fork_index, step) inside an alternate arm.
    load_addrs: dict = {}
    store_rngs: list[tuple[int, int]] = []
    store_vrngs: list[tuple[int, int]] = []

    def hull(a, b):
        (alo, ahi), (blo, bhi) = rng(a), rng(b)
        return mk_iv(min(alo, blo), max(ahi, bhi))

    def refine_branch(vals, flag_src, flag_reg, table, truth) -> None:
        """Clamp the compared register by the unsigned ordering a branch
        direction implies.  Only CMP reg, const qualifies (``flag_reg`` is
        the register, still unmodified since the compare); SF/OF are left
        free, so the allowed-ordering set over-approximates and the clamp
        stays sound."""
        if flag_reg is None or flag_src[0] != "sub":
            return
        b = flag_src[2]
        if b[0] != "a" or b[2] != 0:
            return
        c = b[1]
        allowed = set()
        for name, cf, zf in (("lt", 1, 0), ("eq", 0, 1), ("gt", 0, 0)):
            if any(
                table >> (cf | zf << 1 | s << 2 | o << 3) & 1 == truth
                for s in (0, 1)
                for o in (0, 1)
            ):
                allowed.add(name)
        if "lt" in allowed and "gt" in allowed:
            return
        lo, hi = rng(vals[flag_reg])
        if "gt" not in allowed:
            hi = min(hi, c if "eq" in allowed else c - 1)
        if "lt" not in allowed:
            lo = max(lo, c if "eq" in allowed else c + 1)
        if lo > hi or lo < 0:
            return  # arm infeasible for every value: leave unrefined
        vals[flag_reg] = mk_iv(lo, hi)

    def evaluate(load_vals: dict) -> list | None:
        vals = list(vals0)
        fl: tuple | None = (None, None)  # (flag_src, flag_reg)
        soft_fail = False
        merges: dict[int, list[list]] = {}

        def step(ins: Instr, vals: list, fl: tuple, lkey) -> tuple | None:
            """Transfer one non-JCC instruction; returns the updated
            (flag_src, flag_reg) or None on a hard (structural) failure."""
            op = ins.op
            flag_src, flag_reg = fl
            if op is Op.MOV:
                vals[ins.dst_index] = src_val(ins, vals)
                if ins.dst_index == flag_reg:
                    flag_reg = None
            elif op is Op.LEA:
                vals[ins.dst_index] = add_vals(
                    vals[ins.mem_base_index], const(ins.mem_disp)
                )
                if ins.dst_index == flag_reg:
                    flag_reg = None
            elif op is Op.LOAD:
                av = add_vals(vals[ins.mem_base_index], const(ins.mem_disp))
                if not check_mem(av, write=False):
                    return None
                load_addrs[lkey] = av
                vals[ins.dst_index] = load_vals.get(lkey, _FULL)
                if ins.dst_index == flag_reg:
                    flag_reg = None
            elif op is Op.STORE:
                av = add_vals(vals[ins.mem_base_index], const(ins.mem_disp))
                if not check_mem(av, write=True):
                    return None
                store_rngs.append(rng(av))
                store_vrngs.append(rng(src_val(ins, vals)))
            elif op is Op.ADD:
                a, b = vals[ins.dst_index], src_val(ins, vals)
                flag_src, flag_reg = ("add", a, b), None
                vals[ins.dst_index] = add_vals(a, b)
            elif op is Op.SUB:
                a, b = vals[ins.dst_index], src_val(ins, vals)
                flag_src, flag_reg = ("sub", a, b), None
                vals[ins.dst_index] = sub_vals(a, b)
            elif op is Op.INC:
                a = vals[ins.dst_index]
                flag_src, flag_reg = ("add", a, const(1)), None
                vals[ins.dst_index] = add_vals(a, const(1))
            elif op is Op.DEC:
                a = vals[ins.dst_index]
                flag_src, flag_reg = ("sub", a, const(1)), None
                vals[ins.dst_index] = sub_vals(a, const(1))
            elif op is Op.CMP:
                # dst survives the compare: branch directions can clamp it.
                flag_src = ("sub", vals[ins.dst_index], src_val(ins, vals))
                flag_reg = ins.dst_index
            elif op is Op.TEST:
                flag_src = (
                    "logic", and_vals(vals[ins.dst_index], src_val(ins, vals))
                )
                flag_reg = None
            elif op is Op.AND:
                r = and_vals(vals[ins.dst_index], src_val(ins, vals))
                vals[ins.dst_index] = r
                flag_src, flag_reg = ("logic", r), None
            elif op is Op.OR:
                r = or_vals(vals[ins.dst_index], src_val(ins, vals))
                vals[ins.dst_index] = r
                flag_src, flag_reg = ("logic", r), None
            elif op is Op.XOR:
                r = xor_vals(vals[ins.dst_index], src_val(ins, vals))
                vals[ins.dst_index] = r
                flag_src, flag_reg = ("logic", r), None
            elif op is Op.IMUL:
                r = imul_vals(vals[ins.dst_index], src_val(ins, vals))
                vals[ins.dst_index] = r
                flag_src, flag_reg = ("logic", r), None
            elif op is Op.SHL:
                r = shl_vals(vals[ins.dst_index], src_val(ins, vals))
                vals[ins.dst_index] = r
                flag_src, flag_reg = ("logic", r), None
            elif op is Op.SHR:
                r = shr_vals(vals[ins.dst_index], src_val(ins, vals))
                vals[ins.dst_index] = r
                flag_src, flag_reg = ("logic", r), None
            elif op is Op.RDTSC:
                vals[_RAX] = _FULL
                vals[_RDX] = _FULL
                if flag_reg in (_RAX, _RDX):
                    flag_reg = None
            elif op is Op.NOP or op is Op.JMP:
                pass  # alt-arm JMPs: the walk already followed the target
            else:  # pragma: no cover - _decode/_walk_alt filter these
                return None
            return (flag_src, flag_reg)

        for i, (addr, ins) in enumerate(zip(period, seq)):
            for mv in merges.pop(i, ()):
                # An alternate arm rejoins here: its state is one more way
                # this program point can be reached each iteration.
                for r in range(len(vals)):
                    if mv[r] != vals[r]:
                        vals[r] = hull(vals[r], mv[r])
                fl = (None, None)
            nxt = period[i + 1] if i + 1 < p else period[0]
            op = ins.op
            if op is Op.JMP:
                if (ins.target & mask) != nxt:
                    return None
                continue
            if op is Op.JCC:
                flag_src, flag_reg = fl
                if flag_src is None:
                    return None
                taken_next = ins.target & mask
                fall_next = (addr + ib) & mask
                if nxt == taken_next and nxt == fall_next:
                    continue  # degenerate: both arms agree
                if nxt == taken_next:
                    recorded = 1
                elif nxt == fall_next:
                    recorded = 0
                else:
                    return None
                truth = jcc_truth(ins.cond_table, flags_of(flag_src))
                if truth == recorded:
                    continue
                if truth is not None:
                    soft_fail = True  # decidably exits the cycle
                    continue
                ai = alt_info.get(i)
                if ai is None:
                    soft_fail = True  # undecidable, no rejoining other arm
                    continue
                # Undecidable but harmless: both arms stay in the cycle.
                # Fork — clamp each arm by the ordering its direction
                # implies, run the alternate trace, merge at the rejoin.
                alt_seq, j = ai
                avals = list(vals)
                refine_branch(
                    avals, flag_src, flag_reg, ins.cond_table, 1 - recorded
                )
                refine_branch(
                    vals, flag_src, flag_reg, ins.cond_table, recorded
                )
                afl = fl
                for s_idx, (_a_addr, a_ins) in enumerate(alt_seq):
                    afl = step(a_ins, avals, afl, ("alt", i, s_idx))
                    if afl is None:
                        return None
                merges.setdefault(j, []).append(avals)
                continue
            if nxt != (addr + ib) & mask:
                return None  # straight-line successor mismatch
            fl = step(ins, vals, fl, i)
            if fl is None:
                return None
        return None if soft_fail else vals

    out = evaluate({})
    if out is None:
        # Refinement: a branch was undecidable with loads at bottom.  Each
        # affine-address load touches an enumerable word set — read every
        # word concretely and start from their hull.  That hull is a sound
        # invariant for the loaded values unless a cycle store can land in
        # the load's address span with a value outside it, in which case
        # the hull is widened by the store's value range and re-checked
        # (assume-guarantee: if loads drawn from R imply every aliasing
        # store writes within R, then by induction over time all loaded
        # values lie in R — untouched words are in the concrete hull, and
        # overwritten words hold an earlier in-range store).
        if K + 1 > _ENUM_LIMIT:
            return False
        cand = {k: av for k, av in load_addrs.items() if av[0] == "a"}
        if not cand:
            return False
        refined: dict = {}
        for k, av in cand.items():
            b, s = av[1], av[2]
            words = [memory.read_u64(b + s * n) for n in range(K + 1)]
            refined[k] = mk_iv(min(words), max(words))
        for _ in range(3):
            load_addrs.clear()
            store_rngs.clear()
            store_vrngs.clear()
            out = evaluate(refined)
            if out is None:
                return False
            widened = False
            # Justify every refined value the pass actually consumed.  A
            # refined load the branch refinement made unreachable needs no
            # justification; a load the pass saw but refinement never keyed
            # evaluated at bottom, which is always sound.
            for k, av in load_addrs.items():
                rv = refined.get(k)
                if rv is None:
                    continue
                if cand.get(k) != av:
                    return False  # address changed vs the enumeration pass
                lo, hi = rng(av)
                vlo, vhi = rng(rv)
                for (slo, shi), (svlo, svhi) in zip(store_rngs, store_vrngs):
                    if lo <= shi + 7 and slo <= hi + 7 and (
                        svlo < vlo or svhi > vhi
                    ):
                        vlo, vhi = min(vlo, svlo), max(vhi, svhi)
                        refined[k] = mk_iv(vlo, vhi)
                        widened = True
            if not widened:
                break
        else:
            return False  # no stable invariant within the widening budget

    # -- induction closure: out = in + delta for every live-in register ----
    for r in live_in:
        if r == _RIP:
            continue
        v = out[r]
        if v[0] != "a":
            return False
        if v[1] != regs[r] + signed_d[r] or v[2] != signed_d[r]:
            return False
    return True


# Probe tuning.  A full-budget run that retires PROBE_AT instructions is
# suspected of spinning: the probe records a PROBE_WINDOW address history,
# looks for a rip-periodic cycle, measures its per-period register deltas
# over two real periods, and asks the prover to certify the hang.  Failed
# attempts re-arm PROBE_RETRY instructions later, at most PROBE_MAX_ATTEMPTS
# times.  All of this is invisible to outcomes: proofs are exact and bails
# keep executing concretely.
PROBE_AT = 1_024
PROBE_WINDOW = 320
PROBE_RETRY = 2_048
PROBE_MAX_ATTEMPTS = 3

# Probe states: armed (waiting to record), recording the window, running to
# the cycle's anchor, then one and two real periods past the anchor.
_ARMED, _RECORDING, _ANCHOR, _PERIOD1, _PERIOD2, _OFF = range(6)


class LoopProbe:
    """The runaway-loop probe of one dispatch.

    The dispatch loop creates one when a light-traced run's budget leaves
    room for :data:`PROBE_AT` retirements, pauses at :attr:`due` and then
    calls :meth:`at_pause` each time its count reaches the pause it was
    given.  While :attr:`window` is a list, the loop appends every retired
    address to it (through its full-trace branch).  When :attr:`skipped` is
    non-zero the proof succeeded: the loop retires that many instructions at
    once and raises the watchdog exception.
    """

    __slots__ = (
        "program", "memory", "rvals", "budget", "state", "due", "attempts",
        "window", "period", "s0", "s1", "skipped",
    )

    def __init__(
        self, program: Program, memory: Memory, rvals: list[int], budget: int, count: int
    ) -> None:
        self.program = program
        self.memory = memory
        #: The live register values the dispatch loop executes on.
        self.rvals = rvals
        self.budget = budget
        self.state = _ARMED
        #: The pause this probe asked for last (the first one is PROBE_AT
        #: retirements past ``count``, where the dispatch starts).
        self.due = count + PROBE_AT
        self.attempts = 0
        #: Retirement addresses of the window being recorded, else ``None``.
        self.window: list[int] | None = None
        self.period: list[int] = []
        self.s0: list[int] = []
        self.s1: list[int] = []
        #: Instructions a successful proof retires without executing them.
        self.skipped = 0

    def at_pause(self, count: int, busy: bool) -> int:
        """Advance the probe at retirement ``count`` and return the next
        pause (at most the budget).

        ``busy`` says a flip is pending or an activation watch is live; both
        need per-instruction visibility, so recording waits for a retry.  A
        bulk retire (``rep movs``) can carry ``count`` past the pause, and
        that bails the window or snapshot it overshot.

        A proved runaway returns the budget as the next pause, and the
        dispatch loop retires the skipped iterations at once: it advances
        ``tracer.count``, the instruction counter and the TSC only.
        ``tracer.path_hash`` and the PMU branch/load/store totals keep their
        values from the moment of the proof, which is why hang records and
        recovery attempts read the count alone.
        """
        on_time = count == self.due
        rvals = self.rvals
        state = self.state
        if state == _ARMED:
            if not busy:
                self.window = []
                return self._next(_RECORDING, count + PROBE_WINDOW)
        elif state == _RECORDING:
            window, self.window = self.window, None
            period = find_period(window, rvals[_RIP]) if on_time else None
            rot = None if period is None else plan_rotation(self.program, period)
            if rot is not None:
                # Rotate to a flags-clean anchor; snapshot S0 there.
                self.period = period[rot:] + period[:rot]
                if rot == 0:
                    self.s0 = rvals[:]
                    return self._next(_PERIOD1, count + len(period))
                return self._next(_ANCHOR, count + rot)
        elif on_time and rvals[_RIP] == self.period[0]:
            if state == _ANCHOR:
                self.s0 = rvals[:]
                return self._next(_PERIOD1, count + len(self.period))
            if state == _PERIOD1:
                self.s1 = rvals[:]
                return self._next(_PERIOD2, count + len(self.period))
            # Two real periods measured: their deltas, then the proof.
            s0, s1 = self.s0, self.s1
            if prove_runaway(
                self.program,
                self.memory,
                self.period,
                rvals[:],
                [(b - a) & MASK64 for a, b in zip(s0, s1)],
                [(b - a) & MASK64 for a, b in zip(s1, rvals)],
                self.budget - count,
            ):
                # Certified: the cycle retires one instruction per address
                # until the budget.  Only the final count is architecturally
                # observable past a watchdog kill (the classifier reads
                # tracer.count alone), so the run jumps straight to it.
                self.skipped = self.budget - count
                COUNTERS.proved_hangs.inc()
                COUNTERS.skipped_by_proof.inc(self.skipped)
                return self._next(_OFF, self.budget)
        # This attempt failed (or waited on a busy run): re-arm or give up.
        self.attempts += 1
        if self.attempts >= PROBE_MAX_ATTEMPTS:
            return self._next(_OFF, self.budget)
        return self._next(_ARMED, count + PROBE_RETRY)

    def _next(self, state: int, due: int) -> int:
        self.state = state
        self.due = min(self.budget, due)
        return self.due
