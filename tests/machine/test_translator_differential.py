"""Differential fuzzing: translated execution must equal the interpreter.

The interpreter in ``CPUCore._dispatch`` is the semantic oracle for the
basic-block translation cache.  These tests generate seeded random short
programs through the assembler — arithmetic, memory traffic, stack ops,
subroutine calls, branches (forward and backward), assertions, divisions,
untranslatable ops (``rep movs``/``rdtsc``/``cpuid``) and deliberate faults —
and execute each one twice on fresh machines, once with ``translate=False``
and once with ``translate=True``.  Every architecturally visible outcome must
be bit-identical: final registers, data/stack memory contents, perf-counter
totals, dynamic instruction count, path hash, TSC, assertion-check tally, and
the terminal event (normal exit, hardware exception vector/rip/detail,
assertion violation, or watchdog exhaustion).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationEvent, SimulationLimitExceeded
from repro.machine import translator
from repro.machine.assembler import Assembler
from repro.machine.cpu import CPUCore
from repro.machine.memory import Memory, PAGE_SIZE, Region
from repro.machine.translator import translation_for
from repro.metrics import CampaignCounters, counted


@pytest.fixture(autouse=True)
def _eager_compilation(monkeypatch):
    # Each fuzz program executes exactly once per mode; warmth-gated
    # compilation would make the translated run interpret everything.
    monkeypatch.setattr(translator, "COMPILE_THRESHOLD", 1)

TEXT_BASE = 0x1000
DATA_BASE = 0x10000
DATA_SIZE = 4 * PAGE_SIZE
STACK_BASE = 0x40000
STACK_SIZE = 2 * PAGE_SIZE

N_PROGRAMS = 200
MAX_INSTRUCTIONS = 3_000

#: Registers random instructions may use freely.  rbp (data pointer), rsp
#: (stack pointer) and the rep_movs registers are managed explicitly so the
#: generated traffic stays inside the mapped regions often enough to also
#: exercise long fault-free runs, while still producing plenty of faults.
_SCRATCH = ("rax", "rbx", "rdx", "r8", "r9", "r10", "r11", "r12")
_CONDS = ("e", "ne", "l", "le", "g", "ge", "b", "ae", "be", "a", "s", "ns")


def _random_program(rng: random.Random):
    a = Assembler(base=TEXT_BASE)
    n_labels = rng.randint(1, 4)
    n_instrs = rng.randint(8, 40)
    label_slots = sorted(rng.sample(range(n_instrs), n_labels))
    next_label = 0
    placed: list[str] = []
    has_leaf = rng.random() < 0.5

    def reg() -> str:
        return rng.choice(_SCRATCH)

    def src():
        return reg() if rng.random() < 0.5 else rng.randint(-16, 1 << 20)

    for i in range(n_instrs):
        if next_label < n_labels and i == label_slots[next_label]:
            placed.append(a.label(f"L{next_label}"))
            next_label += 1
        roll = rng.random()
        if roll < 0.30:
            op = rng.choice(("add", "sub", "and_", "or_", "xor", "imul"))
            getattr(a, op)(reg(), src())
        elif roll < 0.40:
            a.mov(reg(), src())
        elif roll < 0.48:
            # Mostly in-bounds data traffic; occasionally a wild pointer so
            # mid-block #PF side exits get fuzzed too.
            disp = rng.randrange(0, DATA_SIZE - 8, 8)
            if rng.random() < 0.06:
                disp = DATA_SIZE + rng.randrange(0, 1 << 20, 8)
            if rng.random() < 0.5:
                a.store("rbp", disp, src())
            else:
                a.load(reg(), "rbp", disp)
        elif roll < 0.54:
            if rng.random() < 0.5:
                a.push(reg())
            else:
                a.pop(reg())
        elif roll < 0.60:
            a.cmp(reg(), src())
        elif roll < 0.68 and placed:
            # Branches to already-placed labels (backward) are loops bounded
            # by the watchdog; both execution modes must time out identically.
            target = rng.choice(placed)
            if rng.random() < 0.85:
                a.jcc(rng.choice(_CONDS), target)
            else:
                a.jmp(target)
        elif roll < 0.73:
            a.shl(reg(), rng.randint(0, 70)) if rng.random() < 0.5 else a.shr(
                reg(), rng.randint(0, 70)
            )
        elif roll < 0.78:
            a.inc(reg()) if rng.random() < 0.5 else a.dec(reg())
        elif roll < 0.83:
            kind = rng.random()
            if kind < 0.4:
                a.assert_range(reg(), 0, 1 << rng.randint(8, 64), f"rng{i}")
            elif kind < 0.7:
                a.assert_eq(reg(), rng.randint(0, 8), f"eq{i}")
            else:
                a.assert_eq_reg(reg(), reg(), f"pair{i}")
        elif roll < 0.86:
            a.div(reg(), reg())  # divisor may be zero -> #DE parity
        elif roll < 0.89 and has_leaf:
            a.call("leaf")
        elif roll < 0.92:
            a.rdtsc() if rng.random() < 0.5 else a.cpuid()
        elif roll < 0.95:
            a.mov("rcx", rng.randint(0, 6))
            a.lea("rsi", "rbp", rng.randrange(0, PAGE_SIZE, 8))
            a.lea("rdi", "rbp", PAGE_SIZE + rng.randrange(0, PAGE_SIZE, 8))
            a.rep_movs()
        elif roll < 0.98:
            a.test(reg(), src())
        else:
            a.nop()
    a.halt()
    if has_leaf:
        a.label("leaf")
        a.add(rng.choice(_SCRATCH), rng.randint(1, 9))
        if rng.random() < 0.3:
            a.assert_range(rng.choice(_SCRATCH), 0, (1 << 63) - 1, "leaf_guard")
        a.ret()
    return a.assemble()


def _machine(translate: bool) -> tuple[CPUCore, Memory]:
    mem = Memory()
    mem.map_region(Region("text", TEXT_BASE, PAGE_SIZE, writable=False, executable=True))
    mem.map_region(Region("data", DATA_BASE, DATA_SIZE))
    mem.map_region(Region("stack", STACK_BASE, STACK_SIZE))
    core = CPUCore(0, mem, translate=translate)
    return core, mem


def _seed_registers(core: CPUCore, rng: random.Random) -> None:
    for name in _SCRATCH:
        core.regs.write(name, rng.getrandbits(64))
    core.regs.write("rbp", DATA_BASE)
    core.regs.write("rcx", rng.randint(0, 8))
    core.regs.write("rsi", DATA_BASE)
    core.regs.write("rdi", DATA_BASE + PAGE_SIZE)
    # Mid-stack, sometimes near the edges so push/call deliver #SS.
    slack = rng.choice((0, 8, 64, STACK_SIZE // 2, STACK_SIZE))
    core.regs.write("rsp", STACK_BASE + slack)


def _observe(program, translate: bool, reg_seed: int):
    """Run ``program`` on a fresh machine; return every visible outcome."""
    core, mem = _machine(translate)
    _seed_registers(core, random.Random(reg_seed))
    event: tuple | None = None
    try:
        result = core.run(program, TEXT_BASE, max_instructions=MAX_INSTRUCTIONS)
        exit_op = result.exit_op.value
    except SimulationLimitExceeded:
        exit_op = "watchdog"
    except SimulationEvent as exc:
        exit_op = "fault"
        event = (
            type(exc).__name__,
            getattr(exc, "vector", None),
            getattr(exc, "rip", None),
            getattr(exc, "detail", None),
            getattr(exc, "assertion_id", None),
            getattr(exc, "observed", None),
            getattr(exc, "address", None),
            getattr(exc, "kind", None),
        )
    return {
        "exit": exit_op,
        "event": event,
        "regs": core.regs.snapshot(),
        "count": core.tracer.count,
        "path_hash": core.tracer.path_hash,
        "tsc": core.tsc,
        "asserts": core._assert_checks,
        "pmu": core.pmu.totals(),
        "data": mem.read_block(DATA_BASE, DATA_SIZE),
        "stack": mem.read_block(STACK_BASE, STACK_SIZE),
    }


class TestDifferentialFuzz:
    def test_translated_equals_interpreted(self):
        """200 seeded random programs: every visible outcome bit-identical."""
        mismatches = []
        outcomes = {"vmentry": 0, "halt": 0, "watchdog": 0, "fault": 0}
        for i in range(N_PROGRAMS):
            rng = random.Random(0xD1FF + i)
            program = _random_program(rng)
            reg_seed = rng.getrandbits(32)
            interp = _observe(program, False, reg_seed)
            trans = _observe(program, True, reg_seed)
            if interp != trans:
                keys = [k for k in interp if interp[k] != trans[k]]
                mismatches.append((i, keys, interp["event"], trans["event"]))
            outcomes[interp["exit"]] += 1
        assert not mismatches, f"diverged on {len(mismatches)} programs: {mismatches[:5]}"
        # The corpus must actually exercise both clean exits and faults, or
        # the equivalence above proves less than it claims.
        assert outcomes["halt"] >= 20, outcomes
        assert outcomes["fault"] >= 20, outcomes

    def test_fuzz_corpus_translates_blocks(self):
        """The generated corpus compiles and reuses translated blocks."""
        rng = random.Random(0xD1FF)
        program = _random_program(rng)
        translation = translation_for(program)
        core, _ = _machine(True)
        _seed_registers(core, random.Random(7))
        def run() -> None:
            try:
                core.run(program, TEXT_BASE, max_instructions=MAX_INSTRUCTIONS)
            except SimulationEvent:
                pass

        _, counts = counted(run)
        assert translation.compiled_blocks > 0
        assert CampaignCounters.folded(counts).translated.value > 0
