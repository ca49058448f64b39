"""CPU core: fetch/decode/execute with fault-injection hooks.

One :class:`CPUCore` models a logical core executing host-mode (hypervisor)
code.  The core owns the architectural register file, a performance-counter
bank, a tracer, and a time-stamp counter; memory is shared machine state.

Fault injection is a first-class citizen: :meth:`CPUCore.schedule_register_flip`
arms a single-bit flip to be applied immediately before a chosen *dynamic*
instruction, after which the core tracks whether the flipped register is read
before it is overwritten — the paper's activated/non-activated distinction
(Section V.B: "Only soft errors occurring before reading registers can be
activated").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import MachineConfigError, SimulationLimitExceeded
from repro.machine.exceptions import (
    AssertionViolation,
    HardwareException,
    PageFaultKind,
    Vector,
    raise_stack_fault,
)
from repro.machine.flags import add_flags, sub_flags, update_flags_logic
from repro.machine.isa import (
    INSTRUCTION_BYTES,
    OP_INDEX,
    Instr,
    Op,
    Program,
    instr_register_accesses,
)
from repro.machine.loopproof import PROBE_AT, LoopProbe
from repro.machine.memory import Memory, is_canonical
from repro.machine.perfcounters import PerformanceCounterUnit
from repro.machine.registers import MASK64, RegisterFile
from repro.machine.tracer import _FNV_PRIME, Tracer
from repro.machine import translator as _translator
from repro.machine.translator import translation_for
from repro.metrics import COUNTERS

__all__ = [
    "CPUCore",
    "ExecutionResult",
    "InjectionReport",
    "DEFAULT_CPUID_TABLE",
]

_RIP = RegisterFile.index_of("rip")
_RSP = RegisterFile.index_of("rsp")
_RFLAGS = RegisterFile.index_of("rflags")
_RAX = RegisterFile.index_of("rax")
_RBX = RegisterFile.index_of("rbx")
_RCX = RegisterFile.index_of("rcx")
_RDX = RegisterFile.index_of("rdx")
_RSI = RegisterFile.index_of("rsi")
_RDI = RegisterFile.index_of("rdi")

# Execution-mix counters, bound once (see repro.metrics).
_TRANSLATED = COUNTERS.translated
_INTERPRETED = COUNTERS.interpreted
_BLOCK_EXECUTIONS = COUNTERS.block_executions

# VMENTRY/HALT are the last two enum members, so one >= comparison on the
# dense op index classifies both terminators.
_TERMINATOR_MIN = OP_INDEX[Op.VMENTRY]
assert _TERMINATOR_MIN == len(OP_INDEX) - 2  # VMENTRY, HALT close the enum

# Stack-access #SS conversion — one implementation shared with the
# translated-block codegen (see repro.machine.exceptions.raise_stack_fault).
_raise_stack_fault = raise_stack_fault


#: Deterministic CPUID leaves: leaf -> (eax, ebx, ecx, edx).  Values echo a
#: Xeon-like identification block; what matters for the reproduction is that
#: the hypervisor's trap-and-emulate path produces *specific* values a guest
#: will consume (the Section II.A long-latency example).
DEFAULT_CPUID_TABLE: dict[int, tuple[int, int, int, int]] = {
    0x0: (0x0000000B, 0x756E6547, 0x6C65746E, 0x49656E69),  # "GenuineIntel"
    0x1: (0x000106A5, 0x00100800, 0x009CE3BD, 0xBFEBFBFF),  # family/model/features
    0x2: (0x55035A01, 0x00F0B2E4, 0x00000000, 0x09CA212C),
    0x4: (0x1C004121, 0x01C0003F, 0x0000003F, 0x00000000),
    0x80000000: (0x80000008, 0, 0, 0),
    0x80000008: (0x00003028, 0, 0, 0),
}


@dataclass(frozen=True)
class InjectionReport:
    """What happened to a scheduled fault after the run."""

    applied: bool
    register: str
    bit: int
    dynamic_index: int
    #: True when the flipped value was read before being overwritten; None
    #: when the run ended before the register was touched again (treated as
    #: non-activated, same as the paper's non-activated errors).
    activated: bool | None
    activation_index: int | None


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one host-mode execution that ran to a terminator."""

    exit_op: Op                 # VMENTRY or HALT
    instructions: int           # dynamic instructions retired (tracer count)
    final_rip: int
    path_hash: int
    tsc_end: int
    assertion_checks: int = 0   # how many assertion predicates were evaluated


class CPUCore:
    """A logical core executing toy-ISA programs against shared memory."""

    def __init__(
        self,
        core_id: int,
        memory: Memory,
        *,
        tsc_start: int = 1_000_000,
        tsc_per_instruction: int = 1,
        cpuid_table: dict[int, tuple[int, int, int, int]] | None = None,
        translate: bool = True,
    ) -> None:
        if core_id < 0:
            raise MachineConfigError("core_id must be non-negative")
        self.core_id = core_id
        self.memory = memory
        self.regs = RegisterFile()
        self.pmu = PerformanceCounterUnit()
        self.tracer = Tracer()
        self.tsc = tsc_start
        self.tsc_per_instruction = tsc_per_instruction
        self.cpuid_table = dict(DEFAULT_CPUID_TABLE if cpuid_table is None else cpuid_table)
        #: Execute through cached translated blocks where possible (the
        #: interpreter remains the oracle; ``translate=False`` forces it).
        self.translate = translate
        #: Attempt exact runaway-loop proofs when a full-budget run spins
        #: (see repro.machine.loopproof; ``False`` forces concrete execution).
        self.loop_proof = True
        # Injection state
        self._inj_index: int | None = None
        self._inj_reg: str | None = None
        self._inj_bit = 0
        #: Multi-flip set: ``None`` for the classic single-bit path,
        #: otherwise every (register, bit) pair applied at the injection
        #: index (multi-bit upsets and time-correlated bursts).
        self._inj_flips: tuple[tuple[str, int], ...] | None = None
        self._inj_applied = False
        self._inj_known: int | None = None
        self._watch_reg: int | None = None
        self._activated: bool | None = None
        self._activation_index: int | None = None
        self._assert_checks = 0
        exec_map: dict[Op, Callable[[Instr], int | None]] = {
            Op.MOV: self._op_mov,
            Op.LOAD: self._op_load,
            Op.STORE: self._op_store,
            Op.LEA: self._op_lea,
            Op.ADD: self._op_add,
            Op.SUB: self._op_sub,
            Op.AND: self._op_and,
            Op.OR: self._op_or,
            Op.XOR: self._op_xor,
            Op.IMUL: self._op_imul,
            Op.DIV: self._op_div,
            Op.SHL: self._op_shl,
            Op.SHR: self._op_shr,
            Op.CMP: self._op_cmp,
            Op.TEST: self._op_test,
            Op.INC: self._op_inc,
            Op.DEC: self._op_dec,
            Op.JMP: self._op_jmp,
            Op.JCC: self._op_jcc,
            Op.CALL: self._op_call,
            Op.RET: self._op_ret,
            Op.PUSH: self._op_push,
            Op.POP: self._op_pop,
            Op.REP_MOVS: self._op_rep_movs,
            Op.RDTSC: self._op_rdtsc,
            Op.CPUID: self._op_cpuid,
            Op.ASSERT_RANGE: self._op_assert_range,
            Op.ASSERT_EQ: self._op_assert_eq,
            Op.ASSERT_EQ_REG: self._op_assert_eq_reg,
            Op.NOP: self._op_nop,
        }
        # Dense dispatch table indexed by Instr.op_index (no enum hashing on
        # the hot path).  Terminators have no executor.
        self._exec_list: list[Callable[[Instr], int | None] | None] = [
            exec_map.get(op) for op in Op
        ]

    # -- fault injection ------------------------------------------------------

    def schedule_register_flip(
        self,
        dynamic_index: int,
        register: str,
        bit: int,
        *,
        known_activation: int | None = None,
    ) -> None:
        """Arm a single-bit flip in ``register`` before dynamic instruction
        ``dynamic_index`` (0-based) of the next :meth:`run`.

        ``known_activation`` is the lock-step scan's analytic activation
        index: the golden trace proved the register's first access after
        the flip is a *read* at that dynamic index, so the activation
        watch (which forces per-instruction visibility on blocks touching
        the register) is skipped entirely and the report is settled the
        moment the flip applies.
        """
        RegisterFile.index_of(register)  # validate eagerly
        if not 0 <= bit < 64:
            raise MachineConfigError(f"bit index {bit} outside [0, 64)")
        if dynamic_index < 0:
            raise MachineConfigError("dynamic_index must be non-negative")
        self._inj_index = dynamic_index
        self._inj_reg = register
        self._inj_bit = bit
        self._inj_flips = None
        self._inj_applied = False
        self._inj_known = known_activation
        self._watch_reg = None
        self._activated = None
        self._activation_index = None

    def schedule_flip_set(
        self,
        dynamic_index: int,
        flips: tuple[tuple[str, int], ...],
        *,
        known_activation: int | None = None,
    ) -> None:
        """Arm several bit flips striking atomically before dynamic
        instruction ``dynamic_index`` of the next :meth:`run`.

        Single-register sets (multi-bit upsets) keep the normal activation
        watch; sets spanning registers (bursts) have no single register to
        watch, so the report's ``activated`` stays ``None`` and callers
        infer activation from divergence (exactly like memory faults).
        ``known_activation`` is honored only for single-register sets.
        """
        flips = tuple(flips)
        if not flips:
            raise MachineConfigError("flip set must not be empty")
        for register, bit in flips:
            RegisterFile.index_of(register)  # validate eagerly
            if not 0 <= bit < 64:
                raise MachineConfigError(f"bit index {bit} outside [0, 64)")
        if dynamic_index < 0:
            raise MachineConfigError("dynamic_index must be non-negative")
        self._inj_index = dynamic_index
        self._inj_reg = flips[0][0]
        self._inj_bit = flips[0][1]
        self._inj_flips = flips
        self._inj_applied = False
        self._inj_known = known_activation
        self._watch_reg = None
        self._activated = None
        self._activation_index = None

    def clear_injection(self) -> None:
        """Disarm any scheduled fault."""
        self._inj_index = None
        self._inj_reg = None
        self._inj_flips = None
        self._inj_applied = False
        self._inj_known = None
        self._watch_reg = None

    def park_injection(self) -> tuple:
        """Disarm the injection state and return it whole (pending flip,
        activation watch and report) for :meth:`unpark_injection`, so a
        fault-free run can execute in the middle of a faulty one."""
        parked = (
            self._inj_index, self._inj_reg, self._inj_bit, self._inj_flips,
            self._inj_applied, self._inj_known, self._watch_reg,
            self._activated, self._activation_index,
        )
        self.clear_injection()
        return parked

    def unpark_injection(self, parked: tuple) -> None:
        """Reinstate what :meth:`park_injection` returned."""
        (
            self._inj_index, self._inj_reg, self._inj_bit, self._inj_flips,
            self._inj_applied, self._inj_known, self._watch_reg,
            self._activated, self._activation_index,
        ) = parked

    @property
    def injection_report(self) -> InjectionReport | None:
        """Report of the most recently scheduled fault, if any."""
        if self._inj_reg is None:
            return None
        return InjectionReport(
            applied=self._inj_applied,
            register=self._inj_reg,
            bit=self._inj_bit,
            dynamic_index=self._inj_index if self._inj_index is not None else -1,
            activated=self._activated,
            activation_index=self._activation_index,
        )

    def _apply_injection(self, count: int) -> None:
        # ``count`` is the dispatch loop's buffered dynamic-instruction count
        # (the tracer's own counter lags it while the loop runs).
        assert self._inj_reg is not None
        flips = self._inj_flips
        if flips is not None and len(flips) > 1:
            self._apply_flip_set(flips, count)
            return
        self.regs.flip_bit(self._inj_reg, self._inj_bit)
        self._inj_applied = True
        reg_index = RegisterFile.index_of(self._inj_reg)
        if reg_index == _RIP:
            # Control is transferred through RIP on the very next fetch:
            # always activated, immediately.
            self._activated = True
            self._activation_index = count
        elif self._inj_known is not None:
            # The lock-step scan proved the first access is a read at this
            # index; settle the report without arming the watch so the run
            # stays on the translated path.
            self._activated = True
            self._activation_index = self._inj_known
        else:
            self._watch_reg = reg_index

    def _apply_flip_set(self, flips: tuple[tuple[str, int], ...], count: int) -> None:
        for register, bit in flips:
            self.regs.flip_bit(register, bit)
        self._inj_applied = True
        reg_indices = {RegisterFile.index_of(register) for register, _ in flips}
        if _RIP in reg_indices:
            self._activated = True
            self._activation_index = count
        elif len(reg_indices) == 1:
            reg_index = next(iter(reg_indices))
            if self._inj_known is not None:
                self._activated = True
                self._activation_index = self._inj_known
            else:
                self._watch_reg = reg_index
        # Multi-register burst: no single register to watch — the report's
        # ``activated`` stays None and callers infer it from divergence.

    def _watch(self, instr: Instr, count: int) -> None:
        reads, writes = instr_register_accesses(instr)
        reg = self._watch_reg
        if reg in reads:
            self._activated = True
            self._activation_index = count
            self._watch_reg = None
        elif reg in writes:
            self._activated = False
            self._watch_reg = None

    # -- execution ------------------------------------------------------------

    def run(
        self,
        program: Program,
        entry: int,
        *,
        max_instructions: int = 200_000,
    ) -> ExecutionResult:
        """Execute ``program`` from byte address ``entry`` to a terminator.

        Raises :class:`HardwareException` / :class:`AssertionViolation` for
        simulated architectural events and :class:`SimulationLimitExceeded`
        when the watchdog budget is exhausted (a modeled hang).
        """
        self.regs.write_index(_RIP, entry)
        self._assert_checks = 0
        return self._dispatch(program, max_instructions)

    def _dispatch(self, program: Program, budget: int) -> ExecutionResult:
        # Hot loop: every per-iteration attribute load that cannot change
        # mid-run is hoisted into a local, and the per-instruction machine
        # state (dynamic count, path hash, PMU totals, TSC) is buffered in
        # locals — flushed on every exit path by the finally block, and
        # around every interpreted op's handler (rep_movs bumps tracer, PMU
        # and TSC in bulk, rdtsc reads the TSC, memory ops bump the PMU).
        rvals = self.regs._values
        tracer = self.tracer
        pmu = self.pmu
        light = tracer.light
        addresses = tracer.addresses
        tsc_step = self.tsc_per_instruction
        mem_read = self.memory.read_u64
        mem_write = self.memory.write_u64
        ib = INSTRUCTION_BYTES
        # Fast-fetch bounds: addresses inside the program text are decoded by
        # direct indexing; everything else goes through the faulting path.
        text_base = program.base
        text_span = program.end - text_base
        instructions = program.instructions
        exec_list = self._exec_list
        inj_index = self._inj_index
        injecting = inj_index is not None and not self._inj_applied
        watching = self._watch_reg is not None
        m64 = MASK64
        fnv = _FNV_PRIME
        i_rip = _RIP
        term_min = _TERMINATOR_MIN

        count = tracer.count
        path_hash = tracer.path_hash
        p_inst = pmu._inst
        p_br = pmu._br
        p_loads = pmu._loads
        p_stores = pmu._stores
        tsc = self.tsc

        # Single hot-loop comparison: the watchdog budget and the runaway-loop
        # probe's next stop share one threshold; the slow path disambiguates,
        # with the budget raise winning when both trip at the same count.
        # The probe (repro.machine.loopproof) arms only with light tracing:
        # it records its window through the full-trace branch below, and a
        # full trace must execute concretely anyway.
        probe = (
            LoopProbe(program, self.memory, rvals, budget, count)
            if self.loop_proof and light and budget > count + PROBE_AT
            else None
        )
        pause = budget if probe is None else probe.due

        # Translated blocks run only from in-text addresses, where a block's
        # batched accounting matches what per-instruction interpretation
        # would have done.  A full trace stays on the translated path: a
        # block that retires k instructions logs its first k ``meta.addrs``,
        # on normal and side exits alike — exactly the addresses
        # interpretation would have logged.  A pending injection needs
        # per-instruction visibility (``block_limit`` stops blocks short of
        # the flip), and a live activation watch interprets any block that
        # touches the watched register — blocks that cannot resolve the
        # watch (``meta.touched``) still run translated.
        use_trans = self.translate and text_span > 0
        if use_trans:
            translation = translation_for(program)
            blocks = translation.blocks
            compile_block = translation.compile_block
            heat = translation.heat
            # Read through the module so tests can pin the threshold to 1.
            threshold = _translator.COMPILE_THRESHOLD
        else:
            blocks = compile_block = heat = None  # type: ignore[assignment]
            threshold = 0
        fast = use_trans and not watching
        # A block only runs when it retires entirely before the next stop:
        # the pause/budget threshold always, and the injection index while a
        # flip is pending (the trial interprets from the injection point on).
        block_limit = inj_index if injecting and inj_index < pause else pause
        t_instr = 0
        t_blocks = 0
        count0 = count

        try:
            while True:
                if count >= pause:
                    if count >= budget:
                        raise SimulationLimitExceeded(budget)
                    # count < budget, so this stop belongs to the probe.
                    pause = probe.at_pause(count, injecting or watching)
                    skipped = probe.skipped
                    if skipped:
                        # Proved runaway: retire the rest of the budget at
                        # once and deliver the watchdog kill.
                        count += skipped
                        p_inst += skipped
                        tsc += tsc_step * skipped
                        raise SimulationLimitExceeded(budget)
                    # While the probe records its window, the window stands
                    # in for the full trace (it arms only under light
                    # tracing, so light tracing resumes after).
                    addresses = probe.window
                    light = addresses is None
                    block_limit = (
                        inj_index if injecting and inj_index < pause else pause
                    )
                    continue
                rip = rvals[i_rip]
                if injecting and count >= inj_index:
                    self._apply_injection(count)
                    injecting = False
                    watching = self._watch_reg is not None
                    fast = use_trans and not watching
                    block_limit = pause
                    rip = rvals[i_rip]
                offset = rip - text_base
                if 0 <= offset < text_span and not offset & 3:
                    if use_trans:
                        idx = offset >> 2
                        entry = blocks[idx]
                        if entry is None:
                            # Warmth-gated compilation: interpret cold
                            # entries (one-off side entries never amortize
                            # trace compilation); compile at the threshold.
                            warmth = heat[idx] + 1
                            if warmth >= threshold:
                                entry = compile_block(idx)
                            else:
                                heat[idx] = warmth
                                entry = False
                        if (
                            entry is not False
                            and count + entry[1] <= block_limit
                            and (
                                fast
                                or not entry[6].touched >> self._watch_reg & 1
                            )
                        ):
                            try:
                                (
                                    path_hash, n, nbr, nld, nst, nak,
                                ) = entry[0](rvals, mem_read, mem_write, path_hash)
                            except (HardwareException, AssertionViolation) as exc:
                                # Precise side exit: re-synchronize counters,
                                # hash and RIP for the partially retired
                                # prefix — the faulting instruction retires
                                # (count/inst/tsc, and its branch event for a
                                # faulting CALL/RET) but not its memory event
                                # — then deliver the exception exactly as the
                                # interpreter would have.
                                meta = entry[6]
                                k = meta.index_of[exc.rip]
                                retired = k + 1
                                count += retired
                                p_inst += retired
                                tsc += tsc_step * retired
                                p_loads += meta.loads_before[k]
                                p_stores += meta.stores_before[k]
                                p_br += meta.branches_through[k]
                                self._assert_checks += meta.asserts_through[k]
                                for a in meta.addrs[:retired]:
                                    path_hash = ((path_hash ^ a) * fnv) & m64
                                if not light:
                                    addresses.extend(meta.addrs[:retired])
                                t_instr += retired
                                rvals[i_rip] = exc.rip
                                raise
                            count += n
                            p_inst += n
                            p_br += nbr
                            p_loads += nld
                            p_stores += nst
                            tsc += tsc_step * n
                            if nak:
                                self._assert_checks += nak
                            t_instr += n
                            t_blocks += 1
                            if not light:
                                addresses.extend(entry[6].addrs[:n])
                            continue
                    instr = instructions[offset >> 2]
                else:
                    instr = self._fetch(program, rip)
                if watching:
                    # (Terminators access no register: the watch ignores them.)
                    self._watch(instr, count)
                    watching = self._watch_reg is not None
                    if not watching:
                        fast = use_trans
                count += 1
                path_hash = ((path_hash ^ rip) * fnv) & m64
                if not light:
                    addresses.append(rip)
                p_inst += 1
                tsc += tsc_step
                oi = instr.op_index
                if oi >= term_min:
                    return ExecutionResult(
                        exit_op=instr.op,
                        instructions=count,
                        final_rip=rip,
                        path_hash=path_hash,
                        tsc_end=tsc,
                        assertion_checks=self._assert_checks,
                    )
                # One generic tail: the op's handler runs with the buffered
                # state flushed first and reloaded after.
                if instr.is_branch:
                    p_br += 1
                tracer.count = count
                tracer.path_hash = path_hash
                pmu._inst = p_inst
                pmu._br = p_br
                pmu._loads = p_loads
                pmu._stores = p_stores
                self.tsc = tsc
                next_rip = exec_list[oi](instr)  # type: ignore[misc]
                count = tracer.count
                path_hash = tracer.path_hash
                p_inst = pmu._inst
                p_br = pmu._br
                p_loads = pmu._loads
                p_stores = pmu._stores
                tsc = self.tsc
                rvals[i_rip] = (rip + ib) & m64 if next_rip is None else next_rip & m64
        finally:
            tracer.count = count
            tracer.path_hash = path_hash
            pmu._inst = p_inst
            pmu._br = p_br
            pmu._loads = p_loads
            pmu._stores = p_stores
            self.tsc = tsc
            # The execution mix, counted once per dispatch exit.
            if t_instr:
                _TRANSLATED.inc(t_instr)
                if t_blocks:
                    _BLOCK_EXECUTIONS.inc(t_blocks)
            interp = count - count0 - t_instr
            if probe is not None:
                interp -= probe.skipped
            if interp:
                _INTERPRETED.inc(interp)

    def _fetch(self, program: Program, rip: int) -> Instr:
        if not is_canonical(rip):
            raise HardwareException(
                Vector.GENERAL_PROTECTION, rip, address=rip, detail="non-canonical rip"
            )
        region = self.memory.region_at(rip)
        if region is None:
            raise HardwareException(
                Vector.PAGE_FAULT,
                rip,
                address=rip,
                kind=PageFaultKind.FATAL_UNMAPPED,
                detail="instruction fetch from unmapped memory",
            )
        if not region.executable:
            raise HardwareException(
                Vector.PAGE_FAULT,
                rip,
                address=rip,
                kind=PageFaultKind.FATAL_PROTECTION,
                detail=f"instruction fetch from non-executable {region.name}",
            )
        instr = program.instruction_at(rip)
        if instr is None:
            # Mapped, executable, but not a valid instruction boundary:
            # decoding garbage -> invalid opcode.
            raise HardwareException(
                Vector.INVALID_OPCODE, rip, address=rip, detail="misaligned or stray fetch"
            )
        return instr

    # -- instruction semantics ---------------------------------------------------

    # The arithmetic/logic/compare handlers below index the register value
    # list directly (writes are masked in place) and read operands through
    # the Instr's flattened metadata (``dst_index``/``src_is_reg``/...):
    # together they retire most dynamic instructions, and attribute-chain
    # plus read_index/write_index call overhead is the dominant
    # per-instruction cost at this grain.

    def _op_mov(self, instr: Instr) -> None:
        rvals = self.regs._values
        rvals[instr.dst_index] = (
            rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        )

    def _op_load(self, instr: Instr) -> None:
        rvals = self.regs._values
        addr = (rvals[instr.mem_base_index] + instr.mem_disp) & MASK64
        value = self.memory.read_u64(addr, rip=rvals[_RIP])
        self.pmu._loads += 1
        rvals[instr.dst_index] = value

    def _op_store(self, instr: Instr) -> None:
        rvals = self.regs._values
        addr = (rvals[instr.mem_base_index] + instr.mem_disp) & MASK64
        self.memory.write_u64(
            addr,
            rvals[instr.src_index] if instr.src_is_reg else instr.src_imm,
            rip=rvals[_RIP],
        )
        self.pmu._stores += 1

    def _op_lea(self, instr: Instr) -> None:
        rvals = self.regs._values
        rvals[instr.dst_index] = (rvals[instr.mem_base_index] + instr.mem_disp) & MASK64

    def _op_add(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        a = rvals[di]
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        wide = a + b
        rvals[di] = wide & MASK64
        rvals[_RFLAGS] = add_flags(rvals[_RFLAGS], wide, a, b)

    def _op_sub(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        a = rvals[di]
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        wide = a - b
        rvals[di] = wide & MASK64
        rvals[_RFLAGS] = sub_flags(rvals[_RFLAGS], wide, a, b)

    # AND/OR/XOR keep results inside the 64-bit mask by construction (both
    # operands are already masked), so only IMUL/SHL re-mask below.

    def _op_and(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        result = rvals[di] & (rvals[instr.src_index] if instr.src_is_reg else instr.src_imm)
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_or(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        result = rvals[di] | (rvals[instr.src_index] if instr.src_is_reg else instr.src_imm)
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_xor(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        result = rvals[di] ^ (rvals[instr.src_index] if instr.src_is_reg else instr.src_imm)
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_imul(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        result = (
            rvals[di] * (rvals[instr.src_index] if instr.src_is_reg else instr.src_imm)
        ) & MASK64
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_div(self, instr: Instr) -> None:
        rvals = self.regs._values
        divisor = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        if divisor == 0:
            raise HardwareException(
                Vector.DIVIDE_ERROR, rvals[_RIP], detail="division by zero"
            )
        di = instr.dst_index
        quotient = rvals[di] // divisor
        rvals[di] = quotient
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], quotient)

    def _op_shl(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        result = (rvals[di] << (b & 63)) & MASK64
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_shr(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        result = rvals[di] >> (b & 63)
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_cmp(self, instr: Instr) -> None:
        rvals = self.regs._values
        a = rvals[instr.dst_index]
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        rvals[_RFLAGS] = sub_flags(rvals[_RFLAGS], a - b, a, b)

    def _op_test(self, instr: Instr) -> None:
        rvals = self.regs._values
        a = rvals[instr.dst_index]
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], a & b)

    def _op_inc(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        a = rvals[di]
        rvals[di] = (a + 1) & MASK64
        rvals[_RFLAGS] = add_flags(rvals[_RFLAGS], a + 1, a, 1)

    def _op_dec(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        a = rvals[di]
        rvals[di] = (a - 1) & MASK64
        rvals[_RFLAGS] = sub_flags(rvals[_RFLAGS], a - 1, a, 1)

    def _op_jmp(self, instr: Instr) -> int:
        return instr.target  # type: ignore[return-value]

    def _op_jcc(self, instr: Instr) -> int | None:
        f = self.regs._values[_RFLAGS]
        if (instr.cond_table >> ((f & 1) | ((f >> 5) & 6) | ((f >> 8) & 8))) & 1:
            return instr.target
        return None

    # Stack ops guard their memory access inline (a try/except is free when
    # no exception fires; the old closure-per-execution pattern was not),
    # converting fatal page faults into #SS via ``_raise_stack_fault``.

    def _op_call(self, instr: Instr) -> int | None:
        rvals = self.regs._values
        rsp = (rvals[_RSP] - 8) & MASK64
        rip = rvals[_RIP]
        try:
            self.memory.write_u64(rsp, rip + INSTRUCTION_BYTES, rip=rip)
        except HardwareException as exc:
            _raise_stack_fault(exc)
        self.pmu._stores += 1
        rvals[_RSP] = rsp
        return instr.target  # type: ignore[return-value]

    def _op_ret(self, instr: Instr) -> int | None:
        rvals = self.regs._values
        rsp = rvals[_RSP]
        try:
            target = self.memory.read_u64(rsp, rip=rvals[_RIP])
        except HardwareException as exc:
            _raise_stack_fault(exc)
        self.pmu._loads += 1
        rvals[_RSP] = (rsp + 8) & MASK64
        return target

    def _op_push(self, instr: Instr) -> None:
        rvals = self.regs._values
        rsp = (rvals[_RSP] - 8) & MASK64
        try:
            self.memory.write_u64(rsp, rvals[instr.src_index], rip=rvals[_RIP])
        except HardwareException as exc:
            _raise_stack_fault(exc)
        self.pmu._stores += 1
        rvals[_RSP] = rsp

    def _op_pop(self, instr: Instr) -> None:
        rvals = self.regs._values
        rsp = rvals[_RSP]
        try:
            value = self.memory.read_u64(rsp, rip=rvals[_RIP])
        except HardwareException as exc:
            _raise_stack_fault(exc)
        self.pmu._loads += 1
        rvals[instr.dst_index] = value
        rvals[_RSP] = (rsp + 8) & MASK64

    def _op_rep_movs(self, instr: Instr) -> None:
        """Copy ``rcx`` 64-bit words from ``[rsi]`` to ``[rdi]``.

        Executed in bulk for speed, but counted per-word: each copied word
        retires one "instruction" (iteration), one load and one store, so a
        corrupted ``rcx`` visibly stretches the dynamic footprint (Fig. 5a).
        """
        regs = self.regs
        rip = regs.read_index(_RIP)
        count = regs.read_index(_RCX)
        copied = 0
        while copied < count:
            rsi = regs.read_index(_RSI)
            rdi = regs.read_index(_RDI)
            src_ok = self._words_until_fault(rsi, write=False)
            dst_ok = self._words_until_fault(rdi, write=True)
            chunk = min(count - copied, src_ok, dst_ok)
            if chunk == 0:
                # The next word access faults; route through the memory system
                # so the exception carries an accurate faulting address.
                if src_ok == 0:
                    self.memory.read_u64(rsi, rip=rip)
                else:
                    self.memory.write_u64(rdi, 0, rip=rip)
                raise AssertionError("unreachable: fault expected")  # pragma: no cover
            for i in range(chunk):
                value = self.memory.read_u64(rsi + 8 * i, rip=rip)
                self.memory.write_u64(rdi + 8 * i, value, rip=rip)
            copied += chunk
            regs.write_index(_RSI, (rsi + 8 * chunk) & MASK64)
            regs.write_index(_RDI, (rdi + 8 * chunk) & MASK64)
            regs.write_index(_RCX, count - copied)
            # Each copied word retires one extra "iteration instruction" on
            # top of the rep_movs itself, so a corrupted rcx stretches both
            # the RT counter and the dynamic path (Fig. 5a behaviour).
            self.pmu.count_block(chunk, 0, chunk, chunk)
            self.tracer.record_bulk(rip, chunk)
            self.tsc += self.tsc_per_instruction * chunk

    def _words_until_fault(self, address: int, *, write: bool) -> int:
        """How many consecutive 8-byte words starting at ``address`` are safe."""
        if not is_canonical(address):
            return 0
        region = self.memory.region_at(address)
        if region is None:
            return 0
        if (write and not region.writable) or (not write and not region.readable):
            return 0
        return max(0, (region.end - address) // 8)

    def _op_rdtsc(self, instr: Instr) -> None:
        self.regs.write_index(_RAX, self.tsc & 0xFFFFFFFF)
        self.regs.write_index(_RDX, (self.tsc >> 32) & 0xFFFFFFFF)

    def _op_cpuid(self, instr: Instr) -> None:
        leaf = self.regs.read_index(_RAX)
        eax, ebx, ecx, edx = self.cpuid_table.get(leaf & 0xFFFFFFFF, (0, 0, 0, 0))
        self.regs.write_index(_RAX, eax)
        self.regs.write_index(_RBX, ebx)
        self.regs.write_index(_RCX, ecx)
        self.regs.write_index(_RDX, edx)

    def _op_assert_range(self, instr: Instr) -> None:
        self._assert_checks += 1
        value = self.regs.read_index(instr.dst.index)  # type: ignore[union-attr]
        if not instr.lo <= value <= instr.hi:
            raise AssertionViolation(
                instr.assert_id or "<anon>",
                self.regs.read_index(_RIP),
                value,
                detail=f"expected [{instr.lo}, {instr.hi}]",
            )

    def _op_assert_eq(self, instr: Instr) -> None:
        self._assert_checks += 1
        value = self.regs.read_index(instr.dst.index)  # type: ignore[union-attr]
        if value != instr.lo:
            raise AssertionViolation(
                instr.assert_id or "<anon>",
                self.regs.read_index(_RIP),
                value,
                detail=f"expected {instr.lo:#x}",
            )

    def _op_assert_eq_reg(self, instr: Instr) -> None:
        self._assert_checks += 1
        a = self.regs.read_index(instr.dst.index)  # type: ignore[union-attr]
        b = self.regs.read_index(instr.src.index)  # type: ignore[union-attr]
        if a != b:
            raise AssertionViolation(
                instr.assert_id or "<anon>",
                self.regs.read_index(_RIP),
                a,
                detail=f"redundant copies differ: {a:#x} != {b:#x}",
            )

    def _op_nop(self, instr: Instr) -> None:
        return None
