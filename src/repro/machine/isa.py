"""The toy instruction set.

A small x86-flavored, fixed-width (4 bytes/instruction) 64-bit ISA, rich
enough that hypervisor handlers written in it exhibit the behaviours the paper
studies: data-dependent branches (incorrect-control-flow targets), memory
traffic (load/store counters), ``rep movs`` bulk copies (the Fig. 5a extra-code
example), ``rdtsc`` (time-value delivery, Table II) and ``cpuid``
(trap-and-emulate, Section II.A), plus embedded software assertions
(Listing 1/2).

Instructions are stored decoded; the fixed 4-byte width exists so the
instruction pointer is a genuine byte address — a bit flip in RIP can land
mid-instruction (#UD), on a different valid instruction (incorrect but valid
control flow), or outside the text (#PF/#GP), all of which the paper's
detection paths distinguish.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from repro.errors import AssemblyError
from repro.machine.flags import CONDITION_CODES, CONDITION_TABLES
from repro.machine.registers import MASK64, RegisterFile

__all__ = [
    "INSTRUCTION_BYTES",
    "Op",
    "Operand",
    "Reg",
    "Imm",
    "Mem",
    "Instr",
    "OP_INDEX",
    "Program",
    "BRANCH_OPS",
    "OP_MEM_LOADS",
    "OP_MEM_STORES",
    "STACK_OPS",
    "instr_register_accesses",
    "register_accesses",
]

INSTRUCTION_BYTES = 4


class Op(enum.Enum):
    """Opcodes of the toy ISA."""

    MOV = "mov"          # mov dst, reg|imm
    LOAD = "load"        # load dst, [base+disp]
    STORE = "store"      # store [base+disp], src
    LEA = "lea"          # lea dst, [base+disp]
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMUL = "imul"
    DIV = "div"          # dst //= src ; #DE when src == 0
    SHL = "shl"
    SHR = "shr"
    CMP = "cmp"
    TEST = "test"
    INC = "inc"
    DEC = "dec"
    JMP = "jmp"
    JCC = "jcc"          # jcc <cond>, label  (assembler accepts je/jne/...)
    CALL = "call"
    RET = "ret"
    PUSH = "push"
    POP = "pop"
    REP_MOVS = "rep_movs"  # copy rcx words from [rsi] to [rdi]
    RDTSC = "rdtsc"      # rax <- low 32 of TSC, rdx <- high 32
    CPUID = "cpuid"      # leaf in rax -> rax,rbx,rcx,rdx
    ASSERT_RANGE = "assert_range"  # assert lo <= reg <= hi
    ASSERT_EQ = "assert_eq"        # assert reg == imm
    ASSERT_EQ_REG = "assert_eq_reg"  # assert dst == src (redundancy check)
    NOP = "nop"
    VMENTRY = "vmentry"  # terminator: hand control back to the guest
    HALT = "halt"        # terminator: stop this execution (idle loop)


#: Opcodes counted by the BR_INST_RETIRED performance counter.
BRANCH_OPS: frozenset[Op] = frozenset({Op.JMP, Op.JCC, Op.CALL, Op.RET})

# Per-op performance-counter metadata.  These tables are the single source of
# truth for how many MEM_LOADS/MEM_STORES events one successful execution of
# an opcode retires (REP_MOVS is the exception: it counts per copied word and
# is listed here with its fixed-cost contribution of zero).  Both the
# translator's per-block batched counter deltas and the counter-semantics
# pinning test derive from them, so translation cannot silently change counts.
OP_MEM_LOADS: dict[Op, int] = {Op.LOAD: 1, Op.POP: 1, Op.RET: 1}
OP_MEM_STORES: dict[Op, int] = {Op.STORE: 1, Op.PUSH: 1, Op.CALL: 1}

#: Opcodes whose memory access targets the stack: a fatal page fault during
#: that access is architecturally delivered as #SS, not #PF (and the access
#: happens *before* the op's load/store counter bump, so a faulting stack op
#: retires no memory event).
STACK_OPS: frozenset[Op] = frozenset({Op.PUSH, Op.POP, Op.CALL, Op.RET})


class Operand:
    """Marker base class for instruction operands."""

    __slots__ = ()


@dataclass(frozen=True)
class Reg(Operand):
    """A register operand, pre-resolved to its architectural index."""

    name: str
    index: int = field(compare=False, default=-1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", RegisterFile.index_of(self.name))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm(Operand):
    """A 64-bit immediate operand."""

    value: int

    def __str__(self) -> str:
        return f"{self.value:#x}" if abs(self.value) > 9 else str(self.value)


@dataclass(frozen=True)
class Mem(Operand):
    """A ``[base + disp]`` memory operand."""

    base: Reg
    disp: int = 0

    def __str__(self) -> str:
        if self.disp:
            sign = "+" if self.disp >= 0 else "-"
            return f"[{self.base}{sign}{abs(self.disp)}]"
        return f"[{self.base}]"


#: Stable dense index per opcode (fast dispatch without enum hashing).
OP_INDEX: dict[Op, int] = {op: i for i, op in enumerate(Op)}


@dataclass(frozen=True)
class Instr:
    """One decoded instruction.

    ``target`` holds the byte address for control transfers (resolved by the
    assembler), ``cond`` the condition code for :attr:`Op.JCC`, and
    ``assert_id``/``lo``/``hi`` parameterize assertion pseudo-ops.

    ``op_index``/``is_branch``/``is_terminator`` are precomputed execution
    metadata so the CPU's hot loop avoids enum hashing.
    """

    op: Op
    dst: Operand | None = None
    src: Operand | None = None
    target: int | None = None
    cond: str | None = None
    assert_id: str | None = None
    lo: int = 0
    hi: int = 0
    label: str | None = None  # unresolved target label (pre-assembly)
    op_index: int = field(init=False, compare=False, default=-1)
    is_branch: bool = field(init=False, compare=False, default=False)
    is_terminator: bool = field(init=False, compare=False, default=False)
    # Flattened operand metadata (also precomputed): the interpreter reads
    # operands through these single-hop fields instead of chasing
    # ``instr.src.base.index``-style chains on every retirement.
    dst_index: int = field(init=False, compare=False, default=-1)
    src_is_reg: bool = field(init=False, compare=False, default=False)
    src_index: int = field(init=False, compare=False, default=-1)
    src_imm: int = field(init=False, compare=False, default=0)
    mem_base_index: int = field(init=False, compare=False, default=-1)
    mem_disp: int = field(init=False, compare=False, default=0)
    #: JCC truth table over (CF, ZF, SF, OF) — see ``flags.CONDITION_TABLES``.
    cond_table: int = field(init=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.op is Op.JCC:
            if self.cond not in CONDITION_CODES:
                raise AssemblyError(f"unknown condition code {self.cond!r}")
            object.__setattr__(self, "cond_table", CONDITION_TABLES[self.cond])
        object.__setattr__(self, "op_index", OP_INDEX[self.op])
        object.__setattr__(self, "is_branch", self.op in BRANCH_OPS)
        object.__setattr__(
            self, "is_terminator", self.op is Op.VMENTRY or self.op is Op.HALT
        )
        if type(self.dst) is Reg:
            object.__setattr__(self, "dst_index", self.dst.index)
        src = self.src
        if type(src) is Reg:
            object.__setattr__(self, "src_is_reg", True)
            object.__setattr__(self, "src_index", src.index)
        elif type(src) is Imm:
            object.__setattr__(self, "src_imm", src.value & MASK64)
        mem = src if type(src) is Mem else (self.dst if type(self.dst) is Mem else None)
        if mem is not None:
            object.__setattr__(self, "mem_base_index", mem.base.index)
            object.__setattr__(self, "mem_disp", mem.disp)

    def __str__(self) -> str:
        parts = [self.op.value if self.op is not Op.JCC else f"j{self.cond}"]
        ops = [str(o) for o in (self.dst, self.src) if o is not None]
        if self.label is not None:
            ops.append(self.label)
        elif self.target is not None:
            ops.append(f"{self.target:#x}")
        if self.op in (Op.ASSERT_RANGE, Op.ASSERT_EQ):
            ops.append(f"{self.lo}..{self.hi}" if self.op is Op.ASSERT_RANGE else f"{self.hi}")
            ops.append(str(self.assert_id))
        return parts[0] + (" " + ", ".join(ops) if ops else "")


# Register indices the access sets below name (RIP is never listed).
_RAX = RegisterFile.index_of("rax")
_RBX = RegisterFile.index_of("rbx")
_RCX = RegisterFile.index_of("rcx")
_RDX = RegisterFile.index_of("rdx")
_RSI = RegisterFile.index_of("rsi")
_RDI = RegisterFile.index_of("rdi")
_RSP = RegisterFile.index_of("rsp")
_RFLAGS = RegisterFile.index_of("rflags")


def instr_register_accesses(instr: Instr) -> tuple[frozenset[int], frozenset[int]]:
    """:func:`register_accesses`, memoized on the (static) instruction object:
    the injector's watch loop calls this once per retired instruction while a
    flipped register is live, so recomputation would dominate that window.
    """
    cached = instr.__dict__.get("_accesses")
    if cached is not None:
        return cached
    result = register_accesses(instr)
    object.__setattr__(instr, "_accesses", result)  # frozen dataclass, no slots
    return result


def register_accesses(instr: Instr) -> tuple[frozenset[int], frozenset[int]]:
    """Return ``(reads, writes)`` register-index sets for ``instr``.

    RIP is deliberately excluded (every instruction touches it); flips in RIP
    are always considered activated by the injector.  The sets drive the
    activated/non-activated classification of injected faults.  Computed
    afresh: a caller with a cache of its own leaves the instruction
    untouched (:mod:`repro.machine.lockstep`'s mask tables).
    """
    op = instr.op
    reads: set[int] = set()
    writes: set[int] = set()

    def _src_reads() -> None:
        if isinstance(instr.src, Reg):
            reads.add(instr.src.index)
        elif isinstance(instr.src, Mem):
            reads.add(instr.src.base.index)

    if op is Op.MOV:
        _src_reads()
        writes.add(instr.dst.index)  # type: ignore[union-attr]
    elif op in (Op.LOAD, Op.LEA):
        reads.add(instr.src.base.index)  # type: ignore[union-attr]
        writes.add(instr.dst.index)  # type: ignore[union-attr]
    elif op is Op.STORE:
        reads.add(instr.dst.base.index)  # type: ignore[union-attr]
        if isinstance(instr.src, Reg):
            reads.add(instr.src.index)
    elif op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.IMUL, Op.DIV, Op.SHL, Op.SHR):
        reads.add(instr.dst.index)  # type: ignore[union-attr]
        _src_reads()
        writes.add(instr.dst.index)  # type: ignore[union-attr]
        writes.add(_RFLAGS)
    elif op in (Op.CMP, Op.TEST):
        reads.add(instr.dst.index)  # type: ignore[union-attr]
        _src_reads()
        writes.add(_RFLAGS)
    elif op in (Op.INC, Op.DEC):
        reads.add(instr.dst.index)  # type: ignore[union-attr]
        writes.add(instr.dst.index)  # type: ignore[union-attr]
        writes.add(_RFLAGS)
    elif op is Op.JCC:
        reads.add(_RFLAGS)
    elif op is Op.CALL:
        reads.add(_RSP)
        writes.add(_RSP)
    elif op is Op.RET:
        reads.add(_RSP)
        writes.add(_RSP)
    elif op is Op.PUSH:
        reads.add(_RSP)
        reads.add(instr.src.index)  # type: ignore[union-attr]
        writes.add(_RSP)
    elif op is Op.POP:
        reads.add(_RSP)
        writes.add(_RSP)
        writes.add(instr.dst.index)  # type: ignore[union-attr]
    elif op is Op.REP_MOVS:
        reads.update((_RCX, _RSI, _RDI))
        writes.update((_RCX, _RSI, _RDI))
    elif op is Op.RDTSC:
        writes.update((_RAX, _RDX))
    elif op is Op.CPUID:
        reads.add(_RAX)
        writes.update((_RAX, _RBX, _RCX, _RDX))
    elif op in (Op.ASSERT_RANGE, Op.ASSERT_EQ):
        reads.add(instr.dst.index)  # type: ignore[union-attr]
    elif op is Op.ASSERT_EQ_REG:
        reads.add(instr.dst.index)  # type: ignore[union-attr]
        reads.add(instr.src.index)  # type: ignore[union-attr]
    # JMP/NOP/VMENTRY/HALT touch nothing but RIP.
    return (frozenset(reads), frozenset(writes))


class Program:
    """An assembled unit of code: instructions plus resolved labels.

    A program occupies ``len(instructions) * INSTRUCTION_BYTES`` bytes starting
    at :attr:`base`; :meth:`instruction_at` maps a byte address back to the
    decoded instruction (or ``None`` for misaligned/out-of-range addresses,
    which the CPU turns into #UD).
    """

    __slots__ = ("base", "instructions", "labels", "_digest", "_translation")

    def __init__(self, base: int, instructions: list[Instr], labels: dict[str, int]) -> None:
        self.base = base
        self.instructions: tuple[Instr, ...] = tuple(instructions)
        #: label -> absolute byte address
        self.labels = dict(labels)
        # Lazy identity/translation state (see text_digest and
        # repro.machine.translator): programs with equal digests share one
        # compiled-block set process-wide.
        self._digest: str | None = None
        self._translation = None

    def text_digest(self) -> str:
        """Stable fingerprint of the program text's execution semantics.

        Hashes the base address plus every field the CPU (interpreter or
        translated block) reads from each decoded instruction, so two
        programs digest equal iff they execute identically at every address.
        The translation cache keys compiled blocks by this digest.
        """
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(str(self.base).encode())
            for ins in self.instructions:
                h.update(
                    repr((
                        ins.op_index, ins.dst_index, ins.src_is_reg,
                        ins.src_index, ins.src_imm, ins.mem_base_index,
                        ins.mem_disp, ins.target, ins.cond_table,
                        ins.lo, ins.hi, ins.assert_id,
                    )).encode()
                )
            self._digest = h.hexdigest()
        return self._digest

    @property
    def size(self) -> int:
        """Size of the program text in bytes."""
        return len(self.instructions) * INSTRUCTION_BYTES

    @property
    def end(self) -> int:
        return self.base + self.size

    def address_of(self, label: str) -> int:
        """Absolute byte address of ``label``."""
        try:
            return self.labels[label]
        except KeyError:
            raise AssemblyError(f"unknown label {label!r}") from None

    def instruction_at(self, address: int) -> Instr | None:
        """Decode the instruction at byte address ``address``.

        Returns ``None`` when the address is misaligned or outside the text —
        the hardware analogue is fetching garbage bytes, which the CPU reports
        as #UD.
        """
        offset = address - self.base
        if offset < 0 or offset >= self.size or offset % INSTRUCTION_BYTES:
            return None
        return self.instructions[offset // INSTRUCTION_BYTES]

    def __len__(self) -> int:
        return len(self.instructions)

    def listing(self) -> str:
        """Human-readable disassembly with addresses and labels."""
        by_addr: dict[int, list[str]] = {}
        for name, addr in self.labels.items():
            by_addr.setdefault(addr, []).append(name)
        lines: list[str] = []
        for i, instr in enumerate(self.instructions):
            addr = self.base + i * INSTRUCTION_BYTES
            for name in by_addr.get(addr, ()):
                lines.append(f"{name}:")
            lines.append(f"  {addr:#010x}  {instr}")
        return "\n".join(lines)
