"""The machine substrate: a functional full-system CPU simulator.

Plays the role Simics plays in the paper (Section V.A): it executes the
hypervisor's code for real — register file, paged memory, hardware exceptions,
performance counters — so that injected bit flips produce genuine
architectural behaviour rather than sampled outcomes.
"""

from repro.machine.assembler import Assembler, parse_asm
from repro.machine.cpu import (
    CPUCore,
    DEFAULT_CPUID_TABLE,
    ExecutionResult,
    InjectionReport,
)
from repro.machine.exceptions import (
    AssertionViolation,
    FATAL_VECTORS,
    HardwareException,
    PageFaultKind,
    Vector,
    classify_exception,
    raise_stack_fault,
)
from repro.machine.flags import CONDITION_CODES
from repro.machine.isa import (
    BRANCH_OPS,
    Imm,
    INSTRUCTION_BYTES,
    Instr,
    Mem,
    Op,
    Program,
    Reg,
    instr_register_accesses,
)
from repro.machine.memory import Memory, MemoryCheckpoint, PAGE_SIZE, Region, is_canonical
from repro.machine.perfcounters import CounterSample, Event, PerformanceCounterUnit
from repro.machine.registers import (
    ALL_REGISTERS,
    GPR_NAMES,
    INJECTABLE_REGISTERS,
    MASK64,
    RegisterFile,
)
from repro.machine.tracer import Tracer
from repro.machine.translator import (
    CACHE,
    ProgramTranslation,
    TranslationCache,
    translation_for,
)

__all__ = [
    "ALL_REGISTERS",
    "Assembler",
    "AssertionViolation",
    "BRANCH_OPS",
    "CACHE",
    "CONDITION_CODES",
    "CPUCore",
    "CounterSample",
    "DEFAULT_CPUID_TABLE",
    "Event",
    "ExecutionResult",
    "FATAL_VECTORS",
    "GPR_NAMES",
    "HardwareException",
    "INJECTABLE_REGISTERS",
    "INSTRUCTION_BYTES",
    "Imm",
    "InjectionReport",
    "Instr",
    "MASK64",
    "Mem",
    "Memory",
    "MemoryCheckpoint",
    "Op",
    "PAGE_SIZE",
    "PageFaultKind",
    "PerformanceCounterUnit",
    "Program",
    "ProgramTranslation",
    "Reg",
    "Region",
    "RegisterFile",
    "Tracer",
    "TranslationCache",
    "Vector",
    "classify_exception",
    "instr_register_accesses",
    "is_canonical",
    "parse_asm",
    "raise_stack_fault",
    "translation_for",
]
