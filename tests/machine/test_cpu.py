"""CPU execution semantics, hardware exceptions, and injection hooks."""

import pytest

from repro.errors import MachineConfigError, SimulationLimitExceeded
from repro.machine import (
    AssertionViolation,
    CPUCore,
    HardwareException,
    Op,
    Vector,
    parse_asm,
)
from repro.machine.isa import instr_register_accesses
from repro.machine.registers import RegisterFile

from tests.conftest import HEAP_BASE, STACK_TOP, TEXT_BASE


def run(cpu, assemble, source, entry="entry", **kw):
    prog = assemble(source)
    return prog, cpu.run(prog, prog.address_of(entry), **kw)


class TestBasicExecution:
    def test_arithmetic_loop(self, cpu, assemble):
        _, res = run(
            cpu,
            assemble,
            """
            entry:
                mov rax, 0
                mov rbx, 0
            loop:
                add rax, rbx
                inc rbx
                cmp rbx, 10
                jl loop
                vmentry
            """,
        )
        assert cpu.regs["rax"] == sum(range(10))
        assert res.exit_op is Op.VMENTRY

    def test_memory_roundtrip_through_heap(self, cpu, assemble):
        run(
            cpu,
            assemble,
            f"""
            entry:
                mov rbp, {HEAP_BASE}
                mov rax, 1234
                store [rbp+16], rax
                load rbx, [rbp+16]
                vmentry
            """,
        )
        assert cpu.regs["rbx"] == 1234

    def test_call_ret_stack_discipline(self, cpu, assemble):
        _, res = run(
            cpu,
            assemble,
            """
            entry:
                mov rax, 1
                call double
                call double
                vmentry
            double:
                add rax, rax
                ret
            """,
        )
        assert cpu.regs["rax"] == 4
        assert cpu.regs["rsp"] == STACK_TOP  # balanced

    def test_push_pop(self, cpu, assemble):
        run(
            cpu,
            assemble,
            """
            entry:
                mov rax, 7
                mov rbx, 9
                push rax
                push rbx
                pop rcx
                pop rdx
                vmentry
            """,
        )
        assert cpu.regs["rcx"] == 9 and cpu.regs["rdx"] == 7

    def test_lea_computes_address_without_access(self, cpu, assemble):
        run(
            cpu,
            assemble,
            """
            entry:
                mov rbp, 0x123400
                lea rax, [rbp+0x38]
                vmentry
            """,
        )
        assert cpu.regs["rax"] == 0x123438

    def test_shifts_and_logic(self, cpu, assemble):
        run(
            cpu,
            assemble,
            """
            entry:
                mov rax, 0b1100
                shl rax, 2
                mov rbx, rax
                shr rbx, 4
                xor rax, rbx
                vmentry
            """,
        )
        assert cpu.regs["rax"] == 0b110000 ^ 0b11

    def test_div_quotient(self, cpu, assemble):
        run(
            cpu,
            assemble,
            """
            entry:
                mov rax, 100
                mov rbx, 7
                div rax, rbx
                vmentry
            """,
        )
        assert cpu.regs["rax"] == 14

    def test_imul(self, cpu, assemble):
        run(cpu, assemble, "entry:\n mov rax, 6\n imul rax, 7\n vmentry")
        assert cpu.regs["rax"] == 42

    def test_rdtsc_advances_with_instructions(self, cpu, assemble):
        run(
            cpu,
            assemble,
            """
            entry:
                rdtsc
                mov rbx, rax
                nop
                nop
                rdtsc
                sub rax, rbx
                vmentry
            """,
        )
        assert cpu.regs["rax"] == 4  # four instructions between the two reads

    def test_cpuid_returns_vendor_leaf(self, cpu, assemble):
        run(cpu, assemble, "entry:\n mov rax, 0\n cpuid\n vmentry")
        assert cpu.regs["rbx"] == 0x756E6547  # "Genu"

    def test_halt_terminator(self, cpu, assemble):
        _, res = run(cpu, assemble, "entry:\n halt")
        assert res.exit_op is Op.HALT


class TestHardwareExceptions:
    def test_unmapped_load_is_page_fault(self, cpu, assemble):
        with pytest.raises(HardwareException) as info:
            run(cpu, assemble, "entry:\n mov rbp, 0x900000\n load rax, [rbp]\n vmentry")
        assert info.value.vector is Vector.PAGE_FAULT

    def test_store_to_text_is_protection_fault(self, cpu, assemble):
        with pytest.raises(HardwareException) as info:
            run(cpu, assemble, f"entry:\n mov rbp, {TEXT_BASE}\n store [rbp], rbp\n vmentry")
        assert info.value.vector is Vector.PAGE_FAULT

    def test_divide_by_zero(self, cpu, assemble):
        with pytest.raises(HardwareException) as info:
            run(cpu, assemble, "entry:\n mov rax, 5\n mov rbx, 0\n div rax, rbx\n vmentry")
        assert info.value.vector is Vector.DIVIDE_ERROR

    def test_stack_fault_on_corrupted_rsp(self, cpu, assemble):
        cpu.regs["rsp"] = 0x40  # unmapped
        with pytest.raises(HardwareException) as info:
            run(cpu, assemble, "entry:\n push rax\n vmentry")
        assert info.value.vector is Vector.STACK_FAULT

    def test_jump_outside_text_is_fetch_fault(self, cpu, assemble):
        cpu.regs["rip"] = 0x900000
        prog = assemble("entry:\n vmentry")
        with pytest.raises(HardwareException) as info:
            cpu.run(prog, 0x900000)
        assert info.value.vector is Vector.PAGE_FAULT
        assert "fetch" in info.value.detail

    def test_misaligned_rip_is_invalid_opcode(self, cpu, assemble):
        prog = assemble("entry:\n nop\n nop\n vmentry")
        with pytest.raises(HardwareException) as info:
            cpu.run(prog, prog.base + 2)
        assert info.value.vector is Vector.INVALID_OPCODE

    def test_non_canonical_rip_is_gp(self, cpu, assemble):
        prog = assemble("entry:\n vmentry")
        with pytest.raises(HardwareException) as info:
            cpu.run(prog, 0x0000_9000_0000_0000)
        assert info.value.vector is Vector.GENERAL_PROTECTION

    def test_budget_exhaustion_models_hang(self, cpu, assemble):
        with pytest.raises(SimulationLimitExceeded):
            run(cpu, assemble, "entry:\n jmp entry", max_instructions=100)


class TestAssertions:
    def test_passing_assertion_is_transparent(self, cpu, assemble):
        _, res = run(
            cpu, assemble, "entry:\n mov rax, 5\n assert_range rax, 0, 31, trap\n vmentry"
        )
        assert res.assertion_checks == 1

    def test_failing_range_assertion_raises(self, cpu, assemble):
        with pytest.raises(AssertionViolation) as info:
            run(cpu, assemble, "entry:\n mov rax, 99\n assert_range rax, 0, 31, trapno\n vmentry")
        assert info.value.assertion_id == "trapno"
        assert info.value.observed == 99

    def test_failing_eq_assertion_raises(self, cpu, assemble):
        with pytest.raises(AssertionViolation):
            run(cpu, assemble, "entry:\n mov rbx, 2\n assert_eq rbx, 1, vcpu_idle\n vmentry")


class TestRepMovs:
    def make_copy_source(self, words):
        return f"""
        entry:
            mov rcx, {words}
            mov rsi, {HEAP_BASE}
            mov rdi, {HEAP_BASE + 0x8000}
            rep_movs
            vmentry
        """

    def test_copies_data(self, cpu, assemble, memory):
        for i in range(8):
            memory.write_u64(HEAP_BASE + 8 * i, i + 100)
        run(cpu, assemble, self.make_copy_source(8))
        assert [memory.read_u64(HEAP_BASE + 0x8000 + 8 * i) for i in range(8)] == [
            i + 100 for i in range(8)
        ]
        assert cpu.regs["rcx"] == 0

    def test_counts_per_word_events(self, cpu, assemble):
        cpu.pmu.arm()
        _, res = run(cpu, assemble, self.make_copy_source(16))
        sample = cpu.pmu.collect()
        assert sample.loads >= 16 and sample.stores >= 16
        # 5 visible instructions + 16 iteration retirements
        assert sample.instructions == 5 + 16

    def test_flipped_count_changes_footprint(self, cpu, assemble, memory):
        prog = assemble(self.make_copy_source(8))
        baseline = cpu.run(prog, prog.address_of("entry"))
        cpu2 = CPUCore(0, memory)
        cpu2.regs["rsp"] = STACK_TOP
        cpu2.schedule_register_flip(3, "rcx", 4)  # 8 -> 24 words
        res = cpu2.run(prog, prog.address_of("entry"))
        assert res.instructions > baseline.instructions
        assert res.path_hash != baseline.path_hash

    def test_huge_count_faults_at_region_end(self, cpu, assemble):
        with pytest.raises(HardwareException) as info:
            run(cpu, assemble, self.make_copy_source(1 << 20))
        assert info.value.vector is Vector.PAGE_FAULT


class TestInjection:
    def test_flip_applied_at_dynamic_index(self, cpu, assemble):
        cpu.schedule_register_flip(1, "rax", 3)
        run(cpu, assemble, "entry:\n mov rax, 0\n mov rbx, rax\n vmentry")
        assert cpu.regs["rbx"] == 8  # flip landed before the copy
        report = cpu.injection_report
        assert report.applied and report.activated

    def test_overwrite_before_read_is_not_activated(self, cpu, assemble):
        cpu.schedule_register_flip(1, "rbx", 5)
        run(cpu, assemble, "entry:\n mov rax, 1\n mov rbx, 7\n mov rcx, rbx\n vmentry")
        assert cpu.injection_report.activated is False
        assert cpu.regs["rcx"] == 7  # value fully masked

    def test_never_touched_register_is_not_activated(self, cpu, assemble):
        cpu.schedule_register_flip(0, "r15", 1)
        run(cpu, assemble, "entry:\n mov rax, 1\n vmentry")
        assert cpu.injection_report.activated is None

    def test_rip_flip_always_activated(self, cpu, assemble):
        cpu.schedule_register_flip(1, "rip", 60)  # lands non-canonical
        with pytest.raises(HardwareException):
            run(cpu, assemble, "entry:\n nop\n nop\n nop\n vmentry")
        assert cpu.injection_report.activated is True

    def test_rip_low_bit_flip_can_reach_other_valid_instruction(self, cpu, assemble):
        # Flipping bit 3 of rip jumps 8 bytes: from instruction i to i+2,
        # a *valid but incorrect* control flow (Fig. 5b).
        source = """
        entry:
            mov rax, 1
            mov rbx, 2
            mov rcx, 3
            mov rdx, 4
            vmentry
        """
        prog = assemble(source)
        golden = cpu.run(prog, prog.address_of("entry"))
        cpu2 = CPUCore(0, cpu.memory)
        cpu2.regs["rsp"] = STACK_TOP
        cpu2.schedule_register_flip(1, "rip", 3)
        res = cpu2.run(prog, prog.address_of("entry"))
        assert res.exit_op is Op.VMENTRY           # still terminates legally
        assert res.instructions < golden.instructions  # skipped instructions
        assert cpu2.regs["rbx"] != 2 or cpu2.regs["rcx"] != 3

    def test_flags_flip_changes_branch_outcome(self, cpu, assemble):
        source = """
        entry:
            mov rax, 5
            cmp rax, 5
            je equal
            mov rbx, 111
            vmentry
        equal:
            mov rbx, 222
            vmentry
        """
        prog = assemble(source)
        cpu.run(prog, prog.address_of("entry"))
        assert cpu.regs["rbx"] == 222
        cpu2 = CPUCore(0, cpu.memory)
        cpu2.regs["rsp"] = STACK_TOP
        cpu2.schedule_register_flip(2, "rflags", 6)  # clear ZF before je
        cpu2.run(prog, prog.address_of("entry"))
        assert cpu2.regs["rbx"] == 111
        assert cpu2.injection_report.activated is True

    def test_injection_validation(self, cpu):
        with pytest.raises(MachineConfigError):
            cpu.schedule_register_flip(0, "bogus", 1)
        with pytest.raises(MachineConfigError):
            cpu.schedule_register_flip(0, "rax", 64)
        with pytest.raises(MachineConfigError):
            cpu.schedule_register_flip(-1, "rax", 0)

    def test_clear_injection_disarms(self, cpu, assemble):
        cpu.schedule_register_flip(0, "rax", 0)
        cpu.clear_injection()
        run(cpu, assemble, "entry:\n mov rbx, rax\n vmentry")
        assert cpu.regs["rbx"] == 0
        assert cpu.injection_report is None

    def test_injection_beyond_run_never_applies(self, cpu, assemble):
        cpu.schedule_register_flip(10_000, "rax", 0)
        run(cpu, assemble, "entry:\n nop\n vmentry")
        assert cpu.injection_report.applied is False


class TestRegisterAccessMetadata:
    def test_mov_reads_src_writes_dst(self, assemble):
        prog = assemble("mov rax, rbx")
        reads, writes = instr_register_accesses(prog.instructions[0])
        assert RegisterFile.index_of("rbx") in reads
        assert RegisterFile.index_of("rax") in writes

    def test_store_reads_base_and_src(self, assemble):
        prog = assemble("store [rbp+8], rcx")
        reads, writes = instr_register_accesses(prog.instructions[0])
        assert RegisterFile.index_of("rbp") in reads
        assert RegisterFile.index_of("rcx") in reads
        assert not writes

    def test_alu_reads_and_writes_dst_plus_flags(self, assemble):
        prog = assemble("add rax, rbx")
        reads, writes = instr_register_accesses(prog.instructions[0])
        assert RegisterFile.index_of("rax") in reads
        assert RegisterFile.index_of("rflags") in writes

    def test_jcc_reads_flags(self, assemble):
        prog = assemble("x:\n je x")
        reads, _ = instr_register_accesses(prog.instructions[0])
        assert reads == frozenset({RegisterFile.index_of("rflags")})

    def test_push_reads_rsp_and_source(self, assemble):
        prog = assemble("push rdi")
        reads, writes = instr_register_accesses(prog.instructions[0])
        rsp = RegisterFile.index_of("rsp")
        assert rsp in reads and rsp in writes
        assert RegisterFile.index_of("rdi") in reads

    def test_rep_movs_touches_string_registers(self, assemble):
        prog = assemble("rep_movs")
        reads, writes = instr_register_accesses(prog.instructions[0])
        for name in ("rcx", "rsi", "rdi"):
            idx = RegisterFile.index_of(name)
            assert idx in reads and idx in writes

    def test_cpuid_reads_rax_writes_output_regs(self, assemble):
        prog = assemble("cpuid")
        reads, writes = instr_register_accesses(prog.instructions[0])
        assert reads == frozenset({RegisterFile.index_of("rax")})
        assert RegisterFile.index_of("rdx") in writes


class TestCounters:
    def test_branch_counter_counts_all_transfers(self, cpu, assemble):
        cpu.pmu.arm()
        run(
            cpu,
            assemble,
            """
            entry:
                call sub
                jmp out
            sub:
                ret
            out:
                vmentry
            """,
        )
        assert cpu.pmu.collect().branches == 3  # call, ret, jmp

    def test_load_store_counters(self, cpu, assemble):
        cpu.pmu.arm()
        run(
            cpu,
            assemble,
            f"""
            entry:
                mov rbp, {HEAP_BASE}
                store [rbp], rbp
                load rax, [rbp]
                push rax
                pop rbx
                vmentry
            """,
        )
        sample = cpu.pmu.collect()
        assert sample.loads == 2 and sample.stores == 2  # pop/push count too

    def test_unarmed_window_still_counts_totals(self, cpu, assemble):
        run(cpu, assemble, "entry:\n nop\n vmentry")
        assert cpu.pmu.totals().instructions == 2
