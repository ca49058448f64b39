"""Execution tracing and fault forensics tooling."""

import pytest

from repro.machine import CPUCore, translator
from repro.machine.debug import diff_traces, trace_execution
from repro.metrics import CampaignCounters, counted

from tests.conftest import STACK_TOP, TEXT_BASE


SOURCE = """
entry:
    mov rax, 0
    mov rbx, 3
loop:
    add rax, rbx
    dec rbx
    cmp rbx, 0
    jg loop
    vmentry
"""


class TestTraceExecution:
    def test_trace_covers_every_retired_instruction(self, cpu, assemble):
        prog = assemble(SOURCE)
        trace = trace_execution(cpu, prog, prog.address_of("entry"))
        assert trace.event == "vmentry"
        assert len(trace) == cpu.tracer.count - 1 or len(trace) >= 10

    def test_trace_entries_disassemble(self, cpu, assemble):
        prog = assemble(SOURCE)
        trace = trace_execution(cpu, prog, prog.address_of("entry"))
        assert trace.entries[0].text.startswith("mov")
        assert all(e.text != "<invalid>" for e in trace.entries)

    def test_light_mode_restored_after_tracing(self, cpu, assemble):
        prog = assemble(SOURCE)
        assert cpu.tracer.light
        trace_execution(cpu, prog, prog.address_of("entry"))
        assert cpu.tracer.light

    def test_trace_captures_exception_event(self, cpu, assemble):
        prog = assemble("entry:\n mov rbp, 0x900000\n load rax, [rbp]\n vmentry")
        trace = trace_execution(cpu, prog, prog.address_of("entry"))
        assert "HardwareException" in trace.event
        assert len(trace) == 2  # mov + the faulting load

    def test_translated_trace_matches_interpreted(self, memory, assemble, monkeypatch):
        # A full trace stays on the translated path, including the precise
        # side exit of a block that faults part-way through.
        monkeypatch.setattr(translator, "COMPILE_THRESHOLD", 1)
        prog = assemble(SOURCE + "\nfault:\n mov rbp, 0x900000\n add rax, 1\n"
                        " load rax, [rbp]\n vmentry")
        traces = {}
        for translate in (True, False):
            for label in ("entry", "fault"):
                core = CPUCore(0, memory, translate=translate)
                core.regs["rsp"] = STACK_TOP
                traces[translate, label], counts = counted(
                    trace_execution, core, prog, prog.address_of(label)
                )
                translated = CampaignCounters.folded(counts).translated.value
                assert translated > 0 or not translate
        for label in ("entry", "fault"):
            assert traces[True, label] == traces[False, label]
        assert "HardwareException" in traces[True, "fault"].event
        assert len(traces[True, "fault"]) == 3

    def test_render_is_readable_and_truncates(self, cpu, assemble):
        prog = assemble(SOURCE)
        trace = trace_execution(cpu, prog, prog.address_of("entry"))
        text = trace.render(limit=3)
        assert "mov" in text and "more instructions" in text and "vmentry" in text


class TestDiffTraces:
    def make(self, memory, assemble, source, flip=None):
        prog = assemble(source)
        core = CPUCore(0, memory)
        core.regs["rsp"] = STACK_TOP
        if flip:
            core.schedule_register_flip(*flip)
        return trace_execution(core, prog, prog.address_of("entry"))

    def test_identical_traces(self, memory, assemble):
        a = self.make(memory, assemble, SOURCE)
        b = self.make(memory, assemble, SOURCE)
        assert diff_traces(a, b) == "traces are identical"

    def test_divergence_point_is_located(self, memory, assemble):
        golden = self.make(memory, assemble, SOURCE)
        faulty = self.make(memory, assemble, SOURCE, flip=(3, "rbx", 2))
        report = diff_traces(golden, faulty)
        assert "divergence" in report or "continues for" in report

    def test_data_only_difference_reports_registers(self, memory, assemble):
        source = "entry:\n mov rax, 1\n mov rbx, rax\n vmentry"
        golden = self.make(memory, assemble, source)
        faulty = self.make(memory, assemble, source, flip=(1, "rax", 5))
        report = diff_traces(golden, faulty)
        assert "final registers differ" in report
        assert "rax" in report
