"""Runaway-loop induction proofs: proved watchdog outcomes ≡ concrete spins.

When a faulty run spins, the probe measures two periods of the cycle and
attempts an induction proof that it reaches the watchdog budget, settling
the trial without executing the remaining iterations.  The proof must be
*exact*: every record — failure class, detection latency, counter sample,
path hash — has to be bit-identical to concretely executing the loop to
exhaustion, and a terminating loop must never be cut short.  These tests
run the same fixed-seed campaign slice, and hand-assembled loops, with the
prover enabled and force-disabled (``CPUCore.loop_proof``) and require both
identity and that proofs fired exactly where they should.
"""

import pytest

from repro.errors import SimulationEvent, SimulationLimitExceeded
from repro.faults import CampaignConfig
from repro.faults.campaign import run_benchmark_groups
from repro.hypervisor import XenHypervisor
from repro.machine import CPUCore, loopproof, parse_asm
from repro.machine.loopproof import PROBE_AT, PROBE_RETRY, PROBE_WINDOW
from repro.metrics import CampaignCounters, counted

from tests.conftest import STACK_TOP, TEXT_BASE

CONFIG = CampaignConfig(n_injections=400, seed=5)


def _machine(loop_proof: bool) -> XenHypervisor:
    hv = XenHypervisor(
        n_domains=CONFIG.n_domains, seed=CONFIG.seed, translate=CONFIG.translate
    )
    for core in hv.cores:
        core.loop_proof = loop_proof
    return hv


class TestProverDifferential:
    @pytest.fixture(scope="class")
    def run(self):
        machines = {True: _machine(True), False: _machine(False)}
        counters = {True: CampaignCounters(), False: CampaignCounters()}
        records = {}
        for benchmark in CONFIG.benchmarks[:2]:
            runs = []
            for loop_proof, hv in machines.items():
                run, counts = counted(
                    run_benchmark_groups, CONFIG, benchmark, 0, 17, hv=hv
                )
                counters[loop_proof].registry.fold(counts)
                runs.append(run)
            records[benchmark] = tuple(runs)
        return counters[True].machine(), counters[False].machine(), records

    def test_records_identical_with_prover_disabled(self, run):
        _, _, records = run
        for benchmark, (on, off) in records.items():
            assert on == off, f"prover changed records for {benchmark}"

    def test_proofs_actually_fired(self, run):
        proved, concrete, _ = run
        assert proved["proved_hangs"] > 0
        assert concrete["proved_hangs"] == 0

    def test_proofs_skip_real_execution(self, run):
        proved, concrete, _ = run

        def executed(machine):
            return machine["interpreted_instructions"] + machine["translated_instructions"]

        skipped = proved["proved_hang_instructions"]
        assert skipped > 0
        # The proved machine must have executed fewer instructions by at
        # least the amount its proofs claim to have skipped.
        assert executed(concrete) - executed(proved) >= skipped


BUDGET = 12_000

#: Counts up from zero; the compare can only succeed after a 64-bit wrap.
SPIN = """
entry:
    mov rax, 0
loop:
    inc rax
    cmp rax, 0
    jne loop
    halt
"""

#: Spins forever, but DIV lies outside what the prover can transfer.
DIV_SPIN = """
entry:
    mov rax, 7
    mov rbx, 1
loop:
    div rax, rbx
    jmp loop
"""

#: Counts down and exits after 2 * 700 + 2 retirements: just past the
#: first window and the snapshots taken after it.
SHORT_LOOP = """
entry:
    mov rcx, 700
loop:
    dec rcx
    jne loop
    halt
"""


@pytest.fixture(params=[False, True], ids=["interpreted", "translated"])
def translate(request):
    return request.param


def _spin(memory, source, *, loop_proof, translate, flip=None):
    """Run ``source`` once; return what the run leaves observable and the
    machine counters it bumped."""
    program = parse_asm(source, base=TEXT_BASE)
    core = CPUCore(0, memory, translate=translate)
    core.regs["rsp"] = STACK_TOP
    core.loop_proof = loop_proof
    if flip is not None:
        index, register, bit = flip
        core.schedule_flips(index, ((register, bit),))

    def run():
        try:
            return core.run(program, program.address_of("entry"), max_instructions=BUDGET)
        except SimulationEvent as event:
            return repr(event)

    outcome, counts = counted(run)
    totals = core.pmu.totals()
    observed = {
        "outcome": outcome,
        "count": core.tracer.count,
        "instructions": totals.instructions,
        "tsc": core.tsc,
        "injection": core.injection_report,
        "path_hash": core.tracer.path_hash,
        "events": (totals.branches, totals.loads, totals.stores),
    }
    return observed, CampaignCounters.folded(counts).machine()


def _executed(machine) -> int:
    return machine["translated_instructions"] + machine["interpreted_instructions"]


class TestProbe:
    """The probe on hand-assembled loops: where it records, retries and
    proves, and that none of it changes what the run leaves.

    A proof settles what a watchdog kill leaves observable: the outcome, the
    count, and with it the instruction counter and the TSC.  The path hash
    and the branch and memory counters stop where the proof fired; nothing
    reads them past a kill (the next execution resets them), so proved runs
    compare without them.
    """

    def _both(self, memory, source, translate, **kwargs):
        on, proved = _spin(memory, source, loop_proof=True, translate=translate, **kwargs)
        off, concrete = _spin(memory, source, loop_proof=False, translate=translate, **kwargs)
        assert concrete["proved_hangs"] == 0
        if proved["proved_hangs"]:
            for observed in (on, off):
                del observed["path_hash"], observed["events"]
        assert on == off
        return on, proved

    def test_provable_spin_is_proved_once(self, memory, translate):
        observed, machine = self._both(memory, SPIN, translate)
        assert observed["outcome"] == repr(SimulationLimitExceeded(BUDGET))
        assert observed["count"] == BUDGET
        assert machine["proved_hangs"] == 1
        # The proof skips exactly what the run had left at the proof.
        assert machine["proved_hang_instructions"] == BUDGET - _executed(machine)
        # Proved at the first attempt: the window, a rotation, two periods.
        assert _executed(machine) < PROBE_AT + PROBE_WINDOW + 16

    def test_unsupported_op_gives_up_after_three_attempts(
        self, memory, translate, monkeypatch
    ):
        windows = []
        find_period = loopproof.find_period

        def spy(hist, cur):
            windows.append(len(hist))
            return find_period(hist, cur)

        monkeypatch.setattr(loopproof, "find_period", spy)
        observed, machine = self._both(memory, DIV_SPIN, translate)
        # Three full windows, all from the prover's run, then it gave up.
        assert windows == [PROBE_WINDOW] * 3
        assert observed["outcome"] == repr(SimulationLimitExceeded(BUDGET))
        assert observed["count"] == BUDGET
        assert machine["proved_hangs"] == 0
        assert _executed(machine) == BUDGET

    def test_pending_flip_defers_recording(self, memory, translate):
        # rax bit 40 flips at instruction 2,000, after the probe's first
        # stop; the loop still spins, so the proof must come after it.
        observed, machine = self._both(memory, SPIN, translate, flip=(2_000, "rax", 40))
        report = observed["injection"]
        assert report.applied and report.activated
        assert observed["outcome"] == repr(SimulationLimitExceeded(BUDGET))
        assert machine["proved_hangs"] == 1
        # Recording waited for the retry PROBE_RETRY after the first stop.
        assert _executed(machine) > PROBE_AT + PROBE_RETRY + PROBE_WINDOW

    def test_loop_exiting_after_the_window_runs_to_its_exit(self, memory, translate):
        observed, machine = self._both(memory, SHORT_LOOP, translate)
        assert observed["outcome"].instructions == observed["count"] == 2 * 700 + 2
        assert PROBE_AT + PROBE_WINDOW < observed["count"] < PROBE_AT + PROBE_RETRY
        assert machine["proved_hangs"] == 0
