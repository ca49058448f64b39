"""Runaway-loop induction proofs: proved watchdog outcomes ≡ concrete spins.

When a faulty run spins, the probe measures two periods of the cycle and
attempts an induction proof that it reaches the watchdog budget, settling
the trial without executing the remaining iterations.  The proof must be
*exact*: every record — failure class, detection latency, counter sample,
path hash — has to be bit-identical to concretely executing the loop to
exhaustion, and a terminating loop must never be cut short.  These tests
run the same fixed-seed campaign slice with the prover enabled and
force-disabled (``CPUCore.loop_proof``) and require both identity and
that proofs actually fired.
"""

import pytest

from repro.faults import CampaignConfig
from repro.faults.campaign import run_benchmark_groups
from repro.hypervisor import XenHypervisor
from repro.metrics import CampaignCounters, counted

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
