"""Trials under the execution knobs: translated ≡ interpreted.

Every faulty trial replays its activation from the pre-activation
checkpoint.  These tests hold the translation cache to the determinism
contract: for *every* injection index a translated trial must produce a
record bit-identical to an interpreted one.  Campaign records under
translation are pinned by ``tests/test_equivalence.py``.
"""

import pytest

from repro.faults import (
    FaultSpec,
    capture_golden,
    run_trial,
)
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.metrics import CampaignCounters, counted


def act(name: str, *args: int, seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args, domain_id=1, seq=seq)


class TestSideExitPrecision:
    """Translated trials ≡ interpreted trials at *every* injection index.

    This is the translation cache's determinism contract at its sharpest:
    a flip pending mid-would-be-block must interpret up to the injection
    point, and the injected state's downstream consequences (activation
    classification, exception details, counter samples, path hash) must be
    bit-identical to the interpreter-only machine.  Sweeping every dynamic
    instruction index of one activation covers side exits at every offset
    of every block the golden path executes.
    """

    @pytest.fixture(scope="class")
    def machines(self):
        interp_hv = XenHypervisor(seed=23, translate=False)
        trans_hv = XenHypervisor(seed=23, translate=True)
        activation = act("apic_timer", 3)
        interp_golden = capture_golden(interp_hv, activation)
        trans_golden = capture_golden(trans_hv, activation)
        assert interp_golden.result == trans_golden.result
        return interp_hv, trans_hv, activation, interp_golden, trans_golden

    @pytest.mark.parametrize("register,bit", [("rbx", 17), ("rip", 2), ("rflags", 6)])
    def test_trials_identical_at_every_index(self, machines, register, bit):
        interp_hv, trans_hv, activation, interp_golden, trans_golden = machines
        n = interp_golden.result.instructions
        for index in range(n):
            fault = FaultSpec(register, bit, index)
            interp = run_trial(interp_hv, activation, fault, golden=interp_golden)
            trans = run_trial(trans_hv, activation, fault, golden=trans_golden)
            assert trans == interp, (
                f"translated trial diverged at injection index {index} "
                f"({register} bit {bit})"
            )

    def test_translated_machine_actually_translates(self, machines):
        _, trans_hv, activation, _, trans_golden = machines
        trans_hv.restore(trans_golden.checkpoint)
        _, counts = counted(trans_hv.execute, activation)
        counters = CampaignCounters.folded(counts)
        assert counters.block_executions.value > 0
        assert counters.translated.value > 0


class TestRecordsInvariance:
    def test_interval_zero_never_fast_forwards(self):
        hv = XenHypervisor(seed=31)
        golden = capture_golden(hv, act("do_irq", 2))
        _, counts = counted(
            run_trial, hv, act("do_irq", 2), FaultSpec("rdx", 3, 5), golden=golden
        )
        counters = CampaignCounters.folded(counts)
        trials = counters.registry.get("repro_trials_total")
        assert trials.labels(start="checkpoint").value == 1
        assert counters.machine()["trials"] == 1
