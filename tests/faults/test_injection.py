"""Fault model, single trials, and campaign orchestration."""

import numpy as np
import pytest

from repro.errors import CampaignConfigError
from repro.faults import (
    CampaignConfig,
    FaultInjectionCampaign,
    FaultModel,
    FaultSpec,
    capture_golden,
    run_spec_trial,
    run_trial,
)
from repro.faults.outcomes import BurstFaultSpec, DetectionTechnique, FailureClass
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.machine.isa import Op
from repro.machine.registers import INJECTABLE_REGISTERS


@pytest.fixture(scope="module")
def hv() -> XenHypervisor:
    return XenHypervisor(seed=11)


def act(name: str, *args: int, seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args, domain_id=1, seq=seq)


class TestFaultModel:
    def test_samples_stay_in_bounds(self):
        model = FaultModel()
        rng = np.random.default_rng(0)
        for _ in range(200):
            spec = model.sample(rng, run_length=50)
            assert spec.register in INJECTABLE_REGISTERS
            assert 0 <= spec.bit <= 63
            assert 0 <= spec.dynamic_index < 50

    def test_register_restriction(self):
        model = FaultModel(registers=("rip",))
        rng = np.random.default_rng(1)
        assert all(model.sample(rng, 10).register == "rip" for _ in range(20))

    def test_validation(self):
        with pytest.raises(CampaignConfigError):
            FaultModel(registers=())
        with pytest.raises(CampaignConfigError):
            FaultModel(registers=("xmm0",))
        with pytest.raises(CampaignConfigError):
            FaultModel(bits=(0, 99))
        with pytest.raises(CampaignConfigError):
            FaultModel().sample(np.random.default_rng(0), 0)


class TestRunTrial:
    def test_pointer_corruption_detected_by_hw_exception(self, hv):
        hv.reset()
        a = act("mmu_update", 10, 1)
        golden = capture_golden(hv, a)
        # rbp is the globals base: flipping a high bit derails the very next
        # memory access through it.
        rec = run_trial(
            hv, a, FaultSpec("rbp", 40, 5), golden=golden, benchmark="mcf"
        )
        assert rec.detected_by is DetectionTechnique.HW_EXCEPTION
        assert rec.failure_class is FailureClass.HYPERVISOR_CRASH
        assert rec.detection_latency is not None

    def test_non_activated_fault_is_benign(self, hv):
        hv.reset()
        a = act("xen_version", 1, 0)
        golden = capture_golden(hv, a)
        # r15 is never touched by any handler.
        rec = run_trial(hv, a, FaultSpec("r15", 30, 2), golden=golden)
        assert rec.failure_class is FailureClass.BENIGN
        assert not rec.activated
        assert not rec.detected

    def test_golden_state_restored_between_uses(self, hv):
        """Running a trial must not leak faulty state into the next golden."""
        hv.reset()
        a = act("event_channel_op", 5, 0)
        golden = capture_golden(hv, a)
        hv.restore(golden.checkpoint)
        before = hv.memory.checkpoint()
        run_trial(hv, a, FaultSpec("rbx", 12, 3), golden=golden)
        hv.restore(golden.checkpoint)
        assert hv.memory.checkpoint() == before

    def test_trial_is_deterministic(self, hv):
        hv.reset()
        a = act("grant_table_op", 12, 2)
        golden = capture_golden(hv, a)
        fault = FaultSpec("rcx", 7, 4)
        rec1 = run_trial(hv, a, fault, golden=golden)
        rec2 = run_trial(hv, a, fault, golden=golden)
        assert rec1 == rec2

    def test_some_faults_cross_vm_entry(self, hv):
        """Sweeping bits over a data register in the cpuid-emulation path must
        produce at least one long-latency (guest-visible) outcome."""
        hv.reset()
        a = act("hvm_cpuid", 1, 0)
        golden = capture_golden(hv, a)
        classes = set()
        for bit in range(0, 32, 3):
            for idx in range(golden.result.instructions):
                rec = run_trial(hv, a, FaultSpec("rbx", bit, idx), golden=golden)
                classes.add(rec.failure_class)
        assert any(c.is_long_latency for c in classes)


class TestBurstTrial:
    def test_latency_counts_from_the_strike_not_the_apply_index(self):
        """A burst's latency counts from ``fault.dynamic_index``.  A bulk
        ``rep movs`` retire can carry the count past that index before the
        flips apply, and the core's report then reads the later index."""
        hv = XenHypervisor(seed=5)
        hv.reset()
        a = act("grant_table_op", 4, 2)
        golden = capture_golden(hv, a)
        ops = [hv.program.instruction_at(addr).op for addr in golden.trace]
        # The copy retires at 14, then its 4 words in one bulk (15-18).
        assert [i for i, op in enumerate(ops) if op is Op.REP_MOVS] == [14, 15, 16, 17, 18]
        fault = BurstFaultSpec(flips=(("rip", 60), ("rax", 3)), dynamic_index=16)
        rec = run_spec_trial(hv, a, fault, golden=golden)
        assert hv.cpu.injection_report.activation_index == 19  # applied after it
        assert rec.detected_by is DetectionTechnique.HW_EXCEPTION
        # The fetch at 19 faults: 3 instructions after the strike, where
        # the report's index would give 0.
        assert rec.detection_latency == 3
        assert rec.activated


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(CampaignConfigError):
            CampaignConfig(benchmarks=())
        with pytest.raises(CampaignConfigError):
            CampaignConfig(n_injections=0)
        with pytest.raises(CampaignConfigError):
            CampaignConfig(injections_per_golden=0)

    def test_campaign_runs_and_is_deterministic(self):
        cfg = CampaignConfig(benchmarks=("mcf", "postmark"), n_injections=60, seed=9)
        r1 = FaultInjectionCampaign(cfg).run()
        r2 = FaultInjectionCampaign(cfg).run()
        assert r1.records == r2.records
        assert len(r1) == 60

    def test_campaign_covers_requested_benchmarks(self):
        cfg = CampaignConfig(benchmarks=("bzip2", "canneal"), n_injections=40, seed=3)
        result = FaultInjectionCampaign(cfg).run()
        assert {r.benchmark for r in result.records} == {"bzip2", "canneal"}
        assert len(result.for_benchmark("bzip2")) == 20

    def test_campaign_produces_mixed_outcomes(self):
        cfg = CampaignConfig(n_injections=300, seed=4)
        result = FaultInjectionCampaign(cfg).run()
        classes = {r.failure_class for r in result.records}
        assert FailureClass.BENIGN in classes
        assert FailureClass.HYPERVISOR_CRASH in classes
        assert len(result.manifested) > 20
        assert len(result.activated) >= len(result.manifested) - sum(
            1 for r in result.records if r.failure_class is FailureClass.BENIGN
        )

    def test_progress_callback_fires(self):
        calls = []
        cfg = CampaignConfig(benchmarks=("mcf",), n_injections=500, seed=1)
        FaultInjectionCampaign(cfg).run(progress=lambda d, t: calls.append((d, t)))
        assert calls and calls[-1][0] <= calls[-1][1]
