"""Section VI hardening: stack-value redundancy and rdtsc variation checks."""

import pytest

from repro.faults import FaultSpec, capture_golden, run_trial
from repro.faults.outcomes import DetectionTechnique, UndetectedKind
from repro.hypervisor import Activation, Hardening, REGISTRY, XenHypervisor
from repro.machine import Op


@pytest.fixture(scope="module")
def baseline() -> XenHypervisor:
    return XenHypervisor(seed=19)


@pytest.fixture(scope="module")
def hardened() -> XenHypervisor:
    return XenHypervisor(
        seed=19,
        hardening=Hardening(stack_redundancy=True, time_variation_check=True),
    )


def sched_act(seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name("sched_op").vmer, args=(0, 0),
                      domain_id=1, seq=seq)


def timer_act(seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name("set_timer_op").vmer, args=(500,),
                      domain_id=1, seq=seq)


class TestFaultFreeBehaviour:
    def test_hardened_image_runs_every_reason_cleanly(self, hardened):
        hardened.reset()
        for i, reason in enumerate(REGISTRY):
            res = hardened.execute(
                Activation(vmer=reason.vmer, args=(3, 2), domain_id=1, seq=i)
            )
            assert res.exit_op is Op.VMENTRY

    def test_hardening_costs_extra_instructions(self, baseline, hardened):
        baseline.reset()
        hardened.reset()
        plain = baseline.execute(sched_act())
        guarded = hardened.execute(sched_act())
        assert guarded.instructions > plain.instructions

    def test_time_still_delivered_under_hardening(self, hardened):
        hardened.reset()
        hardened.execute(timer_act(seq=3))
        assert hardened.vcpu(1).system_time > 0


class TestStackRedundancy:
    def _sweep(self, hv, register: str) -> set[str]:
        """Inject into every (index, a-few-bits) of the sched path and
        collect the detection techniques that fire."""
        hv.reset()
        act = sched_act()
        golden = capture_golden(hv, act)
        seen: set[str] = set()
        for idx in range(golden.result.instructions):
            for bit in (9, 21, 33):
                record = run_trial(hv, act, FaultSpec(register, bit, idx),
                                   golden=golden)
                if record.manifested:
                    seen.add(record.detected_by.value + ":" + record.detail[:16])
        return seen

    def test_redundancy_assertion_fires_on_stack_corruption(self, hardened):
        """A flip riding the duplicated stack slots trips the check."""
        hv = hardened
        hv.reset()
        act = sched_act()
        golden = capture_golden(hv, act)
        detected = False
        for idx in range(golden.result.instructions):
            for bit in (9, 21, 33):
                record = run_trial(hv, act, FaultSpec("r10", bit, idx), golden=golden)
                if (record.detected_by is DetectionTechnique.SW_ASSERTION
                        and "stack_redundancy" in record.detail):
                    detected = True
        assert detected

    def test_baseline_misses_what_redundancy_catches(self, baseline, hardened):
        """Count undetected stack-riding corruptions with and without the
        Section VI duplication — hardening must strictly reduce them."""

        def miss_rate(hv):
            hv.reset()
            act = sched_act()
            golden = capture_golden(hv, act)
            missed = manifested = 0
            for idx in range(golden.result.instructions):
                for bit in (9, 21, 33, 45):
                    record = run_trial(hv, act, FaultSpec("r10", bit, idx),
                                       golden=golden)
                    if record.manifested:
                        manifested += 1
                        if not record.detected:
                            missed += 1
            return missed / manifested

        assert miss_rate(hardened) < miss_rate(baseline)


class TestTimeVariationCheck:
    def test_variation_assertion_fires_on_time_corruption(self, hardened):
        """A flip in the first rdtsc read between the two reads produces an
        impossible variation."""
        hv = hardened
        hv.reset()
        act = timer_act()
        golden = capture_golden(hv, act)
        detected = False
        for idx in range(golden.result.instructions):
            record = run_trial(hv, act, FaultSpec("rbx", 30, idx), golden=golden)
            if (record.detected_by is DetectionTechnique.SW_ASSERTION
                    and "time_variation" in record.detail):
                detected = True
                break
        assert detected

    def test_hardening_reduces_undetected_time_faults(self, baseline, hardened):
        def undetected_time_faults(hv):
            hv.reset()
            act = timer_act()
            golden = capture_golden(hv, act)
            missed = 0
            for idx in range(golden.result.instructions):
                for bit in (12, 25, 38, 51):
                    for reg in ("rax", "rbx"):
                        record = run_trial(hv, act, FaultSpec(reg, bit, idx),
                                           golden=golden)
                        if (record.manifested and not record.detected
                                and record.undetected_kind is UndetectedKind.TIME_VALUES):
                            missed += 1
            return missed

        assert undetected_time_faults(hardened) < undetected_time_faults(baseline)
