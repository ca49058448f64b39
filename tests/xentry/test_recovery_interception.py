"""Recovery-cost model (Fig. 11) and interception cost accounting."""

import pytest

from repro.errors import CampaignConfigError
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.workloads import get_profile
from repro.xentry import (
    DetectionCostModel,
    PAPER_COPY_NS,
    PAPER_FALSE_POSITIVE_RATE,
    RecoveryCostModel,
    ShimInterceptor,
    estimate_recovery_overhead,
)


class TestDetectionCostModel:
    def test_transition_cost_exceeds_runtime_cost(self):
        model = DetectionCostModel()
        assert model.transition_ns(10) > model.runtime_ns(2)

    def test_cost_scales_with_tree_depth(self):
        model = DetectionCostModel()
        assert model.transition_ns(20) > model.transition_ns(5)

    def test_per_activation_composition(self):
        model = DetectionCostModel()
        full = model.per_activation_ns(tree_comparisons=8, assertion_checks=2)
        runtime = model.per_activation_ns(
            tree_comparisons=8, assertion_checks=2, transition_enabled=False
        )
        assert full == pytest.approx(runtime + model.transition_ns(8))

    def test_counter_costs_are_msr_traffic(self):
        model = DetectionCostModel()
        assert model.counter_arm_ns == 4 * model.wrmsr_ns
        assert model.counter_collect_ns == 4 * model.rdmsr_ns + model.wrmsr_ns


class TestShimInterceptor:
    def test_intercepts_every_transition(self):
        hv = XenHypervisor(seed=5)
        shim = ShimInterceptor()
        act = Activation(vmer=REGISTRY.by_name("xen_version").vmer, args=(1,), domain_id=1)
        for i in range(5):
            hv.execute(Activation(vmer=act.vmer, args=(1,), domain_id=1, seq=i),
                       interceptor=shim)
        assert shim.vm_exits == 5 and shim.vm_entries == 5
        assert shim.modeled_ns > 0
        assert shim.last_features is not None

    def test_disabled_transition_costs_nothing(self):
        hv = XenHypervisor(seed=5)
        shim = ShimInterceptor(transition_enabled=False)
        act = Activation(vmer=0, args=(1,), domain_id=1)
        hv.execute(act, interceptor=shim)
        assert shim.modeled_ns == 0.0


class TestRecoveryModel:
    def test_paper_constants(self):
        model = RecoveryCostModel()
        assert model.copy_ns == PAPER_COPY_NS == 1_900.0
        assert model.false_positive_rate == PAPER_FALSE_POSITIVE_RATE == 0.007

    def test_validation(self):
        with pytest.raises(CampaignConfigError):
            RecoveryCostModel(false_positive_rate=1.5)
        with pytest.raises(CampaignConfigError):
            RecoveryCostModel(copy_ns=-1)

    def test_per_second_overhead_composition(self):
        model = RecoveryCostModel(copy_ns=1000, handler_ns=500)
        # 10k activations with 70 false positives.
        ns = model.per_second_overhead_ns(10_000, 70)
        assert ns == pytest.approx(10_000 * 1000 + 70 * 1500)

    def test_study_shape_matches_fig11(self):
        """postmark worst, mcf/bzip2 low, spread across repetitions tiny."""
        studies = {
            name: estimate_recovery_overhead(get_profile(name), seed=3)
            for name in ("mcf", "bzip2", "postmark")
        }
        assert studies["postmark"].mean > studies["mcf"].mean
        assert studies["postmark"].mean > studies["bzip2"].mean
        for study in studies.values():
            assert 0.0 < study.mean < 0.20
            # Paper: "the difference between the maximum and minimum
            # overheads are less than 0.03%".
            assert study.spread < 0.0003

    def test_study_is_deterministic(self):
        a = estimate_recovery_overhead(get_profile("x264"), seed=9)
        b = estimate_recovery_overhead(get_profile("x264"), seed=9)
        assert (a.overheads == b.overheads).all()

    def test_zero_fp_rate_leaves_only_copy_cost(self):
        model = RecoveryCostModel(false_positive_rate=0.0)
        study = estimate_recovery_overhead(get_profile("mcf"), model=model, seed=1)
        assert study.spread == 0.0  # no randomness left
