"""Workload profiles and activation generation."""

import numpy as np
import pytest

from repro.errors import CampaignConfigError
from repro.hypervisor import REGISTRY, XenHypervisor
from repro.workloads import (
    BENCHMARK_NAMES,
    BENCHMARKS,
    RateDistribution,
    VirtMode,
    WorkloadClass,
    WorkloadGenerator,
    get_profile,
)


class TestSuite:
    def test_paper_benchmarks_present(self):
        assert set(BENCHMARK_NAMES) == {
            "mcf", "bzip2", "freqmine", "canneal", "x264", "postmark",
        }

    def test_class_assignments_match_section5(self):
        assert get_profile("mcf").klass is WorkloadClass.MEMORY
        assert get_profile("bzip2").klass is WorkloadClass.CPU
        assert get_profile("canneal").klass is WorkloadClass.CPU
        assert get_profile("postmark").klass is WorkloadClass.IO
        assert get_profile("freqmine").klass is WorkloadClass.IO
        assert get_profile("x264").klass is WorkloadClass.IO

    def test_unknown_profile_rejected(self):
        with pytest.raises(CampaignConfigError):
            get_profile("linpack")

    def test_pv_rates_exceed_hvm_rates(self):
        """Section II.B: PV has generally higher activation frequencies."""
        for profile in BENCHMARKS:
            assert profile.pv_rate.median > profile.hvm_rate.median

    def test_rate_calibration_bands(self):
        """PV medians within the 5k-100k band; HVM within 2k-10k."""
        for profile in BENCHMARKS:
            assert 5_000 <= profile.pv_rate.median <= 100_000
            assert 2_000 <= profile.hvm_rate.median <= 10_000

    def test_freqmine_tail_reaches_650k(self):
        """The paper's peak: ~650,000/s while freqmine is running."""
        gen = WorkloadGenerator(get_profile("freqmine"), VirtMode.PV, seed=3)
        rates = gen.rate_per_second(2_000)
        assert rates.max() > 300_000  # heavy tail reaching the paper's peak
        assert np.median(rates) < 100_000

    def test_postmark_blocks_most(self):
        assert get_profile("postmark").blocking_fraction == max(
            p.blocking_fraction for p in BENCHMARKS
        )


class TestRateDistribution:
    def test_sampling_respects_floor(self):
        dist = RateDistribution(median=200, sigma=2.0, floor=100)
        rng = np.random.default_rng(0)
        assert (dist.sample(rng, 500) >= 100).all()

    def test_median_is_approximately_right(self):
        dist = RateDistribution(median=10_000, sigma=0.5)
        rng = np.random.default_rng(1)
        samples = dist.sample(rng, 20_000)
        assert np.median(samples) == pytest.approx(10_000, rel=0.05)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CampaignConfigError):
            RateDistribution(median=0, sigma=0.5)
        with pytest.raises(CampaignConfigError):
            RateDistribution(median=10, sigma=-1)


class TestGenerator:
    def test_streams_are_deterministic(self):
        gen1 = WorkloadGenerator(get_profile("mcf"), VirtMode.PV, seed=9)
        gen2 = WorkloadGenerator(get_profile("mcf"), VirtMode.PV, seed=9)
        assert gen1.activations(50) == gen2.activations(50)
        assert (gen1.rate_per_second(10) == gen2.rate_per_second(10)).all()

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(get_profile("mcf"), VirtMode.PV, seed=1).activations(50)
        b = WorkloadGenerator(get_profile("mcf"), VirtMode.PV, seed=2).activations(50)
        assert a != b

    def test_pv_streams_avoid_hvm_reasons(self):
        gen = WorkloadGenerator(get_profile("postmark"), VirtMode.PV, seed=5)
        hvm_vmers = {r.vmer for r in REGISTRY if r.name.startswith("hvm_")}
        assert all(a.vmer not in hvm_vmers for a in gen.activations(300))

    def test_hvm_streams_avoid_pv_exception_path(self):
        gen = WorkloadGenerator(get_profile("postmark"), VirtMode.HVM, seed=5)
        exc_vmers = {r.vmer for r in REGISTRY if r.category.value == "exception"}
        assert all(a.vmer not in exc_vmers for a in gen.activations(300))

    def test_mix_is_respected(self):
        """postmark is I/O bound: do_irq should dominate apic_timer."""
        gen = WorkloadGenerator(get_profile("postmark"), VirtMode.PV, seed=7)
        acts = gen.activations(2_000)
        irq = REGISTRY.by_name("do_irq").vmer
        timer = REGISTRY.by_name("apic_timer").vmer
        n_irq = sum(a.vmer == irq for a in acts)
        n_timer = sum(a.vmer == timer for a in acts)
        assert n_irq > 5 * n_timer

    def test_reason_probability_sums_to_one(self):
        gen = WorkloadGenerator(get_profile("x264"), VirtMode.PV, seed=1)
        total = sum(gen.reason_probability(r.name) for r in REGISTRY.pv_reasons)
        assert total == pytest.approx(1.0)

    def test_args_respect_reason_ranges(self):
        gen = WorkloadGenerator(get_profile("mcf"), VirtMode.PV, seed=11)
        for act in gen.activations(500):
            reason = REGISTRY.by_vmer(act.vmer)
            for value, (lo, hi) in zip(act.args, reason.arg_ranges):
                assert lo <= value <= hi

    def test_domains_are_valid_and_include_dom0_for_io(self):
        gen = WorkloadGenerator(get_profile("postmark"), VirtMode.PV, seed=13, n_domains=3)
        acts = gen.activations(500)
        domains = {a.domain_id for a in acts}
        assert domains <= {0, 1, 2}
        assert 0 in domains  # Dom0 backend work

    def test_generated_activations_run_fault_free(self):
        """Every generated activation must execute cleanly on the hypervisor."""
        hv = XenHypervisor(seed=3)
        for mode in VirtMode:
            gen = WorkloadGenerator(get_profile("postmark"), mode, seed=3)
            for act in gen.activations(60):
                res = hv.execute(act)
                assert res.instructions > 0

    def test_too_few_domains_rejected(self):
        with pytest.raises(CampaignConfigError):
            WorkloadGenerator(get_profile("mcf"), VirtMode.PV, n_domains=1)
