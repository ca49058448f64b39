"""Fig. 3 — The frequency of hypervisor activities.

Paper: box plots of per-second hypervisor activation rates for six benchmarks
under para-virtualization and hardware-assisted virtualization.  Headline
numbers: PV rates generally between 5,000/s and 100,000/s with freqmine
peaking around 650,000/s; HVM rates mostly between 2,000/s and 10,000/s; PV
consistently higher than HVM.
"""

from __future__ import annotations

import pytest

from repro.analysis import BoxStats, ComparisonTable, ascii_boxplot
from repro.workloads import BENCHMARKS, VirtMode, WorkloadGenerator

MEASURE_SECONDS = 600


def measure_rates() -> dict[tuple[str, VirtMode], BoxStats]:
    out: dict[tuple[str, VirtMode], BoxStats] = {}
    for profile in BENCHMARKS:
        for mode in VirtMode:
            generator = WorkloadGenerator(profile, mode, seed=3)
            out[(profile.name, mode)] = BoxStats.from_samples(
                generator.rate_per_second(MEASURE_SECONDS)
            )
    return out


@pytest.fixture(scope="module")
def rates() -> dict[tuple[str, VirtMode], BoxStats]:
    return measure_rates()


def test_fig3_regenerate(benchmark, rates):
    """Regenerate the Fig. 3 box-plot statistics and print them."""
    result = benchmark(measure_rates)
    print("\nFig. 3 — hypervisor activation frequency (activations/second)")
    header = f"{'benchmark':<14} {'min':>12} {'q25':>12} {'median':>12} {'q75':>12} {'max':>12}"
    for mode in VirtMode:
        print(f"\n[{mode.value}]")
        print(header)
        for profile in BENCHMARKS:
            print(result[(profile.name, mode)].row(profile.name))
        print()
        print(ascii_boxplot(
            {p.name: result[(p.name, mode)] for p in BENCHMARKS}
        ))
    table = ComparisonTable("Fig. 3 headline numbers")
    pv_medians = [result[(p.name, VirtMode.PV)].median for p in BENCHMARKS]
    table.add("PV typical range", "5k-100k/s",
              f"{min(pv_medians):,.0f}-{max(r.q75 for k, r in result.items() if k[1] is VirtMode.PV):,.0f}/s")
    table.add("freqmine peak", "~650,000/s",
              f"{result[('freqmine', VirtMode.PV)].maximum:,.0f}/s")
    hvm_medians = [result[(p.name, VirtMode.HVM)].median for p in BENCHMARKS]
    table.add("HVM typical range", "2k-10k/s",
              f"{min(hvm_medians):,.0f}-{max(hvm_medians):,.0f}/s")
    print("\n" + table.render())


def test_pv_medians_within_paper_band(rates):
    for profile in BENCHMARKS:
        median = rates[(profile.name, VirtMode.PV)].median
        assert 5_000 <= median <= 100_000, profile.name


def test_hvm_medians_within_paper_band(rates):
    for profile in BENCHMARKS:
        median = rates[(profile.name, VirtMode.HVM)].median
        assert 1_500 <= median <= 12_000, profile.name


def test_pv_exceeds_hvm_for_every_benchmark(rates):
    """Section II.B: para-virtualization has generally higher frequencies."""
    for profile in BENCHMARKS:
        assert (
            rates[(profile.name, VirtMode.PV)].median
            > rates[(profile.name, VirtMode.HVM)].median
        )


def test_freqmine_reaches_the_peak(rates):
    """The paper's 650k/s peak is in freqmine's tail."""
    stats = rates[("freqmine", VirtMode.PV)]
    assert stats.maximum > 250_000
    assert stats.maximum == max(
        rates[(p.name, VirtMode.PV)].maximum for p in BENCHMARKS
    )
