"""Box stats, CDFs, and report tables."""

import numpy as np
import pytest

from repro.analysis import BoxStats, Cdf, ComparisonTable, format_percent
from repro.errors import CampaignConfigError


class TestBoxStats:
    def test_five_number_summary(self):
        stats = BoxStats.from_samples(np.arange(1, 102))  # 1..101
        assert stats.minimum == 1 and stats.maximum == 101
        assert stats.median == 51
        assert stats.q25 == 26 and stats.q75 == 76
        assert stats.n == 101

    def test_single_sample(self):
        stats = BoxStats.from_samples(np.array([42.0]))
        assert stats.minimum == stats.median == stats.maximum == 42.0

    def test_empty_rejected(self):
        with pytest.raises(CampaignConfigError):
            BoxStats.from_samples(np.array([]))

    def test_row_formats(self):
        row = BoxStats.from_samples(np.array([1000.0, 2000.0, 3000.0])).row("mcf")
        assert row.startswith("mcf") and "2,000" in row


class TestCdf:
    def test_monotone_and_bounded(self):
        cdf = Cdf.from_samples([5, 1, 3, 2, 4])
        assert (np.diff(cdf.fractions) >= 0).all()
        assert cdf.fractions[0] > 0 and cdf.fractions[-1] == 1.0

    def test_fraction_at(self):
        cdf = Cdf.from_samples([10, 20, 30, 40])
        assert cdf.fraction_at(5) == 0.0
        assert cdf.fraction_at(20) == 0.5
        assert cdf.fraction_at(100) == 1.0

    def test_percentile_inverse(self):
        cdf = Cdf.from_samples(range(1, 101))
        assert cdf.percentile(0.95) == 95
        assert cdf.percentile(1.0) == 100

    def test_percentile_validation(self):
        cdf = Cdf.from_samples([1])
        with pytest.raises(CampaignConfigError):
            cdf.percentile(0.0)
        with pytest.raises(CampaignConfigError):
            cdf.percentile(1.5)

    def test_percentile_rejects_negative_quantile(self):
        cdf = Cdf.from_samples([1, 2, 3])
        with pytest.raises(CampaignConfigError):
            cdf.percentile(-0.5)

    def test_percentile_smallest_quantile_hits_minimum(self):
        # Any q in (0, 1/n] must return the smallest sample, never
        # underflow the value array.
        cdf = Cdf.from_samples([10, 20, 30, 40])
        assert cdf.percentile(1e-9) == 10
        assert cdf.percentile(0.25) == 10

    def test_percentile_matches_numpy_inverted_cdf(self):
        """Pin the empirical percentile to numpy's inverted-CDF method.

        The streaming service reuses ``Cdf`` for its latency summaries
        (p50/p95/p99 over the exact per-row decision latencies), so the
        definition must stay aligned with the standard empirical quantile.
        """
        rng = np.random.default_rng(7)
        samples = rng.exponential(0.002, 1000)
        cdf = Cdf.from_samples(samples)
        for q in (0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert cdf.percentile(q) == pytest.approx(
                float(np.percentile(samples, q * 100, method="inverted_cdf"))
            )

    def test_table_pairs(self):
        cdf = Cdf.from_samples([100, 200, 700])
        table = cdf.table([100, 700])
        assert table == [(100, pytest.approx(1 / 3)), (700, pytest.approx(1.0))]

    def test_empty_rejected(self):
        with pytest.raises(CampaignConfigError):
            Cdf.from_samples([])


class TestComparisonTable:
    def test_render_contains_rows(self):
        table = ComparisonTable("Fig. 8 overall coverage")
        table.add_percent("average coverage", 0.976, 0.921, "shape preserved")
        table.add("who wins", "hw exceptions", "hw exceptions")
        text = table.render()
        assert "Fig. 8" in text
        assert "97.6%" in text and "92.1%" in text
        assert "shape preserved" in text

    def test_empty_table(self):
        assert "(no rows)" in ComparisonTable("empty").render()

    def test_format_percent_none(self):
        assert format_percent(None) == "---"
        assert format_percent(0.123) == "12.3%"
