"""ASCII figure rendering."""

import numpy as np
import pytest

from repro.analysis import BoxStats, Cdf
from repro.analysis.plots import ascii_boxplot, ascii_cdf, ascii_stacked_bars
from repro.errors import CampaignConfigError


class TestBoxplot:
    def make(self):
        return {
            "mcf": BoxStats.from_samples(np.array([5e3, 7e3, 9e3, 12e3, 40e3])),
            "postmark": BoxStats.from_samples(np.array([2e4, 3e4, 4e4, 5e4, 1.7e5])),
        }

    def test_renders_all_labels(self):
        text = ascii_boxplot(self.make())
        assert "mcf" in text and "postmark" in text
        assert "log scale" in text

    def test_box_glyphs_present(self):
        text = ascii_boxplot(self.make())
        for glyph in ("[", "]", "=", "|"):
            assert glyph in text

    def test_wider_distribution_draws_wider_box(self):
        text = ascii_boxplot(self.make(), width=60)
        rows = {line.split()[0]: line for line in text.splitlines()[:-1]}
        assert rows["postmark"].index("[") > rows["mcf"].index("[")

    def test_linear_scale(self):
        text = ascii_boxplot(self.make(), log_scale=False)
        assert "linear" in text

    def test_empty_rejected(self):
        with pytest.raises(CampaignConfigError):
            ascii_boxplot({})


class TestCdfPlot:
    def make(self):
        return {
            "hw": Cdf.from_samples([1, 2, 3, 4, 5]),
            "transition": Cdf.from_samples([50, 150, 400, 600, 900]),
        }

    def test_curves_and_legend(self):
        text = ascii_cdf(self.make(), x_max=1000)
        assert "* hw" in text and "o transition" in text
        assert "100%" in text and "0%" in text

    def test_fast_curve_saturates_left(self):
        text = ascii_cdf(self.make(), x_max=1000, width=40, height=10)
        top_row = text.splitlines()[0]
        # The hw curve reaches 100% almost immediately.
        assert "*" in top_row
        assert top_row.index("*") < 8

    def test_empty_rejected(self):
        with pytest.raises(CampaignConfigError):
            ascii_cdf({}, x_max=10)


class TestStackedBars:
    def make(self):
        return {
            "bzip2": [("hw", 0.7), ("assert", 0.1), ("transition", 0.1),
                      ("undetected", 0.1)],
            "postmark": [("hw", 0.6), ("assert", 0.1), ("transition", 0.1),
                         ("undetected", 0.2)],
        }

    def test_renders_bars_and_legend(self):
        text = ascii_stacked_bars(self.make())
        assert "bzip2" in text and "#=hw" in text

    def test_segment_widths_reflect_shares(self):
        text = ascii_stacked_bars(self.make(), width=50)
        bzip2_row = next(r for r in text.splitlines() if r.startswith("bzip2"))
        postmark_row = next(r for r in text.splitlines() if r.startswith("postmark"))
        assert bzip2_row.count("#") > postmark_row.count("#")

    def test_empty_rejected(self):
        with pytest.raises(CampaignConfigError):
            ascii_stacked_bars({})
