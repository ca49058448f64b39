"""Statistical utilities: box-plot summaries and CDFs.

Fig. 3 reports per-second activation rates as box plots ("the central line on
the box is the median; the box represents the data points between the 25th
and 75th percentiles; the lines extend to the maximum and minimum data
points"); Fig. 10 reports detection latency as a CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CampaignConfigError

__all__ = ["BoxStats", "Cdf"]


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary matching the paper's box-plot convention."""

    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float
    n: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "BoxStats":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            raise CampaignConfigError("cannot summarize an empty sample set")
        q25, median, q75 = np.percentile(samples, [25, 50, 75])
        return cls(
            minimum=float(samples.min()),
            q25=float(q25),
            median=float(median),
            q75=float(q75),
            maximum=float(samples.max()),
            n=int(samples.size),
        )

    def row(self, label: str, unit: str = "") -> str:
        """One formatted table row (min / q25 / median / q75 / max)."""
        suffix = f" {unit}" if unit else ""
        return (
            f"{label:<14} {self.minimum:>12,.0f} {self.q25:>12,.0f} "
            f"{self.median:>12,.0f} {self.q75:>12,.0f} {self.maximum:>12,.0f}{suffix}"
        )


@dataclass(frozen=True)
class Cdf:
    """Empirical cumulative distribution over scalar samples."""

    values: np.ndarray     # sorted
    fractions: np.ndarray  # cumulative fractions in (0, 1]

    @classmethod
    def from_samples(cls, samples) -> "Cdf":
        arr = np.sort(np.asarray(samples, dtype=np.float64))
        if arr.size == 0:
            raise CampaignConfigError("cannot build a CDF from no samples")
        fractions = np.arange(1, arr.size + 1, dtype=np.float64) / arr.size
        return cls(values=arr, fractions=fractions)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def fraction_at(self, x: float) -> float:
        """P(value <= x)."""
        return float(np.searchsorted(self.values, x, side="right")) / self.n

    def percentile(self, q: float) -> float:
        """Value at cumulative fraction ``q`` (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise CampaignConfigError("q must be in (0, 1]")
        index = min(self.n - 1, int(np.ceil(q * self.n)) - 1)
        return float(self.values[max(0, index)])

    def table(self, points: list[float]) -> list[tuple[float, float]]:
        """(x, fraction) pairs at the requested x points."""
        return [(x, self.fraction_at(x)) for x in points]
