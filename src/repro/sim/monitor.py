"""Measurement helpers used by sinks, pollers and experiment drivers."""

from __future__ import annotations

from typing import List

from repro.analysis.stats import percentile


class Monitor:
    """Collects scalar samples and computes summary statistics.

    The monitor intentionally stores all samples (the experiments need exact
    maxima and percentiles); counts in this project are small enough for that
    to be cheap.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        """Add one sample."""
        self.samples.append(float(value))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return float("nan")
        return self.total / len(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else float("nan")

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else float("nan")

    def percentile(self, q: float) -> float:
        """Return the q-th percentile (0 <= q <= 100, linear interpolation)."""
        if not self.samples:
            return float("nan")
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        return percentile(sorted(self.samples), q)

    def summary(self) -> dict:
        """Return a dictionary with the usual summary statistics."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
