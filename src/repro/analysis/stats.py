"""Summary statistics used by the experiment drivers."""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Dict, Sequence, Tuple

#: common two-sided z values, kept exact so long-standing results (and the
#: paper's tables) reproduce bit-for-bit at the standard levels
_Z_TABLE = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def z_value(level: float) -> float:
    """Two-sided standard-normal critical value for a confidence level.

    Standard levels (0.90 / 0.95 / 0.99) use the conventional rounded table
    values; any other level in (0, 1) is computed exactly from the inverse
    normal CDF instead of being silently mislabelled as 95%.
    """
    if not 0 < level < 1:
        raise ValueError(
            f"confidence level must be in (0, 1), got {level}")
    table = _Z_TABLE.get(round(level, 2))
    if table is not None and math.isclose(level, round(level, 2)):
        return table
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


def percentile(data: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100) of the non-empty, sorted
    ``data``, interpolating linearly between the two nearest ranks."""
    pos = (len(data) - 1) * q / 100.0
    lo, hi = int(math.floor(pos)), int(math.ceil(pos))
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1 - frac) + data[hi] * frac


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Mean, min, max, standard deviation and common percentiles."""
    if not samples:
        return {"count": 0, "mean": float("nan"), "min": float("nan"),
                "max": float("nan"), "stdev": float("nan"),
                "p50": float("nan"), "p95": float("nan"), "p99": float("nan")}
    data = sorted(float(x) for x in samples)
    n = len(data)
    mean = sum(data) / n
    if n > 1:
        stdev = math.sqrt(sum((x - mean) ** 2 for x in data) / (n - 1))
    else:
        stdev = 0.0
    return {"count": n, "mean": mean, "min": data[0], "max": data[-1],
            "stdev": stdev, "p50": percentile(data, 50),
            "p95": percentile(data, 95), "p99": percentile(data, 99)}


def _interval_from_summary(stats: Dict[str, float],
                           level: float) -> Tuple[float, float]:
    """The normal-approximation interval for an already-computed summary."""
    z = z_value(level)
    n = stats["count"]
    if n == 0:
        return (float("nan"), float("nan"))
    if n == 1:
        return (stats["mean"], stats["mean"])
    half_width = z * stats["stdev"] / math.sqrt(n)
    return (stats["mean"] - half_width, stats["mean"] + half_width)


def confidence_interval(samples: Sequence[float],
                        level: float = 0.95) -> Tuple[float, float]:
    """Normal-approximation confidence interval for the mean.

    The experiments collect thousands of samples, so the normal
    approximation is adequate; the function degrades gracefully for small
    sample counts by returning a wide interval.
    """
    return _interval_from_summary(summarize(samples), level)


def aggregate_mean_ci(samples: Sequence[float],
                      level: float = 0.95) -> Dict[str, float]:
    """Mean plus confidence interval of replicated measurements.

    The sweep orchestrator reduces every numeric metric of a parameter
    point's replications through this function, so aggregated experiment
    rows all carry the same ``mean`` / ``ci_low`` / ``ci_high`` shape.
    """
    stats = summarize(samples)
    low, high = _interval_from_summary(stats, level)
    return {"mean": stats["mean"], "ci_low": low, "ci_high": high}


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index of a throughput allocation (1.0 = equal)."""
    values = [float(v) for v in values]
    if not values or all(v == 0 for v in values):
        return float("nan")
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    return square_of_sum / (len(values) * sum_of_squares)
