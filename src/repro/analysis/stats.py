"""Statistics helpers: percentiles and summaries.

Every figure in the paper is a CDF of PLTs or a categorical fraction;
these helpers compute them plainly (no numpy dependency needed for the
library itself — benches may use numpy freely).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

__all__ = ["percentile", "median", "mean", "Summary", "summarize"]


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q out of range: {q!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary used by the bench tables."""

    count: int
    mean: float
    p50: float
    p90: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def row(self) -> Dict[str, float]:
        return {
            "n": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }


def summarize(values: Iterable[float]) -> Summary:
    data = list(values)
    if not data:
        raise ValueError("summarize of empty sequence")
    return Summary(
        count=len(data),
        mean=mean(data),
        p50=percentile(data, 50),
        p90=percentile(data, 90),
        p95=percentile(data, 95),
        p99=percentile(data, 99),
        minimum=min(data),
        maximum=max(data),
    )
