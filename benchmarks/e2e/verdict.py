"""Summary statistics and the A/B verdict rule.

A change counts as a gain on a metric only when it wins at least nine
tenths of all pairs run (ties count for neither side) and the medians
differ by more than the parent's interquartile range.  Otherwise the
question is whether it stayed within the metric's bound; when either
side's spread is wider than that bound the answer is "unresolved", not
"unchanged", unless every run of the change reads better than every
run of the parent.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

GAIN = "gain"
REGRESSION = "regression"
UNRESOLVED = "unresolved"
WITHIN = "within bound"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def wins(base: Sequence[float], head: Sequence[float], better: str) -> Tuple[int, int]:
    """(pairs the head won, pairs the base won); ties count for neither."""
    head_wins = sum(1 for b, h in zip(base, head) if _better(h, b, better))
    base_wins = sum(1 for b, h in zip(base, head) if _better(b, h, better))
    return head_wins, base_wins


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    """Compare paired samples of one metric; ``base`` is the parent."""
    if len(base) != len(head) or not base:
        raise ValueError("verdict needs the same non-zero number of pairs")
    b_q1, b_med, b_q3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    head_wins, base_wins = wins(base, head, better)
    n = len(base)
    gap = abs(h_med - b_med)
    if (_better(h_med, b_med, better) and 10 * head_wins >= 9 * n
            and gap > b_q3 - b_q1):
        label = GAIN
    elif all(_better(h, b, better) for h in head for b in base):
        label = WITHIN
    elif max(spread(base), spread(head)) > bound:
        label = UNRESOLVED
    elif _better(b_med, h_med, better) and gap > bound * abs(b_med):
        label = REGRESSION
    else:
        label = WITHIN
    return {
        "verdict": label,
        "pairs": n,
        "head_wins": head_wins,
        "base_wins": base_wins,
        "change": (h_med - b_med) / b_med if b_med else 0.0,
    }
