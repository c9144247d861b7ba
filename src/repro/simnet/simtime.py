"""Tolerance comparisons for simulated-time floats.

Simulated timestamps are sums of float latencies, so exact ``==`` on
them depends on summation order: any refactor that reassociates a sum
(batching, the three-lane scheduler, vectorized latency draws) can flip
an exact comparison without changing the simulation's semantics.
csaw-analyze rule CSL006 bans ``==``/``!=`` on time-like values and points
here instead.
"""

from __future__ import annotations

__all__ = ["TIME_EPS", "time_eq", "time_ne", "time_close"]

#: Half a nanosecond of simulated seconds: far below any modelled latency
#: (the finest grain in ``simnet/latency.py`` is microseconds), far above
#: accumulated float error over a full pilot run.
TIME_EPS = 5e-10


def time_eq(a: float, b: float, eps: float = TIME_EPS) -> bool:
    """True when two simulated timestamps are the same instant."""
    return abs(a - b) <= eps


def time_ne(a: float, b: float, eps: float = TIME_EPS) -> bool:
    """True when two simulated timestamps are distinct instants."""
    return abs(a - b) > eps


#: Alias matching the naming used in analysis code.
time_close = time_eq
