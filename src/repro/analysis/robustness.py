"""Seed-robustness harness: do the headline claims survive re-rolls?

A reproduction whose conclusions hold only for one RNG seed has not
reproduced anything.  :func:`claim_holds` checks a predicate per seed
and reports the holding fraction; the ``bench_seed_robustness`` bench
uses it to re-verify the paper's orderings (Figure 7, Table 6, Figure 5)
across seeds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, TypeVar

__all__ = ["claim_holds"]

T = TypeVar("T")


def claim_holds(
    experiment: Callable[[int], T],
    predicate: Callable[[T], bool],
    seeds: Sequence[int],
) -> Dict[str, object]:
    """Evaluate a boolean claim per seed.

    Returns {"fraction": float, "failures": [seeds]} so a bench can both
    assert and report which seeds (if any) broke the claim.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    failures: List[int] = []
    for seed in seeds:
        if not predicate(experiment(seed)):
            failures.append(seed)
    return {
        "fraction": 1.0 - len(failures) / len(seeds),
        "failures": failures,
    }
