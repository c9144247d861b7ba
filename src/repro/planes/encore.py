"""Encore-style cross-origin probe plane (PAPERS.md).

Encore piggybacks tiny cross-origin fetches on unwitting page visitors:
essentially free per measurement, so the reporting fraction can be an
order of magnitude above C-Saw's incentivized users, and no registration
friction (identities are ephemeral — ``registered=False`` skips the
CAPTCHA gate).  The price is fidelity: the signal is a coarse
reachable-vs-not dichotomy (a single timeout stage, no DNS/block-page
decomposition), and censors serving block *pages* defeat it outright —
the probe gets an HTTP 200 and counts the URL as reachable.  That
misclassification is the plane's configurable false-signal knob
(``miss_rate``): each vantage independently drops each genuinely blocked
URL with that probability, so Encore's per-reporter item lists differ
(``per_reporter_items=True``).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple

from ..core.globaldb import ReportItem
from ..core.records import BlockType
from .base import MeasurementPlane, PlaneProfile

__all__ = ["EncoreProbePlane", "ENCORE_STAGES"]

#: The dichotomy Encore can actually observe: the cross-origin fetch
#: timed out.  No stage decomposition — one coarse evidence code.
ENCORE_STAGES: Tuple[BlockType, ...] = (BlockType.HTTP_TIMEOUT,)

#: Probes fire on page load, not on browsing-driven discovery — the
#: post-onset delay window is much shorter than a C-Saw user's.
PROBE_WINDOW: Tuple[float, float] = (2.0, 60.0)


class EncoreProbePlane(MeasurementPlane):
    """High-volume, unregistered, coarse-signal probe reporters."""

    per_reporter_items = True

    def __init__(
        self,
        fraction: float,
        miss_rate: float = 0.2,
        name: str = "encore",
    ):
        super().__init__(fraction)
        if not 0.0 <= miss_rate < 1.0:
            raise ValueError(f"miss_rate must be in [0, 1): {miss_rate!r}")
        self.miss_rate = miss_rate
        self.profile = PlaneProfile(
            name=name,
            kind="encore",
            fidelity=0.5,  # coarse dichotomy: weight its votes at half
            registered=False,
            false_signal=miss_rate,
            cost_per_report=64.0,  # one cross-origin GET, no session
        )

    def detection_delays(
        self, count: int, rng: random.Random
    ) -> Iterable[float]:
        lo, hi = PROBE_WINDOW
        return (rng.uniform(lo, hi) for _ in range(count))

    def wave_items(
        self, urls: Sequence[str], asn: int, onset: float, rng: random.Random
    ) -> List[ReportItem]:
        # The superset one vantage *could* observe; reporter_items thins
        # it per vantage by the blockpage-misclassification draw.
        return [
            ReportItem(
                url=url,
                asn=asn,
                stages=ENCORE_STAGES,
                measured_at=onset,
            )
            for url in urls
        ]

    def reporter_items(
        self, shared: List[ReportItem], rng: random.Random
    ) -> List[ReportItem]:
        # Block pages answer the probe with content: with probability
        # miss_rate this vantage classifies the URL as reachable and
        # never reports it.  Draw order: one uniform per shared item.
        if self.miss_rate <= 0.0:
            return shared
        miss = self.miss_rate
        return [item for item in shared if rng.random() >= miss]
