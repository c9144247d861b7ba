"""The original C-Saw plane: in-browser redundant requests (§3–§5).

High fidelity (full per-stage evidence, no systematic misclassification),
CAPTCHA-registered identities, but expensive per reporter — only the
incentivized fraction of a population carries it.  This is the
refactored pre-plane reporter path: under a single-plane mix the fleet
layer reproduces the pre-refactor pipeline bit for bit
(``tests/data/plane_golden.json``), so every draw below must match what
``ClientCohort.start_wave`` historically did inline.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple

from ..core.fleet import WAVE_STAGES
from ..core.globaldb import ReportItem
from ..core.voting import DEFAULT_PLANE
from .base import MeasurementPlane, PlaneProfile

__all__ = ["CSawBrowserPlane"]

#: Seconds from wave onset within which a browsing reporter hits a
#: blocked wave URL and posts (uniform).
BROWSE_WINDOW: Tuple[float, float] = (5.0, 120.0)


class CSawBrowserPlane(MeasurementPlane):
    """In-browser redundant-request reporters: the paper's own plane."""

    per_reporter_items = False

    def __init__(self, fraction: float, name: str = DEFAULT_PLANE):
        super().__init__(fraction)
        self.profile = PlaneProfile(
            name=name,
            kind="csaw",
            fidelity=1.0,
            registered=True,
            false_signal=0.0,
            cost_per_report=512.0,  # full stage evidence + session overhead
        )

    def detection_delays(
        self, count: int, rng: random.Random
    ) -> Iterable[float]:
        # Users notice blocking as they browse: uniform over the browse
        # window, one draw per reporter in reporter order (the exact
        # pre-refactor sequence).
        lo, hi = BROWSE_WINDOW
        return (rng.uniform(lo, hi) for _ in range(count))

    def wave_items(
        self, urls: Sequence[str], asn: int, onset: float, rng: random.Random
    ) -> List[ReportItem]:
        # Full-evidence observation shared by every reporter of the AS:
        # the redundant-request session surfaces both blocking stages.
        return [
            ReportItem(
                url=url,
                asn=asn,
                stages=WAVE_STAGES,
                measured_at=onset,
            )
            for url in urls
        ]
