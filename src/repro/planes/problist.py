"""Generated per-AS probe-list plane (Tang et al., PAPERS.md).

Instead of waiting for users to stumble onto blocked pages, generate a
probe list per AS and schedule a small vantage population to walk it.
Fidelity is high for URLs *on* the list (the vantage runs a full
measurement, same stage evidence as C-Saw), but coverage is partial: a
wave URL absent from the generated list is invisible to this plane
(``coverage`` models list-generation recall).  Detection is
scan-scheduled, not browsing-driven — a vantage notices the block on
its next pass over the list, so delays are uniform over the probe
interval rather than a human-reaction window.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

from ..core.fleet import WAVE_STAGES
from ..core.globaldb import ReportItem
from .base import MeasurementPlane, PlaneProfile

__all__ = ["GeneratedProbeListPlane"]


class GeneratedProbeListPlane(MeasurementPlane):
    """Scheduled vantages probing a generated per-AS URL list."""

    per_reporter_items = False

    def __init__(
        self,
        fraction: float,
        probe_interval: float = 600.0,
        coverage: float = 0.7,
        name: str = "problist",
    ):
        super().__init__(fraction)
        if not 0.0 < coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1]: {coverage!r}")
        if not probe_interval > 0.0:
            raise ValueError(f"probe_interval must be > 0: {probe_interval!r}")
        self.probe_interval = probe_interval
        self.coverage = coverage
        self.profile = PlaneProfile(
            name=name,
            kind="problist",
            fidelity=0.9,  # full evidence, but a scheduled scan can be
            registered=True,  # fingerprinted/poisoned by an aware censor
            false_signal=1.0 - coverage,
            cost_per_report=512.0,
        )

    def detection_delays(
        self, count: int, rng: random.Random
    ) -> Iterable[float]:
        # Scheduled scans: each vantage's next pass over its list lands
        # uniformly within one probe interval of the wave onset.
        interval = self.probe_interval
        return (rng.uniform(0.0, interval) for _ in range(count))

    def wave_items(
        self, urls: Sequence[str], asn: int, onset: float, rng: random.Random
    ) -> List[ReportItem]:
        # List-generation recall: each wave URL made it onto the
        # generated per-AS list with probability ``coverage`` (one draw
        # per URL, shard-shared — the list is common to every vantage of
        # the AS).  Listed URLs get a full-evidence scheduled probe.
        coverage = self.coverage
        return [
            ReportItem(
                url=url,
                asn=asn,
                stages=WAVE_STAGES,
                measured_at=onset,
            )
            for url in urls
            if coverage >= 1.0 or rng.random() < coverage
        ]
