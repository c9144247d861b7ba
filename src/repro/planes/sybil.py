"""Sybil reporter planes: a flood and a clique of fabricators (§5).

The paper's attacker passes the rate-limited CAPTCHA a handful of times
and pushes unblocked URLs into the global_DB; the defence is each
identity's one vote split over its ``d`` reports, then reputation-based
revocation.  Two attack shapes post through the fleet's write path:

- ``clique`` — every reporter of an AS vouches for one shared list of
  ``urls_each`` fabricated URLs (corroborated, but identical sets);
- ``flood`` — each reporter fabricates its own ``urls_each`` URLs that
  no other reporter posts (high volume, zero corroboration).

Fabricated URLs live under ``fabricated.example``, never a wave URL.
Everything else — evidence, schedule, registration — is the C-Saw
plane's, so only behaviour sets the adversaries apart.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Sequence

from ..core.globaldb import ReportItem
from .csaw import CSawBrowserPlane

__all__ = ["SybilPlane"]


class SybilPlane(CSawBrowserPlane):
    """CAPTCHA-passing identities posting fabricated blocked URLs."""

    def __init__(self, kind: str, fraction: float, urls_each: int = 1,
                 name: str = ""):
        if kind not in ("clique", "flood"):
            raise ValueError(f"kind must be clique|flood: {kind!r}")
        if not urls_each >= 1:
            raise ValueError(f"urls_each must be >= 1: {urls_each!r}")
        super().__init__(fraction, name=name or kind)
        # No report names a blocked URL.
        self.profile = replace(self.profile, kind=kind, false_signal=1.0)
        self.urls_each = urls_each
        self.per_reporter_items = kind == "flood"

    def _urls(self, asn: int, tag: str = "") -> List[str]:
        name = self.profile.name
        return [
            f"http://{name}-as{asn}{tag}-{k}.fabricated.example/"
            for k in range(self.urls_each)
        ]

    def wave_items(
        self, urls: Sequence[str], asn: int, onset: float, rng: random.Random
    ) -> List[ReportItem]:
        # The clique's shared list; a flood's reporters re-tag it.
        return super().wave_items(self._urls(asn), asn, onset, rng)

    def reporter_items(
        self, shared: List[ReportItem], rng: random.Random
    ) -> List[ReportItem]:
        # A 64-bit tag per flood reporter keeps its URLs its own.
        first = shared[0]  # urls_each >= 1
        urls = self._urls(first.asn, f"-{rng.getrandbits(64):016x}")
        return super().wave_items(urls, first.asn, first.measured_at, rng)
