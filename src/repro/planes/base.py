"""The measurement-plane protocol: how reports get made.

C-Saw's original signal comes from one *plane* — in-browser redundant
requests issued by incentivized, CAPTCHA-registered users.  Related work
contributes two more (PAPERS.md): Encore-style lightweight cross-origin
probes (cheap, high-volume, unregistered, but a coarse reachable-vs-not
signal that mistakes block pages for content) and automatically
generated per-AS probe lists (Tang et al.) scheduled onto a small
vantage population.  A :class:`MeasurementPlane` captures everything the
server and the fleet layer need to know about one such source:

- **report generation** — which wave URLs a reporter observes, with what
  stage evidence, and when it posts (``wave_items`` /
  ``reporter_items`` / ``detection_delays``);
- **fidelity / false-signal profile** — the voting weight the plane's
  reports deserve and the misclassification it is known for
  (:class:`PlaneProfile.fidelity`, ``false_signal``);
- **volume / cost profile** — how many reporters a population yields and
  what one report costs on the wire (``reporter_count``,
  ``cost_per_report``);
- **registration semantics** — whether identities are CAPTCHA-gated and
  persistent, or ephemeral and mass-creatable (``register_reporters``,
  :class:`PlaneProfile.registered`).

Provenance is the reporter's registration: ``register_reporters``
registers each identity under ``profile.name``, the server's
:class:`~repro.core.voting.VotingLedger` records it once
(``plane_of``) and derives per-plane vote statistics from it on read,
and consumers may weight the confidence criterion by plane fidelity
(``weights={name: fidelity}``).  A :class:`ReportItem` carries no
plane.  The single-plane case is the degenerate configuration and is
bit-identical to the pre-refactor pipeline
(``tests/data/plane_golden.json``).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..core.globaldb import ReportItem, ServerDB
from ..core.voting import DEFAULT_PLANE

__all__ = ["DEFAULT_PLANE", "PlaneProfile", "MeasurementPlane"]


@dataclass(frozen=True)
class PlaneProfile:
    """The identity and trade-off card of one measurement plane."""

    #: The plane's name: its reporters register under it, which makes
    #: it the plane of every report they post.
    name: str
    #: Plane family: "csaw" | "encore" | "problist" | "flood" | "clique"
    #: (registry key).
    kind: str
    #: Voting weight in [0, 1] a consumer should give this plane's
    #: reports — the per-plane-aware confidence criterion multiplies
    #: each plane's (votes, reporters) by its weight before thresholds.
    fidelity: float
    #: Whether identities are CAPTCHA-gated and persistent (C-Saw users)
    #: or ephemeral/mass-creatable (Encore page visitors).
    registered: bool
    #: Expected fraction of genuinely blocked URLs this plane fails to
    #: report (its known false-signal mode), 0.0 for full-evidence planes.
    false_signal: float = 0.0
    #: Estimated wire cost of one report, bytes (volume/cost model).
    cost_per_report: float = 256.0


class MeasurementPlane(ABC):
    """One source of blocked-URL reports feeding the global_DB.

    The fleet layer drives a plane per blocking wave and per AS shard:
    ``reporter_count`` sizes the plane's reporter subpopulation,
    ``register_reporters`` issues identities per the plane's
    registration semantics, ``detection_delays`` draws each reporter's
    post time, and ``wave_items``/``reporter_items`` produce the
    :class:`ReportItem` lists (the fidelity model).

    All randomness comes from the ``rng`` arguments the caller passes —
    planes hold no RNG state of their own, which keeps fleet storms
    worker-count invariant.
    """

    profile: PlaneProfile

    #: True when each reporter of an AS observes its *own* item subset
    #: (e.g. Encore's per-vantage misclassification draws); False when
    #: one shared per-shard list serves every reporter (the C-Saw wave
    #: fast path — built once, posted by all).
    per_reporter_items: bool = False

    # -- volume model ----------------------------------------------------------

    def __init__(self, fraction: float):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1]: {fraction!r}")
        self.fraction = fraction

    def reporter_count(self, population: int) -> int:
        """How many of ``population`` clients report through this plane."""
        return max(1, round(population * self.fraction))

    # -- registration semantics ------------------------------------------------

    def register_reporters(
        self, server: ServerDB, now: float, count: int
    ) -> List[str]:
        """Issue ``count`` identities (CAPTCHA-gated unless the profile
        says otherwise), staggered by 1 ms as the fleet layer always
        registered its wave reporters."""
        profile = self.profile
        return [
            server.register(
                now=now + 0.001 * i,
                plane=profile.name,
                captcha_gated=profile.registered,
            )
            for i in range(count)
        ]

    # -- report generation -----------------------------------------------------

    @abstractmethod
    def detection_delays(
        self, count: int, rng: random.Random
    ) -> Iterable[float]:
        """Per-reporter delay from wave onset to post time (draw order
        is part of the plane's contract — the fleet consumes these
        straight into a record array)."""

    @abstractmethod
    def wave_items(
        self, urls: Sequence[str], asn: int, onset: float, rng: random.Random
    ) -> List[ReportItem]:
        """The plane's observation of a blocking wave: one shared item
        list (full coverage planes) or the superset ``reporter_items``
        refines per reporter."""

    def reporter_items(
        self, shared: List[ReportItem], rng: random.Random
    ) -> List[ReportItem]:
        """One reporter's own observation (only consulted when
        ``per_reporter_items`` is True)."""
        return shared
