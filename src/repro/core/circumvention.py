"""Adaptive circumvention selection (§4.3.2).

Selection policy, per the paper:

1. Prefer *local fixes* over relay approaches — they avoid relay path
   stretch entirely.  Which local fix works depends on the observed
   blocking stages:

   ============ =============================================
   fix          defeats blocking at stages
   ============ =============================================
   public-dns   dns (resolver-based tampering)
   https        http (cleartext URL filters)
   ip-hostname  dns + http (keyword/hostname filters)
   fronting     dns + ip + tls + http (everything but blocking
                the front itself)
   ============ =============================================

2. Among relay approaches, pick the smallest moving-average PLT for this
   URL (falling back to the approach's global average, then to a prior).

3. Every n-th access to a URL, pick a *random* viable approach instead,
   so approaches that have improved get rediscovered.

4. A user preferring anonymity is restricted to anonymous methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circumvent.base import Transport
from ..simnet.world import World
from ..urlkit import normalize_url
from .config import CSawConfig
from .records import BlockType

__all__ = ["CircumventionModule", "fix_defeats"]

# Which blocking-stage sets each local fix can defeat.
_FIX_COVERAGE: Dict[str, Set[str]] = {
    "public-dns": {"dns"},
    "hold-on": {"dns"},  # survives on-path injection races too
    "https": {"http"},
    "ip-as-hostname": {"dns", "http"},
    "domain-fronting": {"dns", "ip", "tls", "http"},
}

# Cheapest-first preference among local fixes (§4.3.2: least overhead).
# hold-on sits behind public-dns: it carries a standing latency margin,
# so it is only reached once public DNS is observed to fail (injection).
_FIX_PREFERENCE = [
    "public-dns",
    "hold-on",
    "https",
    "ip-as-hostname",
    "domain-fronting",
]

# Pessimistic PLT priors (seconds) for relays never tried.
_RELAY_PRIORS: Dict[str, float] = {"lantern": 3.0, "tor": 5.0}
_DEFAULT_RELAY_PRIOR = 4.0


def fix_defeats(fix_name: str, stages: Sequence[BlockType]) -> bool:
    """Whether local fix ``fix_name`` defeats all observed blocking stages."""
    coverage = _FIX_COVERAGE.get(fix_name)
    if coverage is None:
        return False
    observed = {stage.stage for stage in stages}
    return bool(observed) and observed <= coverage


# Moving-average weight for per-approach PLT tracking.
_EWMA_ALPHA = 0.3


@dataclass
class _PltTracker:
    """Moving-average PLTs per (approach, URL) and per approach."""

    by_url: Dict[Tuple[str, str], float] = field(default_factory=dict)
    by_transport: Dict[str, float] = field(default_factory=dict)

    def record(self, transport_name: str, url: str, plt: float) -> None:
        for key, table in (
            ((transport_name, url), self.by_url),
            (transport_name, self.by_transport),
        ):
            previous = table.get(key)
            table[key] = (
                plt
                if previous is None
                else (1 - _EWMA_ALPHA) * previous + _EWMA_ALPHA * plt
            )

    def estimate(self, transport_name: str, url: str) -> float:
        by_url = self.by_url.get((transport_name, url))
        if by_url is not None:
            return by_url
        by_transport = self.by_transport.get(transport_name)
        if by_transport is not None:
            return by_transport
        base = transport_name.split(":", 1)[0]
        return _RELAY_PRIORS.get(base, _DEFAULT_RELAY_PRIOR)


class CircumventionModule:
    """Hosts the available methods and picks one per blocked URL."""

    def __init__(
        self,
        world: World,
        transports: List[Transport],
        config: Optional[CSawConfig] = None,
        rng_stream: str = "circumvention",
    ):
        self.world = world
        self.config = config or CSawConfig()
        self.rng = world.rngs.stream(rng_stream)
        self.transports: Dict[str, Transport] = {}
        for transport in transports:
            self.register(transport)
        self._tracker = _PltTracker()
        self._access_counts: Dict[str, int] = {}
        # Local fixes observed to fail for a URL (e.g. the censor also
        # drops Host:<ip> requests, defeating ip-as-hostname): data-driven
        # adaptation skips them on subsequent accesses.
        self._failed_fixes: Dict[str, Set[str]] = {}

    def register(self, transport: Transport) -> None:
        if transport.name in self.transports:
            raise ValueError(f"transport already registered: {transport.name!r}")
        self.transports[transport.name] = transport

    # -- observations --------------------------------------------------------

    def record_plt(self, transport_name: str, url: str, plt: float) -> None:
        self._tracker.record(transport_name, normalize_url(url), plt)

    def estimate_plt(self, transport_name: str, url: str) -> float:
        return self._tracker.estimate(transport_name, normalize_url(url))

    # -- candidate sets --------------------------------------------------------

    def relays(self) -> List[Transport]:
        return [
            t
            for t in self.transports.values()
            if not t.is_local_fix and t.name != "direct"
        ]

    def mark_fix_failed(self, url: str, fix_name: str) -> None:
        """Blacklist a local fix for this URL after a failed attempt."""
        self._failed_fixes.setdefault(normalize_url(url), set()).add(fix_name)

    def local_fix_for(
        self, url: str, stages: Sequence[BlockType]
    ) -> Optional[Transport]:
        """Cheapest local fix defeating all observed stages (or None)."""
        if self.config.prefer_anonymity:
            return None  # local fixes expose the user; anonymity wins
        failed = self._failed_fixes.get(normalize_url(url), set())
        for name in _FIX_PREFERENCE:
            if name in failed:
                continue
            transport = self.transports.get(name)
            if (
                transport is not None
                and fix_defeats(name, stages)
                and transport.available_for(self.world, url)
            ):
                return transport
        return None

    def _viable_relays(self, url: str) -> List[Transport]:
        relays = [
            t for t in self.relays() if t.available_for(self.world, url)
        ]
        if self.config.prefer_anonymity:
            relays = [t for t in relays if t.provides_anonymity]
        return relays

    def relay_for(self, url: str, explore: bool = False) -> Optional[Transport]:
        """Smallest-moving-average relay (or a random one when exploring)."""
        url = normalize_url(url)
        relays = self._viable_relays(url)
        if not relays:
            return None
        if explore and len(relays) > 1:
            return self.rng.choice(relays)
        return min(relays, key=lambda t: self._tracker.estimate(t.name, url))

    # -- the selection entry point ---------------------------------------------

    def choose(self, url: str, stages: Sequence[BlockType]) -> Optional[Transport]:
        """Pick the approach for one access to a blocked URL.

        Tracks per-URL access counts internally to honour the every-n-th
        exploration rule.
        """
        url = normalize_url(url)
        count = self._access_counts.get(url, 0) + 1
        self._access_counts[url] = count

        # Local fixes always win when one defeats the observed blocking
        # (§4.3.2: "we always prefer local-fixes over relay-based
        # approaches").  Exploration applies among relays only.
        fix = self.local_fix_for(url, stages)
        if fix is not None:
            return fix
        explore = count % self.config.explore_every_n == 0
        return self.relay_for(url, explore=explore)
