"""Lantern simulator: trust-based single-relay HTTPS proxies (§2.2).

Two layers:

- :class:`LanternTransport` — the raw relay path through a trusted proxy.
  Proxies are discovered through a social trust graph, *not* chosen for
  latency, so the tunnel often takes a geographically long path — the
  source of Lantern's ~1.5× PLT penalty in Figure 1c.
- :class:`LanternSystem` — the end-to-end baseline used in §7.3: try the
  direct path first, detect blocking, then relay — always relaying for
  URLs it has learned are blocked (no local fixes, no adaptivity).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..simnet.flow import FlowContext
from ..simnet.http import HttpResponse
from ..simnet.topology import Host
from ..simnet.world import World
from ..urlkit import parse_url
from .base import Transport, fetch_pipeline
from .relay import relay_fetch

__all__ = ["LanternNetwork", "LanternTransport", "LanternSystem"]

_PROXY_LOCATIONS: List[Tuple[str, float]] = [
    ("us-east", 0.25),
    ("us-west", 0.15),
    ("uk", 0.12),
    ("germany", 0.15),
    ("netherlands", 0.10),
    ("france", 0.08),
    ("canada", 0.08),
    ("japan", 0.07),
]
_TRUST_DEGREE = 3


class LanternNetwork:
    """Volunteer proxy population plus the trust graph over it."""

    def __init__(self, world: World, proxies: List[Host]):
        if not proxies:
            raise ValueError("Lantern needs at least one proxy")
        self.world = world
        self.proxies = proxies

    @classmethod
    def build(
        cls,
        world: World,
        n_proxies: int = 12,
    ) -> "LanternNetwork":
        rng = world.rngs.stream("lantern-network")
        names = [loc for loc, _w in _PROXY_LOCATIONS]
        weights = [w for _loc, w in _PROXY_LOCATIONS]
        proxies = []
        for index in range(n_proxies):
            location = rng.choices(names, weights=weights)[0]
            proxies.append(
                world.network.add_host(
                    name=f"lantern-proxy-{index}",
                    location=location,
                    extra_rtt=0.008,
                    jitter_sigma=0.20,
                    bandwidth_bps=min(25e6, 5e6 * rng.lognormvariate(0.0, 0.6)),
                    tags={"role": "lantern-proxy"},
                )
            )
        return cls(world, proxies)

    def trusted_for(self, stream: str) -> List[Host]:
        """The proxies one user can reach through friend-of-friend trust.

        A small random subset (``_TRUST_DEGREE``): trust, not proximity,
        decides reachability — which is exactly why Lantern paths are long.
        """
        rng = self.world.rngs.stream(stream)
        degree = min(_TRUST_DEGREE, len(self.proxies))
        return rng.sample(self.proxies, degree)


class LanternTransport(Transport):
    """Relay through the user's trusted Lantern proxies (sticky choice)."""

    name = "lantern"
    provides_anonymity = False  # Lantern explicitly trades anonymity away
    uses_relay = True

    def __init__(self, network: LanternNetwork, user_stream: str = "lantern-user"):
        self.network = network
        self.rng = network.world.rngs.stream(user_stream)
        self.trusted = network.trusted_for(f"{user_stream}/trust")
        self._current: Optional[Host] = None

    def _proxy(self) -> Host:
        if self._current is None:
            self._current = self.rng.choice(self.trusted)
        return self._current

    def rotate_proxy(self) -> None:
        """Switch to another trusted proxy (after a failure)."""
        alternatives = [p for p in self.trusted if p is not self._current]
        if alternatives:
            self._current = self.rng.choice(alternatives)

    def fetch(self, world: World, ctx: FlowContext, url: str) -> Generator:
        proxy = self._proxy()
        result = yield from relay_fetch(
            world,
            ctx,
            url,
            proxy,
            transport_name=self.name,
            bandwidth_cap_bps=proxy.bandwidth_bps,
        )
        if result.failed and result.failure_stage in ("tcp", "tls"):
            self.rotate_proxy()
        return result


def _looks_blocked(response: HttpResponse) -> bool:
    """Lantern's own crude blocking check on a direct response."""
    if response.status >= 400:
        return True
    lowered = response.html.lower()
    return response.size_bytes < 1200 and (
        "blocked" in lowered or "denied" in lowered or "<iframe" in lowered
    )


class LanternSystem:
    """The Lantern baseline as a whole-system fetch policy (§7.3).

    Per blocked hostname, Lantern remembers to relay.  For unknown URLs it
    pays a detection cost on the direct path first.  It never uses local
    fixes — that is C-Saw's edge over it.
    """

    name = "lantern-system"

    def __init__(self, transport: LanternTransport, proxy_all: bool = False):
        self.transport = transport
        # Full-proxy mode: tunnel everything, blocked or not (how Lantern
        # was operated in the paper's §7.3 comparison — Figure 7b shows it
        # relaying even unblocked pages).
        self.proxy_all = proxy_all
        self._blocked_hosts: Dict[str, bool] = {}

    def fetch(self, world: World, ctx: FlowContext, url: str) -> Generator:
        host = parse_url(url).host
        if self.proxy_all or self._blocked_hosts.get(host):
            result = yield from self.transport.fetch(world, ctx, url)
            return result

        direct = yield from fetch_pipeline(
            world, ctx, url, transport_name="lantern-direct"
        )
        blocked = direct.failed or (
            direct.response is not None and _looks_blocked(direct.response)
        )
        if not blocked:
            return direct
        self._blocked_hosts[host] = True
        result = yield from self.transport.fetch(world, ctx, url)
        return result
