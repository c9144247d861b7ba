"""Static HTTPS proxies spread around the world (§2.3, Figure 1a, Table 2).

Each proxy is a single relay at a fixed location.  Proxies differ in path
latency and load: the paper observed that some (Germany-1, UK, Japan)
showed widely varying PLTs, suggesting on-path congestion or server load —
modeled as per-host jitter and extra processing delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..simnet.flow import FlowContext
from ..simnet.topology import Host
from ..simnet.world import World
from .base import Transport
from .relay import relay_fetch

__all__ = ["StaticProxyTransport", "build_proxy_fleet", "PROXY_FLEET_SPEC"]


class StaticProxyTransport(Transport):
    """Tunnel all requests through one fixed proxy host."""

    is_local_fix = False
    uses_relay = True

    def __init__(self, proxy_host: Host):
        self.proxy_host = proxy_host
        self.name = f"proxy:{proxy_host.name}"

    def fetch(self, world: World, ctx: FlowContext, url: str) -> Generator:
        result = yield from relay_fetch(
            world, ctx, url, self.proxy_host, transport_name=self.name
        )
        return result


@dataclass(frozen=True)
class ProxySpec:
    """Where a fleet proxy lives and how loaded it is."""

    label: str
    location: str
    extra_rtt: float = 0.005
    jitter_sigma: float = 0.10
    bandwidth_bps: float = 30e6


# The ten proxies of Figure 1a / Table 2.  The high-variance ones the paper
# calls out (Germany-1, UK, Japan) carry heavy jitter and load.
PROXY_FLEET_SPEC: List[ProxySpec] = [
    ProxySpec("UK", "uk", extra_rtt=0.030, jitter_sigma=0.55, bandwidth_bps=12e6),
    ProxySpec("Netherlands", "netherlands", jitter_sigma=0.12),
    ProxySpec("Japan", "japan", extra_rtt=0.025, jitter_sigma=0.50, bandwidth_bps=15e6),
    ProxySpec("US-1", "us-east", jitter_sigma=0.15),
    ProxySpec("US-2", "us-west", jitter_sigma=0.18),
    ProxySpec("US-3", "us-central", jitter_sigma=0.12),
    ProxySpec("Germany-1", "germany", extra_rtt=0.035, jitter_sigma=0.60, bandwidth_bps=10e6),
    ProxySpec("Germany-2", "germany-south", jitter_sigma=0.12),
    ProxySpec("France-1", "france", jitter_sigma=0.14),
    ProxySpec("France-2", "france", extra_rtt=0.010, jitter_sigma=0.20),
]


def build_proxy_fleet(world: World) -> List[StaticProxyTransport]:
    """Instantiate the proxy fleet as hosts + transports in ``world``."""
    transports = []
    for spec in PROXY_FLEET_SPEC:
        host = world.network.add_host(
            name=f"proxy-{spec.label.lower()}",
            location=spec.location,
            extra_rtt=spec.extra_rtt,
            jitter_sigma=spec.jitter_sigma,
            bandwidth_bps=spec.bandwidth_bps,
            tags={"role": "static-proxy", "label": spec.label},
        )
        transports.append(StaticProxyTransport(host))
    return transports
