"""Simulated Internet topology: locations, ASes, hosts, access networks.

The topology is deliberately geographic rather than packet-level: a path's
latency is the geodesic RTT between the endpoints' locations plus per-host
processing delay, which is the granularity the paper's PLT arguments operate
at (local-fix < single relay < Tor's three relays).

Censorship attaches to :class:`AutonomousSystem` objects — a flow is subject
to the policy of the AS it exits through (the client's ISP), matching the
paper's distributed-censorship model where individual ISPs deploy filtering
independently (§2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .ipaddr import IpAllocator
from .latency import LatencyModel
from .rng import RngRegistry

__all__ = [
    "AutonomousSystem",
    "Host",
    "AccessNetwork",
    "Network",
    "DEFAULT_GEO_RTT_MS",
]

# Median RTTs (ms) between locations, calibrated so that the measurement
# vantage of the paper's case study (Pakistan) sees Table 2's ping latencies
# to the static-proxy fleet and ~186 ms to YouTube's front-end.
DEFAULT_GEO_RTT_MS: Dict[Tuple[str, str], float] = {
    ("pakistan", "pakistan"): 15.0,
    ("pakistan", "uk"): 228.0,
    ("pakistan", "netherlands"): 172.0,
    ("pakistan", "japan"): 387.0,
    ("pakistan", "us-east"): 329.0,
    ("pakistan", "us-west"): 429.0,
    ("pakistan", "us-central"): 160.0,
    ("pakistan", "germany"): 309.0,
    ("pakistan", "germany-south"): 174.0,
    ("pakistan", "france"): 290.0,
    ("pakistan", "switzerland"): 260.0,
    ("pakistan", "czech"): 240.0,
    ("pakistan", "canada"): 350.0,
    ("pakistan", "singapore"): 120.0,
    ("pakistan", "global-anycast"): 186.0,
    ("uk", "netherlands"): 15.0,
    ("uk", "us-east"): 80.0,
    ("uk", "germany"): 20.0,
    ("netherlands", "germany"): 12.0,
    ("netherlands", "us-east"): 85.0,
    ("germany", "germany-south"): 8.0,
    ("us-east", "us-west"): 70.0,
    ("us-east", "us-central"): 40.0,
    ("us-west", "us-central"): 40.0,
    ("us-east", "canada"): 25.0,
    ("japan", "singapore"): 75.0,
    ("japan", "us-west"): 110.0,
    ("france", "germany"): 15.0,
    ("france", "uk"): 12.0,
    ("switzerland", "germany"): 10.0,
    ("czech", "germany"): 12.0,
}
# Fallbacks when a pair is not listed explicitly.
_SAME_LOCATION_RTT_MS = 12.0
_DEFAULT_INTER_RTT_MS = 250.0


@dataclass
class AutonomousSystem:
    """An ISP/AS.  ``censor`` (if set) filters flows exiting through it."""

    asn: int
    name: str
    country: str
    censor: Any = None  # censor.policy.CensorPolicy; Any avoids a cycle.

    def __hash__(self) -> int:
        return hash(self.asn)

    def __repr__(self) -> str:
        return f"AS{self.asn}({self.name})"


@dataclass
class Host:
    """A named endpoint: origin server, proxy, relay, resolver, or client."""

    name: str
    ip: str
    location: str
    asn: Optional[int] = None
    extra_rtt: float = 0.0  # processing / load delay added per round trip
    jitter_sigma: float = 0.08
    bandwidth_bps: float = 50e6
    tags: Dict[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.ip)

    def __repr__(self) -> str:
        return f"Host({self.name}@{self.ip}, {self.location})"


@dataclass
class AccessNetwork:
    """A client's attachment point: one or more upstream ISPs.

    Multihomed networks map each new flow to a random provider, which is
    exactly the behaviour that confuses a naive blocking cache (§4.4).
    """

    isps: List[AutonomousSystem]
    access_rtt: float = 0.004  # last-mile RTT in seconds
    _counter: itertools.count = field(default_factory=itertools.count, repr=False)

    def __post_init__(self) -> None:
        if not self.isps:
            raise ValueError("access network needs at least one ISP")

    @property
    def multihomed(self) -> bool:
        return len(self.isps) > 1

    def pick_isp(self, rng) -> AutonomousSystem:
        """ISP used for a fresh flow (uniform among providers)."""
        if len(self.isps) == 1:
            return self.isps[0]
        return rng.choice(self.isps)


class Network:
    """Registry of ASes and hosts plus the latency oracle between them."""

    def __init__(self, rngs: Optional[RngRegistry] = None):
        # Bare Network() is an ad-hoc/test convenience; every worker
        # path threads a spec-derived registry in (world.py passes the
        # World's own, seeded from the scenario seed).
        self.rngs = rngs or RngRegistry(0)  # csaw-analyze: disable=CSA102
        self._geo: Dict[Tuple[str, str], float] = dict(DEFAULT_GEO_RTT_MS)
        self.ases: Dict[int, AutonomousSystem] = {}
        self.hosts_by_ip: Dict[str, Host] = {}
        self.hosts_by_name: Dict[str, Host] = {}
        self.dns_records: Dict[str, List[str]] = {}
        self._ips = IpAllocator()

    # -- construction -----------------------------------------------------

    def add_as(
        self, asn: int, name: str, country: str, censor: Any = None
    ) -> AutonomousSystem:
        if asn in self.ases:
            raise ValueError(f"AS{asn} already registered")
        system = AutonomousSystem(asn=asn, name=name, country=country, censor=censor)
        self.ases[asn] = system
        return system

    def add_host(
        self,
        name: str,
        location: str,
        asn: Optional[int] = None,
        ip: Optional[str] = None,
        extra_rtt: float = 0.0,
        jitter_sigma: float = 0.08,
        bandwidth_bps: float = 50e6,
        register_dns: bool = False,
        tags: Optional[Dict[str, Any]] = None,
    ) -> Host:
        """Create and register a host; optionally publish an A record."""
        if name in self.hosts_by_name:
            raise ValueError(f"host name already registered: {name!r}")
        if asn is not None and asn not in self.ases:
            raise ValueError(f"unknown AS{asn} for host {name!r}")
        host = Host(
            name=name,
            ip=ip or self._ips.allocate(),
            location=location,
            asn=asn,
            extra_rtt=extra_rtt,
            jitter_sigma=jitter_sigma,
            bandwidth_bps=bandwidth_bps,
            tags=dict(tags or {}),
        )
        if host.ip in self.hosts_by_ip:
            raise ValueError(f"IP already registered: {host.ip!r}")
        self.hosts_by_ip[host.ip] = host
        self.hosts_by_name[name] = host
        if register_dns:
            self.register_domain(name, host.ip)
        return host

    def register_domain(self, hostname: str, ip: str) -> None:
        """Publish an authoritative A record (appends for multi-A records)."""
        self.dns_records.setdefault(hostname.lower(), []).append(ip)

    def authoritative_ips(self, hostname: str) -> List[str]:
        """Authoritative answer for a hostname ([] when non-existent)."""
        return list(self.dns_records.get(hostname.lower(), []))

    # -- lookup -----------------------------------------------------------

    def host_for_ip(self, ip: str) -> Optional[Host]:
        return self.hosts_by_ip.get(ip)

    # -- latency oracle -----------------------------------------------------

    def geo_rtt(self, loc_a: str, loc_b: str) -> float:
        """Median RTT in *seconds* between two locations."""
        if loc_a == loc_b:
            ms = self._geo.get((loc_a, loc_b), _SAME_LOCATION_RTT_MS)
        else:
            ms = self._geo.get(
                (loc_a, loc_b), self._geo.get((loc_b, loc_a), _DEFAULT_INTER_RTT_MS)
            )
        return ms / 1000.0

    def latency_between(self, a: Host, b: Host) -> LatencyModel:
        """Latency model for the path between two hosts."""
        base = self.geo_rtt(a.location, b.location) + a.extra_rtt + b.extra_rtt
        sigma = max(a.jitter_sigma, b.jitter_sigma)
        return LatencyModel(base_rtt=base, jitter_sigma=sigma)

    def path_bandwidth(self, a: Host, b: Host) -> float:
        """Bottleneck bandwidth between two hosts (bits per second)."""
        return min(a.bandwidth_bps, b.bandwidth_bps)
