"""The ``World`` facade: one object bundling the whole simulated Internet.

Everything an experiment needs — the event loop, topology, web content,
resolvers, RNG streams — hangs off a single
:class:`World`, so scenario builders and benchmarks read naturally:

    world = World(seed=1)
    isp = world.add_isp(17557, "ISP-A", policy=policy)
    client, access = world.add_client("user-1", [isp])
    ...
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..censor.middlebox import Middlebox
from ..censor.policy import CensorPolicy
from .dns import Resolver
from .engine import Environment
from .flow import ClientLoadTracker, FlowContext
from .rng import RngRegistry
from .topology import AccessNetwork, AutonomousSystem, Host, Network
from .web import Web

__all__ = ["World"]


class World:
    """A complete simulated Internet for one experiment."""

    def __init__(self, seed: int = 0):
        self.rngs = RngRegistry(seed)
        self.env = Environment()
        self.network = Network(self.rngs)
        self.web = Web(self.network)
        self.resolvers: Dict[int, Resolver] = {}
        self.public_resolver: Optional[Resolver] = None
        self._transit_as: Optional[AutonomousSystem] = None

    # -- topology construction -------------------------------------------

    def add_isp(
        self,
        asn: int,
        name: str,
        country: str = "pakistan",
        policy: Optional[CensorPolicy] = None,
    ) -> AutonomousSystem:
        """Register an ISP with its recursive resolver and censor box."""
        censor = Middlebox(policy=policy, asn=asn) if policy is not None else None
        system = self.network.add_as(asn, name, country, censor=censor)
        resolver_host = self.network.add_host(
            name=f"resolver.as{asn}",
            location=country,
            asn=asn,
            extra_rtt=0.002,
        )
        self.resolvers[asn] = Resolver(host=resolver_host, kind="isp", asn=asn)
        return system

    def add_public_resolver(
        self, name: str = "dns.google", location: str = "global-anycast"
    ) -> Resolver:
        host = self.network.add_host(name=name, location=location, extra_rtt=0.001)
        self.public_resolver = Resolver(host=host, kind="public")
        return self.public_resolver

    def add_client(
        self,
        name: str,
        isps: List[AutonomousSystem],
        location: str = "pakistan",
        bandwidth_bps: float = 20e6,
        access_rtt: float = 0.004,
    ) -> Tuple[Host, AccessNetwork]:
        """A client machine attached to one or more providers."""
        client = self.network.add_host(
            name=name,
            location=location,
            asn=isps[0].asn if isps else None,
            bandwidth_bps=bandwidth_bps,
        )
        access = AccessNetwork(isps=list(isps), access_rtt=access_rtt)
        return client, access

    # -- flow helpers -------------------------------------------------------

    def new_ctx(
        self,
        client: Host,
        access: AccessNetwork,
        stream: str = "flows",
        load: Optional[ClientLoadTracker] = None,
    ) -> FlowContext:
        """Fresh flow context (picks a provider for multihomed access)."""
        return FlowContext.for_new_flow(
            client, access, self.rngs.stream(stream), load=load
        )

    def isp_resolver(self, ctx: FlowContext) -> Resolver:
        resolver = self.resolvers.get(ctx.isp.asn)
        if resolver is None:
            raise KeyError(f"no resolver registered for AS{ctx.isp.asn}")
        return resolver

    def transit_as(self) -> AutonomousSystem:
        """An uncensored AS used as the vantage of relays/proxies."""
        if self._transit_as is None:
            self._transit_as = self.network.add_as(64512, "transit", "uncensored")
            resolver_host = self.network.add_host(
                name="resolver.transit",
                location="global-anycast",
                asn=64512,
                extra_rtt=0.001,
            )
            self.resolvers[64512] = Resolver(
                host=resolver_host, kind="isp", asn=64512
            )
        return self._transit_as

    def relay_ctx(self, relay_host: Host, stream: str = "relay") -> FlowContext:
        """Flow context for a relay fetching on a client's behalf.

        Relays sit outside the censored region: their flows traverse the
        uncensored transit AS, so nothing is filtered on the second leg.
        """
        transit = self.transit_as()
        access = AccessNetwork(isps=[transit], access_rtt=0.0005)
        return FlowContext(
            client=relay_host,
            access=access,
            isp=transit,
            rng=self.rngs.stream(stream),
            load=ClientLoadTracker(),
        )

    # -- running -------------------------------------------------------------

    def run_process(self, generator: Generator):
        """Launch a process and run the loop until it finishes."""
        process = self.env.process(generator)
        return self.env.run(until=process)
