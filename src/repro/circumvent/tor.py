"""Tor simulator: relays, bandwidth-weighted 3-hop circuits, rotation.

Captures the properties the paper's evaluation leans on:

- circuits traverse entry → middle → exit relays, so path latency is the
  *sum* of hop RTTs — typically several times the direct RTT (§2.3,
  Figure 1b);
- relay selection is weighted by perceived bandwidth (Wacek et al. [56]),
  so fat relays attract circuits;
- circuits rotate roughly every 10 minutes, re-rolling the latency dice;
- effective throughput is bounded by the slowest relay and its load;
- censors block Tor by blacklisting entry/bridge IPs (§8) — the entry
  connection goes through the censor middlebox like any other flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from ..simnet.flow import FlowContext
from ..simnet.latency import transfer_time
from ..simnet.tcp import TcpError, tcp_connect
from ..simnet.topology import Host
from ..simnet.world import World
from .base import FetchResult, Transport, classify_failure, fetch_pipeline

__all__ = ["TorRelay", "TorCircuit", "TorNetwork", "TorClient", "TorTransport"]

# Default relay geography, loosely following the public consensus: heavy in
# Europe/US, thinner elsewhere.
_DEFAULT_RELAY_LOCATIONS: List[Tuple[str, float]] = [
    ("germany", 0.22),
    ("netherlands", 0.14),
    ("france", 0.12),
    ("us-east", 0.14),
    ("us-west", 0.08),
    ("us-central", 0.06),
    ("uk", 0.08),
    ("switzerland", 0.06),
    ("czech", 0.04),
    ("canada", 0.04),
    ("japan", 0.02),
]
_EXIT_FRACTION = 0.35


@dataclass
class TorRelay:
    host: Host
    bandwidth_bps: float
    is_exit: bool

    @property
    def location(self) -> str:
        return self.host.location


@dataclass
class TorCircuit:
    entry: TorRelay
    middle: TorRelay
    exit: TorRelay
    built_at: float

    @property
    def relays(self) -> List[TorRelay]:
        return [self.entry, self.middle, self.exit]

    @property
    def min_bandwidth_bps(self) -> float:
        return min(r.bandwidth_bps for r in self.relays)

    def __repr__(self) -> str:
        path = "→".join(r.host.name for r in self.relays)
        return f"TorCircuit({path}, exit@{self.exit.location})"


class TorNetwork:
    """A synthetic relay population inside one world.

    ``bridges`` are unlisted entry relays: they do not appear in the
    public consensus (:meth:`public_relay_ips`), so a censor blacklisting
    every known relay still misses them — the paper's §8 hope that C-Saw
    "rides on Tor's successes in achieving blocking resistance".
    """

    def __init__(
        self,
        world: World,
        relays: List[TorRelay],
        bridges: Optional[List[TorRelay]] = None,
    ):
        if len(relays) < 3:
            raise ValueError("a Tor network needs at least 3 relays")
        self.world = world
        self.relays = relays
        self.bridges = list(bridges or [])
        self.exits = [r for r in relays if r.is_exit]
        if not self.exits:
            raise ValueError("a Tor network needs at least one exit relay")

    def public_relay_ips(self) -> List[str]:
        """Every consensus-listed relay address (what a censor can scrape)."""
        return [r.host.ip for r in self.relays]

    def add_bridges(self, count: int, stream: str = "tor-bridges") -> List[TorRelay]:
        """Provision unlisted bridge relays."""
        rng = self.world.rngs.stream(stream)
        created = []
        for index in range(count):
            location = rng.choices(
                [l for l, _w in _DEFAULT_RELAY_LOCATIONS],
                weights=[w for _l, w in _DEFAULT_RELAY_LOCATIONS],
            )[0]
            bandwidth = min(30e6, 2e6 * rng.lognormvariate(0.0, 0.9))
            host = self.world.network.add_host(
                name=f"tor-bridge-{len(self.bridges) + index}",
                location=location,
                extra_rtt=0.004,
                jitter_sigma=0.45,
                bandwidth_bps=bandwidth,
                tags={"role": "tor-bridge"},
            )
            created.append(
                TorRelay(host=host, bandwidth_bps=bandwidth, is_exit=False)
            )
        self.bridges.extend(created)
        return created

    @classmethod
    def build(
        cls,
        world: World,
        n_relays: int = 60,
    ) -> "TorNetwork":
        """Generate a relay population with lognormal bandwidths; about
        ``_EXIT_FRACTION`` of the relays are exits."""
        rng = world.rngs.stream("tor-network")
        names = [loc for loc, _w in _DEFAULT_RELAY_LOCATIONS]
        weights = [w for _loc, w in _DEFAULT_RELAY_LOCATIONS]
        relays = []
        for index in range(n_relays):
            location = rng.choices(names, weights=weights)[0]
            # Effective per-circuit bandwidth: median ~3 Mbps, long tail in
            # both directions (Tor throughput is notoriously variable).
            bandwidth = min(60e6, 3e6 * rng.lognormvariate(0.0, 1.2))
            host = world.network.add_host(
                name=f"tor-relay-{index}",
                location=location,
                extra_rtt=0.004,
                # Queueing at relays makes per-hop RTTs highly variable;
                # summed over three hops this is the dominant source of
                # Tor's PLT spread (Figures 1b and 6a).
                jitter_sigma=0.45,
                bandwidth_bps=bandwidth,
                tags={"role": "tor-relay"},
            )
            relays.append(
                TorRelay(
                    host=host,
                    bandwidth_bps=bandwidth,
                    is_exit=rng.random() < _EXIT_FRACTION,
                )
            )
        return cls(world, relays)

    def sample_circuit(
        self,
        rng,
        now: float,
        exit_location: Optional[str] = None,
        use_bridges: bool = False,
    ) -> TorCircuit:
        """Bandwidth-weighted selection of three distinct relays.

        With ``use_bridges`` the entry hop comes from the unlisted bridge
        pool instead of the public consensus.
        """
        exits = self.exits
        if exit_location is not None:
            pinned = [r for r in exits if r.location == exit_location]
            if pinned:
                exits = pinned
        exit_relay = _weighted_choice(rng, exits)
        middle_pool = [r for r in self.relays if r is not exit_relay]
        middle = _weighted_choice(rng, middle_pool)
        if use_bridges:
            if not self.bridges:
                raise ValueError("no bridges provisioned; call add_bridges()")
            entry = _weighted_choice(rng, self.bridges)
        else:
            entry_pool = [r for r in middle_pool if r is not middle]
            entry = _weighted_choice(rng, entry_pool)
        return TorCircuit(entry=entry, middle=middle, exit=exit_relay, built_at=now)

    def client(
        self,
        stream: str,
        rotation_period: float = 600.0,
        exit_location: Optional[str] = None,
        use_bridges: bool = False,
    ) -> "TorClient":
        return TorClient(
            self,
            stream=stream,
            rotation_period=rotation_period,
            exit_location=exit_location,
            use_bridges=use_bridges,
        )


def _weighted_choice(rng, relays: List[TorRelay]) -> TorRelay:
    if not relays:
        raise ValueError("empty relay pool")
    total = sum(r.bandwidth_bps for r in relays)
    pick = rng.random() * total
    acc = 0.0
    for relay in relays:
        acc += relay.bandwidth_bps
        if pick <= acc:
            return relay
    return relays[-1]


class TorClient:
    """Per-user circuit state: current circuit plus rotation policy."""

    def __init__(
        self,
        network: TorNetwork,
        stream: str = "tor-client",
        rotation_period: float = 600.0,
        exit_location: Optional[str] = None,
        use_bridges: bool = False,
    ):
        self.network = network
        self.rng = network.world.rngs.stream(stream)
        self.rotation_period = rotation_period
        self.exit_location = exit_location
        self.use_bridges = use_bridges
        self._circuit: Optional[TorCircuit] = None

    def circuit(self, now: float) -> TorCircuit:
        """The current circuit, rebuilt once it is ``rotation_period`` old."""
        current = self._circuit
        if current is None or now - current.built_at >= self.rotation_period:
            current = self._circuit = self.network.sample_circuit(
                self.rng, now, self.exit_location, use_bridges=self.use_bridges
            )
        return current

    def new_circuit(self, now: float) -> TorCircuit:
        """Force an independent fresh circuit (redundant-request use)."""
        self._circuit = self.network.sample_circuit(
            self.rng, now, self.exit_location, use_bridges=self.use_bridges
        )
        return self._circuit


class TorTransport(Transport):
    """Fetch URLs through a TorClient's circuits."""

    name = "tor"
    provides_anonymity = True
    uses_relay = True

    def __init__(self, client: TorClient, fresh_circuit_per_fetch: bool = False):
        self.client = client
        self.fresh_circuit_per_fetch = fresh_circuit_per_fetch

    def fetch(self, world: World, ctx: FlowContext, url: str) -> Generator:
        env = world.env
        started = env.now

        def failed(error: Exception) -> FetchResult:
            return FetchResult(
                url=url,
                transport=self.name,
                started=started,
                finished=env.now,
                error=error,
                failure_stage=classify_failure(error),
            )

        # Tor pre-builds circuits in the background, so construction is
        # not user-visible.
        if self.fresh_circuit_per_fetch:
            circuit = self.client.new_circuit(env.now)
        else:
            circuit = self.client.circuit(env.now)

        # --- censored leg: client -> entry relay ---------------------------
        try:
            conn = yield from tcp_connect(
                env, world.network, ctx, circuit.entry.host.ip, 443
            )
        except TcpError as error:
            return failed(error)

        net = world.network
        rng = ctx.rng
        hop_em = net.latency_between(circuit.entry.host, circuit.middle.host)
        hop_mx = net.latency_between(circuit.middle.host, circuit.exit.host)
        rtt_em = hop_em.sample_rtt(rng)
        rtt_mx = hop_mx.sample_rtt(rng)

        # Request travels the three hops to the exit.
        yield env.timeout((conn.rtt + rtt_em + rtt_mx) / 2.0)

        # --- exit relay fetches the origin ---------------------------------
        exit_ctx = world.relay_ctx(circuit.exit.host, stream="tor-exit")
        inner = yield from fetch_pipeline(
            world, exit_ctx, url, transport_name="tor/exit"
        )
        if inner.failed and inner.response is None:
            return FetchResult(
                url=url,
                transport=self.name,
                started=started,
                finished=env.now,
                error=inner.error,
                failure_stage=inner.failure_stage,
            )

        # --- response streams back through the circuit ---------------------
        response = inner.response
        circuit_rtt = conn.rtt + rtt_em + rtt_mx
        # Relay load: each relay serves many circuits; this one gets a
        # slice.  The wide range reflects Tor's notoriously variable
        # throughput — the spread that makes redundant copies over
        # separate circuits worthwhile (Figure 6a).
        load_share = rng.uniform(0.15, 1.0)
        bandwidth = min(
            circuit.min_bandwidth_bps * load_share,
            world.network.path_bandwidth(ctx.client, circuit.entry.host),
        )
        yield env.timeout(
            transfer_time(response.size_bytes, circuit_rtt, bandwidth)
            * ctx.load.factor()
        )

        return FetchResult(
            url=url,
            transport=self.name,
            started=started,
            finished=env.now,
            response=response,
            redirects=inner.redirects,
        )
