"""Simulated TCP connection establishment.

Captures the two failure symptoms censors produce at the IP layer:

- blackholed packets → the client burns its full SYN retry schedule
  (``SYN_RETRIES``) and raises :class:`ConnectTimeout` after
  ``CONNECT_TIMEOUT`` = 21 s, the TCP/IP row of Table 5;
- injected resets → :class:`ConnectionReset` after roughly half an RTT.

A successful handshake yields a :class:`TcpConnection` carrying the sampled
path RTT and bottleneck bandwidth for subsequent request/transfer timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..censor.actions import IpAction
from .engine import Environment
from .flow import FlowContext
from .latency import LatencyModel
from .topology import Host, Network

__all__ = [
    "TcpError",
    "ConnectTimeout",
    "ConnectionReset",
    "TcpConnection",
    "tcp_connect",
]


class TcpError(Exception):
    """Base class for TCP-level failures."""

    kind = "tcp-error"

    def __init__(self, dst_ip: str, detail: str = ""):
        super().__init__(f"{self.kind}: {dst_ip} {detail}".rstrip())
        self.dst_ip = dst_ip
        self.detail = detail


class ConnectTimeout(TcpError):
    kind = "connect-timeout"


class ConnectionReset(TcpError):
    kind = "connection-reset"


# The SYN schedule (3 + 6 + 12 s) totals the 21 s the paper measured for
# TCP/IP blocking detection (Table 5).
SYN_RETRIES = (3.0, 6.0, 12.0)
CONNECT_TIMEOUT = sum(SYN_RETRIES)


@dataclass
class TcpConnection:
    """An established connection: latency/bandwidth context for requests."""

    src: Host
    dst: Host
    dst_ip: str
    rtt: float
    bandwidth_bps: float
    latency: LatencyModel
    established_at: float = 0.0

    def sample_rtt(self, rng) -> float:
        return self.latency.sample_rtt(rng)


def tcp_connect(
    env: Environment,
    network: Network,
    ctx: FlowContext,
    dst_ip: str,
    port: int = 80,
) -> Generator:
    """Process: three-way handshake to ``dst_ip``; returns TcpConnection.

    Raises :class:`ConnectTimeout` (blackholed / nonexistent destination)
    or :class:`ConnectionReset` (censor-injected RST).
    """
    middlebox = ctx.middlebox
    if middlebox is not None:
        middlebox.observe_flow(env.now, ctx.client.ip, dst_ip)
        verdict = middlebox.packet(env.now, dst_ip, src_ip=ctx.client.ip)
        if verdict.action is IpAction.DROP:
            for delay in SYN_RETRIES:
                yield env.timeout(delay)
            raise ConnectTimeout(dst_ip, "(censor blackhole)")
        if verdict.action is IpAction.RST:
            # The RST arrives roughly half a round trip after the SYN.
            dst_guess = network.host_for_ip(dst_ip)
            base = (
                network.latency_between(ctx.client, dst_guess).base_rtt
                if dst_guess is not None
                else 0.05
            )
            yield env.timeout(base / 2.0)
            raise ConnectionReset(dst_ip, "(censor RST)")

    dst = network.host_for_ip(dst_ip)
    if dst is None:
        # Route to nowhere (e.g. DNS redirect into private space with no
        # listener): indistinguishable from a blackhole.
        for delay in SYN_RETRIES:
            yield env.timeout(delay)
        raise ConnectTimeout(dst_ip, "(no such host)")

    latency = network.latency_between(ctx.client, dst)
    rtt = latency.sample_rtt(ctx.rng) + ctx.access.access_rtt
    yield env.timeout(rtt)
    return TcpConnection(
        src=ctx.client,
        dst=dst,
        dst_ip=dst_ip,
        rtt=rtt,
        bandwidth_bps=network.path_bandwidth(ctx.client, dst),
        latency=latency,
        established_at=env.now,
    )
