"""Shared machinery for relay-based circumvention (proxies, Lantern, uProxy).

A relay fetch has two legs: the client's (censored) leg to the relay, and
the relay's (clean) leg to the origin.  The censor only sees the first leg
— the relay's IP and the TLS SNI the tunnel announces — which is exactly
why relays circumvent blocking and also why censors respond by
blacklisting relay IPs.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..simnet.flow import FlowContext
from ..simnet.latency import transfer_time
from ..simnet.tcp import TcpError, tcp_connect
from ..simnet.tls import TlsError, tls_handshake
from ..simnet.topology import Host
from ..simnet.world import World
from .base import FetchResult, classify_failure, fetch_pipeline

__all__ = ["relay_fetch"]


def relay_fetch(
    world: World,
    ctx: FlowContext,
    url: str,
    relay_host: Host,
    *,
    transport_name: str,
    bandwidth_cap_bps: Optional[float] = None,
) -> Generator:
    """Process: fetch ``url`` through a single relay; returns FetchResult.

    The censor sees the relay's own hostname in the ClientHello on the
    client→relay leg.  ``bandwidth_cap_bps`` models a loaded relay
    throttling the tunnel.
    """
    env = world.env
    started = env.now

    def failed(error: Exception) -> FetchResult:
        return FetchResult(
            url=url,
            transport=transport_name,
            started=started,
            finished=env.now,
            error=error,
            failure_stage=classify_failure(error),
        )

    # --- leg 1: client -> relay (censored) --------------------------------
    try:
        conn = yield from tcp_connect(env, world.network, ctx, relay_host.ip, 443)
    except TcpError as error:
        return failed(error)
    try:
        yield from tls_handshake(env, ctx, conn, relay_host.name)
    except TlsError as error:
        return failed(error)

    # Tunnel establishment chatter (CONNECT round trip and the like).
    yield env.timeout(0.5 * conn.rtt)

    # --- leg 2: relay -> origin (clean) ------------------------------------
    relay_ctx = world.relay_ctx(relay_host)
    inner = yield from fetch_pipeline(
        world, relay_ctx, url, transport_name=f"{transport_name}/origin"
    )
    if inner.failed and inner.response is None:
        # Origin unreachable even from the relay; surface the relay's error.
        return FetchResult(
            url=url,
            transport=transport_name,
            started=started,
            finished=env.now,
            error=inner.error,
            failure_stage=inner.failure_stage,
        )

    # --- return leg: stream the response back through the tunnel ----------
    response = inner.response
    tunnel_bw = world.network.path_bandwidth(ctx.client, relay_host)
    if bandwidth_cap_bps is not None:
        tunnel_bw = min(tunnel_bw, bandwidth_cap_bps)
    return_rtt = conn.sample_rtt(ctx.rng)
    duration = transfer_time(
        response.size_bytes, return_rtt, tunnel_bw
    ) * ctx.load.factor()
    yield env.timeout(duration)

    return FetchResult(
        url=url,
        transport=transport_name,
        started=started,
        finished=env.now,
        response=response,
        redirects=inner.redirects,
    )
