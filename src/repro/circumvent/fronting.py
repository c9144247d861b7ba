"""Domain fronting local-fix (§2.2, Fifield et al.).

The DNS query and the TLS SNI carry the *front* name (unblocked, high
collateral damage); the encrypted Host header carries the real, blocked
destination.  We model the front-end as a relay with a fast CDN-internal
leg to the backend, which is how real fronting infrastructure behaves.
"""

from __future__ import annotations

from typing import Generator

from ..simnet.flow import FlowContext
from ..simnet.http import HttpResponse
from ..simnet.latency import transfer_time
from ..simnet.world import World
from ..urlkit import parse_url
from .base import FetchResult, Transport, classify_failure, fetch_pipeline

__all__ = ["DomainFrontingTransport"]

_CDN_INTERNAL_RTT = 0.03  # front → backend, over the CDN's own links


class DomainFrontingTransport(Transport):
    """Front requests for blocked sites through ``front_hostname``."""

    name = "domain-fronting"
    is_local_fix = True

    def __init__(self, front_hostname: str):
        self.front_hostname = front_hostname.lower()

    def available_for(self, world: World, url: str) -> bool:
        target = world.web.site_for(parse_url(url).host)
        front = world.web.site_for(self.front_hostname)
        return (
            target is not None
            and target.supports_fronting
            and front is not None
            and front.supports_https
        )

    def fetch(self, world: World, ctx: FlowContext, url: str) -> Generator:
        env = world.env
        started = env.now
        parsed = parse_url(url)

        def failed(error: Exception) -> FetchResult:
            return FetchResult(
                url=url,
                transport=self.name,
                started=started,
                finished=env.now,
                error=error,
                failure_stage=classify_failure(error),
            )

        front_site = world.web.site_for(self.front_hostname)
        if front_site is None:
            raise RuntimeError(f"front {self.front_hostname!r} not in this world")

        # DNS + TCP + TLS all speak the *front* name; only the front's IP
        # and SNI are visible to the censor.
        front_url = f"https://{self.front_hostname}/"
        pipeline = yield from fetch_pipeline(
            world,
            ctx,
            front_url,
            transport_name=f"{self.name}/front",
            sni=self.front_hostname,
        )
        if pipeline.failed:
            return failed(pipeline.error or RuntimeError("front unreachable"))

        # The front relays to the backend over CDN-internal links.
        backend = world.web.site_for(parsed.host)
        page = backend.page(parsed.path) if backend is not None else None
        if page is None:
            # Front answers, backend has no such resource.
            yield env.timeout(_CDN_INTERNAL_RTT)
            return failed(RuntimeError(f"fronted resource missing: {url}"))
        internal = _CDN_INTERNAL_RTT + transfer_time(
            page.size_bytes, _CDN_INTERNAL_RTT, front_site.host.bandwidth_bps
        )
        yield env.timeout(internal)

        # Stream the body back to the client over the fronted connection.
        front_latency = world.network.latency_between(ctx.client, front_site.host)
        rtt = front_latency.sample_rtt(ctx.rng) + ctx.access.access_rtt
        tunnel_bw = world.network.path_bandwidth(ctx.client, front_site.host)
        yield env.timeout(
            transfer_time(page.size_bytes, rtt, tunnel_bw) * ctx.load.factor()
        )

        response = HttpResponse(
            status=200,
            url=url,
            size_bytes=page.size_bytes,
            server_ip=front_site.host.ip,
            page=page,
        )
        return FetchResult(
            url=url,
            transport=self.name,
            started=started,
            finished=env.now,
            response=response,
        )
