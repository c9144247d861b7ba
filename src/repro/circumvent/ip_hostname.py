"""“IP as hostname” local-fix (§2.3, Figure 1c).

Typing the server's IP address instead of its hostname into the URL defeats
keyword/hostname filters: the cleartext GET then carries no blocked name.
The client must already know the IP (here: learned out of band, from the
authoritative record), and the trick fails against IP blacklists — both
captured below.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..simnet.flow import FlowContext
from ..simnet.world import World
from ..urlkit import parse_url
from .base import Transport, fetch_pipeline

__all__ = ["IpAsHostnameTransport"]


class IpAsHostnameTransport(Transport):
    name = "ip-as-hostname"
    is_local_fix = True

    def _ip_for(self, world: World, hostname: str) -> Optional[str]:
        # Out-of-band knowledge (a friend abroad, a DNS cache, etc.): the
        # authoritative record, *not* a resolution through the censor.
        ips = world.network.authoritative_ips(hostname)
        return ips[0] if ips else None

    def available_for(self, world: World, url: str) -> bool:
        return self._ip_for(world, parse_url(url).host) is not None

    def fetch(self, world: World, ctx: FlowContext, url: str) -> Generator:
        parsed = parse_url(url)
        ip = self._ip_for(world, parsed.host)
        if ip is None:
            raise RuntimeError(f"no known IP for {parsed.host!r}")
        # The URL the wire sees is http://<ip>/<path>: no DNS query at all,
        # Host header carries the bare IP.
        result = yield from fetch_pipeline(
            world,
            ctx,
            url,
            transport_name=self.name,
            dst_ip=ip,
            host_header=ip,
            sni=ip if parsed.scheme == "https" else None,
        )
        return result
