"""uProxy-style friend relay (§2.2).

uProxy "leverages trust relationships but runs as a browser extension":
the user relays through exactly one trusted friend outside the censored
region.  Unlike Lantern's pooled volunteers, a single friend's machine
is only *sometimes* on — availability flaps, which is the interesting
failure mode this transport contributes to the circumvention mix.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..simnet.flow import FlowContext
from ..simnet.tcp import CONNECT_TIMEOUT, ConnectTimeout
from ..simnet.topology import Host
from ..simnet.world import World
from .base import FetchResult, Transport
from .relay import relay_fetch

__all__ = ["FriendProxyTransport"]


class FriendProxyTransport(Transport):
    """Relay through one trusted friend's machine."""

    name = "uproxy"
    provides_anonymity = False  # the friend knows exactly who you are
    uses_relay = True

    def __init__(
        self,
        friend_host: Host,
        online_probability: float = 0.8,
        rng=None,
        session_length: float = 1800.0,
    ):
        if not 0.0 <= online_probability <= 1.0:
            raise ValueError(
                f"online_probability must be in [0, 1]: {online_probability!r}"
            )
        self.friend_host = friend_host
        self.online_probability = online_probability
        self.session_length = session_length
        self._rng = rng
        # (decided_at, online) — the friend's presence re-rolls per session.
        self._presence: Optional[tuple] = None

    def _online(self, world: World, ctx: FlowContext) -> bool:
        rng = self._rng or ctx.rng
        now = world.env.now
        if (
            self._presence is None
            or now - self._presence[0] >= self.session_length
        ):
            self._presence = (now, rng.random() < self.online_probability)
        return self._presence[1]

    def fetch(self, world: World, ctx: FlowContext, url: str) -> Generator:
        if not self._online(world, ctx):
            # The friend's laptop is closed: indistinguishable from a
            # dead relay — a connect timeout after the SYN schedule.
            yield world.env.timeout(CONNECT_TIMEOUT)
            return FetchResult(
                url=url,
                transport=self.name,
                started=world.env.now - CONNECT_TIMEOUT,
                finished=world.env.now,
                error=ConnectTimeout(self.friend_host.ip, "(friend offline)"),
                failure_stage="tcp",
            )
        result = yield from relay_fetch(
            world,
            ctx,
            url,
            self.friend_host,
            transport_name=self.name,
            bandwidth_cap_bps=self.friend_host.bandwidth_bps,
        )
        return result
