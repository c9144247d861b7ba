"""Non-web reachability measurement + VPN recovery (§8 future work).

Extends C-Saw's measure-what-you-use principle to application services:
when the user opens the messaging app, the checker probes the service's
endpoints on the direct path (classifying which are blocked), records
the status, and — when the service is blocked — tunnels the session
through a VPN endpoint, the standard recovery for non-web traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..simnet.app import AppBlocked, AppConnection, AppService, app_connect
from ..simnet.flow import FlowContext
from ..simnet.tcp import TcpError, tcp_connect
from ..simnet.topology import Host
from ..simnet.world import World
from .records import BlockStatus

__all__ = ["AppStatus", "AppReachabilityChecker"]


@dataclass
class AppStatus:
    """What the checker knows about one service from this vantage."""

    service: str
    status: BlockStatus
    blocked_endpoints: List[str] = field(default_factory=list)
    reachable_endpoints: List[str] = field(default_factory=list)
    measured_at: float = 0.0

    @property
    def fully_blocked(self) -> bool:
        return self.status is BlockStatus.BLOCKED and not self.reachable_endpoints


class AppReachabilityChecker:
    """Measure app reachability; recover blocked sessions through a VPN."""

    def __init__(
        self,
        world: World,
        vpn_endpoint: Optional[Host] = None,
        record_ttl: float = 3600.0,
    ):
        self.world = world
        self.vpn_endpoint = vpn_endpoint
        self.record_ttl = record_ttl
        self._statuses: Dict[str, AppStatus] = {}
        self.probes = 0

    # -- measurement ----------------------------------------------------------

    def check(self, ctx: FlowContext, service: AppService) -> Generator:
        """Process: probe every endpoint on the direct path."""
        env = self.world.env
        blocked, reachable = [], []
        for endpoint in service.endpoints:
            try:
                yield from tcp_connect(
                    env, self.world.network, ctx, endpoint.ip, service.port
                )
            except TcpError:
                blocked.append(endpoint.ip)
            else:
                reachable.append(endpoint.ip)
            self.probes += 1
        status = AppStatus(
            service=service.name,
            status=(
                BlockStatus.BLOCKED if blocked else BlockStatus.NOT_BLOCKED
            ),
            blocked_endpoints=blocked,
            reachable_endpoints=reachable,
            measured_at=env.now,
        )
        self._statuses[service.name] = status
        return status

    def status_of(self, service_name: str) -> Optional[AppStatus]:
        found = self._statuses.get(service_name)
        if found is None:
            return None
        if self.world.env.now - found.measured_at > self.record_ttl:
            del self._statuses[service_name]
            return None
        return found

    # -- connection with recovery -------------------------------------------------

    def connect(self, ctx: FlowContext, service: AppService) -> Generator:
        """Process: open a session, tunnelling through the VPN if needed.

        Direct first (which doubles as a measurement when the cached
        status expired); on total blockage, through the VPN endpoint.
        Raises :class:`AppBlocked` only when the VPN path is unavailable
        or blocked as well.
        """
        env = self.world.env
        known = self.status_of(service.name)
        if known is None or not known.fully_blocked:
            try:
                conn = yield from app_connect(self.world, ctx, service)
                self._note_success(service, conn)
                return conn
            except AppBlocked:
                self._note_total_block(service)
        if self.vpn_endpoint is None:
            raise AppBlocked(service.name, [])
        conn = yield from self._connect_via_vpn(ctx, service)
        return conn

    def _connect_via_vpn(
        self, ctx: FlowContext, service: AppService
    ) -> Generator:
        env = self.world.env
        # Censored leg to the VPN endpoint.
        tunnel = yield from tcp_connect(
            env, self.world.network, ctx, self.vpn_endpoint.ip, 1194
        )
        # VPN handshake, then the tunnelled app session from the VPN's
        # (uncensored) vantage.
        yield env.timeout(1.5 * tunnel.rtt)
        vpn_ctx = self.world.relay_ctx(self.vpn_endpoint, stream="app-vpn")
        inner = yield from app_connect(self.world, vpn_ctx, service)
        return AppConnection(
            service=service.name,
            endpoint=inner.endpoint,
            rtt=tunnel.rtt + inner.rtt,
            via="vpn",
        )

    # -- bookkeeping -----------------------------------------------------------------

    def _note_success(self, service: AppService, conn: AppConnection) -> None:
        status = self._statuses.get(service.name)
        if status is None or status.status is BlockStatus.NOT_BLOCKED:
            self._statuses[service.name] = AppStatus(
                service=service.name,
                status=BlockStatus.NOT_BLOCKED,
                reachable_endpoints=[conn.endpoint.ip],
                measured_at=self.world.env.now,
            )

    def _note_total_block(self, service: AppService) -> None:
        self._statuses[service.name] = AppStatus(
            service=service.name,
            status=BlockStatus.BLOCKED,
            blocked_endpoints=service.endpoint_ips,
            measured_at=self.world.env.now,
        )
