"""Non-web application services (§8 future work).

The paper leaves "non-web filtering (e.g., messaging, voice, and video
applications, such as Whatsapp)" to future work.  This module supplies
the substrate: an :class:`AppService` is a named service with a pool of
endpoint hosts speaking a non-HTTP protocol on a fixed port.  Censors
block such services the blunt way — by IP — which the ordinary
:func:`repro.simnet.tcp.tcp_connect` path already enforces, so app
connections ride the same middleboxes as web traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from .flow import FlowContext
from .tcp import TcpError, tcp_connect
from .topology import Host
from .world import World

__all__ = ["AppService", "AppConnection", "AppBlocked", "app_connect",
           "build_app_service"]


class AppBlocked(Exception):
    """Every endpoint of the service failed from this vantage."""

    def __init__(self, service: str, failures: List[Exception]):
        super().__init__(f"app-blocked: {service} ({len(failures)} endpoints)")
        self.service = service
        self.failures = failures


@dataclass(frozen=True)
class AppConnection:
    """A working session to one endpoint."""

    service: str
    endpoint: Host
    rtt: float
    via: str = "direct"


@dataclass
class AppService:
    """A messaging/VoIP-style service with several endpoint hosts."""

    name: str
    endpoints: List[Host]
    port: int = 5222

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise ValueError("an app service needs at least one endpoint")

    @property
    def endpoint_ips(self) -> List[str]:
        return [h.ip for h in self.endpoints]


def build_app_service(
    world: World,
    name: str,
    n_endpoints: int = 3,
    location: str = "us-east",
    port: int = 5222,
) -> AppService:
    """Provision a service's endpoint fleet inside a world."""
    endpoints = [
        world.network.add_host(
            name=f"{name}-endpoint-{index}",
            location=location,
            extra_rtt=0.005,
            tags={"role": "app-endpoint", "service": name},
        )
        for index in range(n_endpoints)
    ]
    return AppService(name=name, endpoints=endpoints, port=port)


def app_connect(
    world: World,
    ctx: FlowContext,
    service: AppService,
    shuffle: bool = True,
) -> Generator:
    """Process: establish a session, trying endpoints in (shuffled) order.

    Returns :class:`AppConnection`; raises :class:`AppBlocked` when every
    endpoint fails (the all-IPs-blacklisted case).
    """
    order = list(service.endpoints)
    if shuffle:
        ctx.rng.shuffle(order)
    failures: List[Exception] = []
    for endpoint in order:
        try:
            conn = yield from tcp_connect(
                world.env, world.network, ctx, endpoint.ip, service.port
            )
        except TcpError as error:
            failures.append(error)
            continue
        # Application-level hello over the established connection.
        yield world.env.timeout(conn.rtt)
        return AppConnection(
            service=service.name, endpoint=endpoint, rtt=conn.rtt
        )
    raise AppBlocked(service.name, failures)
