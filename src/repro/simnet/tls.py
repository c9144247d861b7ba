"""Simulated TLS handshake with cleartext SNI.

Censors cannot read HTTPS payloads but do see the Server Name Indication in
the ClientHello (§2.1), so SNI-based filtering — and domain fronting's
evasion of it by putting an innocuous front name in the SNI — fall out of
this layer.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..censor.actions import TlsAction
from .engine import Environment
from .flow import FlowContext
from .tcp import TcpConnection

__all__ = ["TlsError", "TlsTimeout", "TlsReset", "tls_handshake"]


class TlsError(Exception):
    """Base class for TLS handshake failures."""

    kind = "tls-error"

    def __init__(self, sni: Optional[str], detail: str = ""):
        super().__init__(f"{self.kind}: sni={sni!r} {detail}".rstrip())
        self.sni = sni
        self.detail = detail


class TlsTimeout(TlsError):
    kind = "tls-timeout"


class TlsReset(TlsError):
    kind = "tls-reset"


HANDSHAKE_ROUND_TRIPS = 2  # TLS 1.2 full handshake
DROP_TIMEOUT = 15.0  # stall before the client gives up


def tls_handshake(
    env: Environment,
    ctx: FlowContext,
    conn: TcpConnection,
    sni: Optional[str],
) -> Generator:
    """Process: TLS handshake over ``conn`` announcing ``sni``.

    Returns the handshake duration; raises :class:`TlsTimeout` or
    :class:`TlsReset` when the censor interferes.
    """
    middlebox = ctx.middlebox
    if middlebox is not None:
        verdict = middlebox.tls_client_hello(env.now, sni, conn.dst_ip, src_ip=ctx.client.ip)
        if verdict.action is TlsAction.DROP:
            yield env.timeout(DROP_TIMEOUT)
            raise TlsTimeout(sni, "(censor drop)")
        if verdict.action is TlsAction.RST:
            yield env.timeout(conn.rtt / 2.0)
            raise TlsReset(sni, "(censor RST)")

    duration = HANDSHAKE_ROUND_TRIPS * conn.sample_rtt(ctx.rng)
    yield env.timeout(duration)
    return duration
