"""Transport interface shared by the direct path and every circumvention
method, plus the direct fetch pipeline they compose.

A transport's ``fetch`` is a simulation process that *never raises for
network reasons*: all failures are folded into the returned
:class:`FetchResult` together with the protocol stage they occurred at —
exactly the observations C-Saw's detection flowchart (Figure 4) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..simnet.dns import DnsError, Resolver, resolve
from ..simnet.flow import FlowContext
from ..simnet.http import HttpResponse, HttpTimeout, http_exchange
from ..simnet.tcp import ConnectionReset, TcpError, tcp_connect
from ..simnet.tls import TlsError, tls_handshake
from ..simnet.world import World
from ..urlkit import parse_url

__all__ = [
    "FetchResult",
    "Transport",
    "classify_failure",
    "drop_tracebacks",
    "fetch_pipeline",
]

# Redirect hops a fetch follows before giving up as a redirect loop.
MAX_REDIRECTS = 3


def classify_failure(error: Exception) -> str:
    """Protocol stage a failure belongs to: dns | tcp | tls | http | other.

    Thin delegator to :mod:`repro.core.taxonomy`, the single source of
    truth for failure classification.  Imported lazily: ``repro.core``
    eagerly imports this module, so a top-level import would be circular.
    """
    from ..core.taxonomy import failure_class

    return failure_class(error)


def drop_tracebacks(error: Optional[BaseException]) -> None:
    """Clear the traceback of a folded ``error`` and of each exception on
    its ``__context__`` chain.

    A stored traceback pins every frame it passed through, and on Python
    3.12 a finished generator frame reaches its caller's frame through
    ``f_back``: the frame that folds the failure holds the result that
    stores the error, a reference cycle per failed request.  Nothing reads
    a stored error's traceback.  Stops at the first exception without one
    (never raised, or already cleared), so a looped chain cannot spin.
    """
    while error is not None and error.__traceback__ is not None:
        error.__traceback__ = None
        error = error.__context__


@dataclass
class FetchResult:
    """Outcome of one URL fetch attempt through one transport.

    A failure is folded in as ``error`` with its traceback dropped (see
    :func:`drop_tracebacks`).
    """

    url: str
    transport: str
    started: float
    finished: float
    response: Optional[HttpResponse] = None
    error: Optional[Exception] = None
    failure_stage: Optional[str] = None
    redirects: List[HttpResponse] = field(default_factory=list)

    def __post_init__(self) -> None:
        drop_tracebacks(self.error)

    @property
    def elapsed(self) -> float:
        return self.finished - self.started

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.response is not None
            and self.response.status < 400
        )

    @property
    def failed(self) -> bool:
        return not self.ok

    def __repr__(self) -> str:
        status = self.response.status if self.response else None
        return (
            f"FetchResult({self.url!r}, via={self.transport}, ok={self.ok}, "
            f"status={status}, stage={self.failure_stage}, "
            f"elapsed={self.elapsed:.3f}s)"
        )


class Transport:
    """One way of fetching a URL (direct path, local-fix, or relay)."""

    #: registry identifier; subclasses must override
    name: str = "abstract"
    #: local fixes are preferred over relay-based methods (§4.3.2)
    is_local_fix: bool = False
    #: whether the method hides the user from the censor (Tor, VPN)
    provides_anonymity: bool = False
    #: relay methods add a relay between client and origin
    uses_relay: bool = False

    def available_for(self, world: World, url: str) -> bool:
        """Whether this method can even be attempted for ``url``."""
        return True

    def fetch(
        self, world: World, ctx: FlowContext, url: str
    ) -> Generator:
        """Process returning a :class:`FetchResult`.  Must not raise for
        network failures (fold them into the result)."""
        raise NotImplementedError

    def traced_fetch(
        self, world: World, ctx: FlowContext, url: str, trace=None
    ) -> Generator:
        """Process: :meth:`fetch` wrapped with per-attempt trace events.

        With a :class:`~repro.core.trace.SessionTrace`, emits an
        ``attempt`` event when the fetch starts and a ``result`` event
        (duration + ok/failure stage) when it completes, onto the
        ``transport:<name>`` stage.  With ``trace=None`` — or a trace
        whose recording is disabled (TraceMode off) — it is exactly
        ``fetch``: emission never touches the simulation schedule, and
        the disabled path skips the event bookkeeping entirely.
        """
        if trace is None or not trace.enabled:
            result = yield from self.fetch(world, ctx, url)
            return result
        # Stage label kept in sync with repro.core.trace.transport_stage
        # (string literal here: repro.core imports this module eagerly).
        stage = "transport:" + self.name
        started = trace.attempt(stage, self.name)
        result = yield from self.fetch(world, ctx, url)
        trace.result(
            stage, started, self.name,
            "ok" if result.ok else (result.failure_stage or "failed"),
        )
        return result

    def __repr__(self) -> str:
        return f"<Transport {self.name}>"


def fetch_pipeline(
    world: World,
    ctx: FlowContext,
    url: str,
    *,
    transport_name: str,
    resolver: Optional[Resolver] = None,
    dst_ip: Optional[str] = None,
    sni: Optional[str] = None,
    host_header: Optional[str] = None,
    dns_hold_on: bool = False,
) -> Generator:
    """The canonical client-side fetch: DNS → TCP → (TLS) → HTTP.

    Keyword overrides implement the local fixes: ``resolver`` switches to a
    public DNS server, ``dst_ip`` skips resolution entirely, ``sni`` and
    ``host_header`` decouple the wire-visible names from the real
    destination (domain fronting, IP-as-hostname).

    Returns a :class:`FetchResult`; never raises for network failures.
    """
    env = world.env
    started = env.now
    parsed = parse_url(url)
    redirects: List[HttpResponse] = []

    def failed(error: Exception) -> FetchResult:
        return FetchResult(
            url=url,
            transport=transport_name,
            started=started,
            finished=env.now,
            error=error,
            failure_stage=classify_failure(error),
            redirects=redirects,
        )

    current = parsed
    current_sni = sni
    current_host_header = host_header
    current_dst = dst_ip
    for _hop in range(MAX_REDIRECTS + 1):
        # --- DNS -----------------------------------------------------------
        if current_dst is not None:
            ip = current_dst
        else:
            use_resolver = resolver or world.isp_resolver(ctx)
            try:
                ips = yield from resolve(
                    env, world.network, ctx, current.host, use_resolver,
                    hold_on=dns_hold_on,
                )
            except DnsError as error:
                return failed(error)
            ip = ips[0]

        # --- TCP -----------------------------------------------------------
        try:
            conn = yield from tcp_connect(env, world.network, ctx, ip, current.port)
        except TcpError as error:
            return failed(error)

        # --- TLS -----------------------------------------------------------
        if current.scheme == "https":
            announce = current_sni if current_sni is not None else current.host
            try:
                yield from tls_handshake(env, ctx, conn, announce)
            except TlsError as error:
                return failed(error)

        # --- HTTP ----------------------------------------------------------
        header_host = current_host_header or current.host
        try:
            response = yield from http_exchange(
                env, world.network, world.web, ctx, conn,
                current.scheme, header_host, current.path,
            )
        except (HttpTimeout, ConnectionReset) as error:
            return failed(error)

        if response.is_redirect and response.location:
            redirects.append(response)
            current = parse_url(response.location)
            # Redirect targets are fetched with their own names.
            current_sni = None
            current_host_header = None
            current_dst = None
            continue

        return FetchResult(
            url=url,
            transport=transport_name,
            started=started,
            finished=env.now,
            response=response,
            redirects=redirects,
        )

    return failed(HttpTimeout(url, "(redirect loop)"))
