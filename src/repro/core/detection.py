"""In-line blocking detection on the direct path (Figure 4).

The flowchart, as implemented — one named stage per step, each emitting
``begin``/``end``/``evidence`` events onto the request's
:class:`~repro.core.trace.SessionTrace`:

1. ``local-dns``: resolve via the local (ISP) resolver.  On failure or a
   suspicious answer, re-resolve via the global/public DNS (GDNS) in a
   ``global-dns`` span:
   - local fails, GDNS answers → DNS blocking (continue with the GDNS
     address to expose multi-stage blocking);
   - both fail identically → the site genuinely does not resolve: *no
     blocking* (a network problem is not censorship).
2. ``tcp``: connect: timeout → IP blocking (blackhole), reset → IP
   blocking (RST injection).
3. ``tls`` (HTTPS only): handshake: timeout/reset → SNI blocking.
4. ``http``: send the GET: timeout → HTTP blocking (dropped GET), reset
   → HTTP blocking (RST).  Redirect hops stay inside this span.
5. ``blockpage-phase1``: got a page → phase-1 block-page heuristic.  A
   suspected block page is *tentatively* blocked pending phase 2 (the
   measurement session owns the circumvented response needed for the
   size comparison).

A DNS answer pointing into private address space is treated as a DNS
redirect; if the page it serves is a block page (or nothing listens),
DNS blocking is confirmed.

Failure→symptom mapping lives in :mod:`repro.core.taxonomy`; this module
holds only the flowchart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..circumvent.base import MAX_REDIRECTS, drop_tracebacks
from ..simnet.dns import DnsError, resolve
from ..simnet.flow import FlowContext
from ..simnet.http import HttpResponse, HttpTimeout, http_exchange
from ..simnet.ipaddr import is_private
from ..simnet.tcp import ConnectionReset, ConnectTimeout, TcpError, tcp_connect
from ..simnet.tls import TlsReset, TlsTimeout, tls_handshake
from ..simnet.world import World
from ..urlkit import parse_url
from .blockpage import phase1_looks_like_blockpage
from .records import BlockStatus, BlockType
from .taxonomy import block_type_for, dns_block_type
from .trace import (
    STAGE_BLOCKPAGE_PHASE1,
    STAGE_GLOBAL_DNS,
    STAGE_HTTP,
    STAGE_LOCAL_DNS,
    STAGE_TCP,
    STAGE_TLS,
    SessionTrace,
)

__all__ = ["DetectionOutcome", "measure_direct_path"]


@dataclass
class DetectionOutcome:
    """What the direct-path measurement concluded.

    ``error`` is stored with its traceback dropped (see
    :func:`~repro.circumvent.base.drop_tracebacks`).
    """

    url: str
    status: BlockStatus
    stages: List[BlockType] = field(default_factory=list)
    response: Optional[HttpResponse] = None
    error: Optional[Exception] = None
    started: float = 0.0
    finished: float = 0.0
    detection_time: float = 0.0  # time until the classification was made
    suspected_blockpage: bool = False  # phase-1 hit awaiting phase-2 confirm
    trace: Optional[SessionTrace] = None  # full per-stage event log

    def __post_init__(self) -> None:
        drop_tracebacks(self.error)

    @property
    def blocked(self) -> bool:
        return self.status is BlockStatus.BLOCKED

    @property
    def elapsed(self) -> float:
        return self.finished - self.started

    def __repr__(self) -> str:
        kinds = ",".join(s.value for s in self.stages) or "-"
        return (
            f"DetectionOutcome({self.url!r}, {self.status.value}, [{kinds}], "
            f"detect={self.detection_time:.2f}s)"
        )


class _DirectPathRun:
    """Mutable state threaded through one walk of the flowchart.

    Stage methods return a terminal :class:`DetectionOutcome` or ``None``
    to continue; :meth:`run` chains them.  The decomposition is pure code
    motion from the old monolithic generator — the yield sequence (and
    therefore every engine-event creation) is unchanged.
    """

    __slots__ = (
        "world", "env", "ctx", "url", "first_byte", "trace", "parsed",
        "started", "stages", "evidence_at", "dns_suspect", "ip", "conn",
        "response",
    )

    def __init__(self, world, ctx, url, first_byte, trace):
        self.world = world
        self.env = world.env
        self.ctx = ctx
        self.url = url
        self.first_byte = first_byte
        self.trace = trace
        self.parsed = parse_url(url)
        self.started = self.env.now
        self.stages: List[BlockType] = []
        # Detection time = the moment the *last* piece of blocking
        # evidence appeared (Table 5 semantics): a DNS-only block is
        # "detected" when the GDNS answer contradicts the local resolver,
        # even though the flow then continues to fetch the page.
        self.evidence_at: List[float] = []
        self.dns_suspect: Optional[BlockType] = None
        self.ip: Optional[str] = None
        self.conn = None
        self.response: Optional[HttpResponse] = None

    def note_evidence(self, stage_label: str, block_type: BlockType) -> None:
        self.stages.append(block_type)
        self.evidence_at.append(self.env.now)
        self.trace.evidence(stage_label, block_type)

    def outcome(
        self,
        status: BlockStatus,
        *,
        response: Optional[HttpResponse] = None,
        error: Optional[Exception] = None,
        detection_at: Optional[float] = None,
        suspected: bool = False,
    ) -> DetectionOutcome:
        if detection_at is not None:
            decided = detection_at
        elif self.evidence_at:
            decided = self.evidence_at[-1]
        else:
            decided = self.env.now
        return DetectionOutcome(
            url=self.url,
            status=status,
            stages=list(self.stages),
            response=response,
            error=error,
            started=self.started,
            finished=self.env.now,
            detection_time=decided - self.started,
            suspected_blockpage=suspected,
            trace=self.trace,
        )

    def run(self) -> Generator:
        terminal = yield from self._stage_dns()
        if terminal is None:
            terminal = yield from self._stage_tcp()
        if terminal is None:
            terminal = yield from self._stage_tls()
        if terminal is None:
            terminal = yield from self._stage_http()
        if terminal is None:
            terminal = self._stage_blockpage_phase1()
        return terminal

    # ---- stage 1: DNS (local, then GDNS cross-check) ------------------------

    def _stage_dns(self) -> Generator:
        world, env, ctx, parsed = self.world, self.env, self.ctx, self.parsed
        # Trace calls throughout the stages are guarded at the call site:
        # a disabled trace then costs one local predicate per stage
        # instead of a begin/end call pair (the TraceMode.OFF budget).
        trace = self.trace if self.trace.enabled else None
        span = trace.begin(STAGE_LOCAL_DNS) if trace else 0.0
        try:
            ips = yield from resolve(
                env, world.network, ctx, parsed.host, world.isp_resolver(ctx)
            )
            self.ip = ips[0]
            if trace:
                trace.end(STAGE_LOCAL_DNS, span)
        except DnsError as local_error:
            if trace:
                trace.end(
                    STAGE_LOCAL_DNS, span, detail=type(local_error).__name__
                )
            if world.public_resolver is None:
                # No GDNS available: treat the local failure as blocking
                # evidence (cannot distinguish a dead domain).
                self.note_evidence(
                    STAGE_LOCAL_DNS, dns_block_type(local_error)
                )
                return self.outcome(BlockStatus.BLOCKED, error=local_error)
            gspan = trace.begin(STAGE_GLOBAL_DNS) if trace else 0.0
            try:
                ips = yield from resolve(
                    env, world.network, ctx, parsed.host, world.public_resolver
                )
            except DnsError as gdns_error:
                # Both resolvers fail: the domain genuinely does not resolve.
                if trace:
                    trace.end(
                        STAGE_GLOBAL_DNS, gspan,
                        detail=type(gdns_error).__name__,
                    )
                return self.outcome(BlockStatus.NOT_BLOCKED, error=gdns_error)
            if trace:
                trace.end(STAGE_GLOBAL_DNS, gspan)
            # GDNS answered where the local resolver failed: DNS blocking.
            self.note_evidence(STAGE_LOCAL_DNS, dns_block_type(local_error))
            self.dns_suspect = self.stages[-1]
            self.ip = ips[0]

        # A resolution into private space is a DNS redirect to a local box.
        if self.dns_suspect is None and is_private(self.ip):
            self.note_evidence(STAGE_LOCAL_DNS, BlockType.DNS_REDIRECT)
            self.dns_suspect = BlockType.DNS_REDIRECT
            if world.public_resolver is not None:
                gspan = trace.begin(STAGE_GLOBAL_DNS) if trace else 0.0
                try:
                    ips = yield from resolve(
                        env, world.network, ctx, parsed.host,
                        world.public_resolver,
                    )
                    self.ip = ips[0]  # continue with the honest address
                except DnsError:
                    pass  # fall through with the redirect address
                if trace:
                    trace.end(STAGE_GLOBAL_DNS, gspan)
        return None

    # ---- stage 2: TCP --------------------------------------------------------

    def _stage_tcp(self) -> Generator:
        world, env = self.world, self.env
        trace = self.trace if self.trace.enabled else None
        span = trace.begin(STAGE_TCP) if trace else 0.0
        try:
            self.conn = yield from tcp_connect(
                env, world.network, self.ctx, self.ip, self.parsed.port
            )
        except (ConnectTimeout, ConnectionReset) as error:
            if trace:
                trace.end(STAGE_TCP, span, detail=type(error).__name__)
            if self.dns_suspect is BlockType.DNS_REDIRECT and is_private(self.ip):
                # We are still holding the forged address (on-path injection
                # defeats the GDNS retry too): the dead connect is a symptom
                # of the DNS redirect, not separate IP blocking.
                return self.outcome(BlockStatus.BLOCKED, error=error)
            self.note_evidence(STAGE_TCP, block_type_for(error))
            return self.outcome(BlockStatus.BLOCKED, error=error)
        if trace:
            trace.end(STAGE_TCP, span)
        return None

    # ---- stage 3: TLS (https only) -------------------------------------------

    def _stage_tls(self) -> Generator:
        if self.parsed.scheme != "https":
            return None
        world, env = self.world, self.env
        trace = self.trace if self.trace.enabled else None
        span = trace.begin(STAGE_TLS) if trace else 0.0
        try:
            yield from tls_handshake(env, self.ctx, self.conn, self.parsed.host)
        except (TlsTimeout, TlsReset) as error:
            if trace:
                trace.end(STAGE_TLS, span, detail=type(error).__name__)
            self.note_evidence(STAGE_TLS, block_type_for(error))
            return self.outcome(BlockStatus.BLOCKED, error=error)
        if trace:
            trace.end(STAGE_TLS, span)
        return None

    # ---- stage 4: HTTP (incl. redirect chase) --------------------------------

    def _stage_http(self) -> Generator:
        world, env, ctx = self.world, self.env, self.ctx
        trace = self.trace if self.trace.enabled else None
        span = trace.begin(STAGE_HTTP) if trace else 0.0
        current = self.parsed
        for _hop in range(MAX_REDIRECTS + 1):
            try:
                self.response = yield from http_exchange(
                    env, world.network, world.web, ctx, self.conn,
                    current.scheme, current.host, current.path,
                    first_byte=self.first_byte,
                )
            except HttpTimeout as error:
                if trace:
                    trace.end(STAGE_HTTP, span, detail="HttpTimeout")
                self.note_evidence(STAGE_HTTP, BlockType.HTTP_TIMEOUT)
                return self.outcome(BlockStatus.BLOCKED, error=error)
            except ConnectionReset as error:
                if trace:
                    trace.end(STAGE_HTTP, span, detail="ConnectionReset")
                self.note_evidence(STAGE_HTTP, BlockType.HTTP_RST)
                return self.outcome(BlockStatus.BLOCKED, error=error)
            if self.response.is_redirect and self.response.location:
                current = parse_url(self.response.location)
                if trace:
                    trace.mark(STAGE_HTTP, "redirect to " + current.host)
                if _looks_like_ip(current.host):
                    redirect_ip = current.host
                else:
                    try:
                        redirect_ip = yield from _redirect_resolve(
                            world, ctx, current.host
                        )
                    except DnsError as error:
                        if trace:
                            trace.end(
                                STAGE_HTTP, span, detail=type(error).__name__
                            )
                        self.note_evidence(STAGE_HTTP, dns_block_type(error))
                        return self.outcome(BlockStatus.BLOCKED, error=error)
                try:
                    self.conn = yield from tcp_connect(
                        env, world.network, ctx, redirect_ip, current.port
                    )
                except TcpError as error:
                    if trace:
                        trace.end(
                            STAGE_HTTP, span, detail=type(error).__name__
                        )
                    self.note_evidence(STAGE_HTTP, BlockType.IP_TIMEOUT)
                    return self.outcome(BlockStatus.BLOCKED, error=error)
                continue
            break
        if trace:
            trace.end(STAGE_HTTP, span)
        return None

    # ---- stage 5: block-page detection (phase 1) -----------------------------

    def _stage_blockpage_phase1(self) -> DetectionOutcome:
        response = self.response
        assert response is not None
        trace = self.trace if self.trace.enabled else None
        span = trace.begin(STAGE_BLOCKPAGE_PHASE1) if trace else 0.0
        if response.status == 451:
            # The *server* withheld the content from this region (§8): an
            # explicit signal, no phase-2 comparison needed.  Circumventable
            # only through a relay whose vantage lies outside the region.
            self.note_evidence(
                STAGE_BLOCKPAGE_PHASE1, BlockType.SERVER_FILTERING
            )
            if trace:
                trace.end(
                    STAGE_BLOCKPAGE_PHASE1, span, detail="status 451"
                )
            return self.outcome(BlockStatus.BLOCKED, response=response)
        if phase1_looks_like_blockpage(response.html):
            self.note_evidence(STAGE_BLOCKPAGE_PHASE1, BlockType.BLOCK_PAGE)
            if trace:
                trace.end(
                    STAGE_BLOCKPAGE_PHASE1, span, detail="phase-1 hit"
                )
            return self.outcome(
                BlockStatus.BLOCKED, response=response, suspected=True
            )
        if trace:
            trace.end(STAGE_BLOCKPAGE_PHASE1, span)

        if self.dns_suspect is BlockType.DNS_REDIRECT:
            # The redirect address served an ordinary page after all — treat
            # as geo-DNS/CDN behaviour, not blocking.
            self.stages.remove(BlockType.DNS_REDIRECT)
            if trace:
                trace.mark(
                    STAGE_LOCAL_DNS, "dns-redirect withdrawn: real page served"
                )
            self.dns_suspect = None
        if self.dns_suspect is not None:
            # Local resolver lied but the page loads fine via the GDNS
            # address: still DNS blocking (the user could not have loaded
            # it unaided).
            return self.outcome(BlockStatus.BLOCKED, response=response)

        return self.outcome(BlockStatus.NOT_BLOCKED, response=response)


def measure_direct_path(
    world: World,
    ctx: FlowContext,
    url: str,
    first_byte=None,
    trace: Optional[SessionTrace] = None,
) -> Generator:
    """Process implementing the Figure-4 flowchart; returns DetectionOutcome.

    ``first_byte`` (optional Event) fires when the direct path starts
    answering — used by the redundancy stagger to skip the duplicate.
    ``trace`` threads an existing :class:`SessionTrace` through the
    stages; callers that pass none still get a per-run trace on the
    returned outcome.
    """
    if trace is None:
        trace = SessionTrace(lambda: world.env.now, url=url, actor="direct")
    run = _DirectPathRun(world, ctx, url, first_byte, trace)
    # Hand back the run generator directly instead of delegating to it:
    # the setup above is pure (no engine events, no RNG), so running it
    # at call time instead of first resume is behavior-identical, and it
    # keeps detection one yield-from frame shallower.
    return run.run()


def _looks_like_ip(host: str) -> bool:
    parts = host.split(".")
    return len(parts) == 4 and all(p.isdigit() for p in parts)


def _redirect_resolve(world: World, ctx: FlowContext, host: str) -> Generator:
    """Resolve a redirect target's host (ISP resolver)."""
    ips = yield from resolve(
        world.env, world.network, ctx, host, world.isp_resolver(ctx)
    )
    return ips[0]
