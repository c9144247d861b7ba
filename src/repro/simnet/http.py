"""Simulated HTTP request/response exchange over an established connection.

Cleartext HTTP requests expose the Host header and path to the on-path
censor, which may drop the GET (→ :class:`HttpTimeout`), inject a reset,
302 the client to a block-page server, or splice a block page in via an
iframe.  HTTPS requests skip the HTTP-stage censor entirely — by then the
censor has already had its chance at the DNS/IP/SNI stages.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Dict, Generator, Optional

from ..censor.actions import HttpAction
from .engine import Environment
from .flow import FlowContext
from .latency import transfer_time
from .tcp import ConnectionReset, TcpConnection
from .topology import Network
from .web import Web, WebPage

__all__ = ["HttpTimeout", "HttpResponse", "http_exchange"]


class HttpTimeout(Exception):
    """The GET was swallowed (censor drop or dead server)."""

    kind = "http-timeout"

    def __init__(self, url: str, detail: str = ""):
        super().__init__(f"http-timeout: {url} {detail}".rstrip())
        self.url = url
        self.detail = detail


GET_TIMEOUT = 10.0  # stall before giving up on a response
SERVER_THINK_TIME = 0.015


@dataclass
class HttpResponse:
    """What came back (possibly censor-injected).

    ``html`` is the HTML given to the constructor, or else the served
    ``page``'s, read from the page on every access and never kept: most
    served responses are only timed and sized, never read.
    """

    status: int
    url: str
    size_bytes: int
    server_ip: str
    html: InitVar[str] = ""
    page: Optional[WebPage] = None
    headers: Dict[str, str] = field(default_factory=dict)
    injected: bool = False  # ground truth; detectors must not read this
    _html: str = field(default="", init=False, repr=False)

    def __post_init__(self, html: str) -> None:
        self._html = html

    @property
    def is_redirect(self) -> bool:
        return self.status in (301, 302, 303, 307, 308)

    @property
    def location(self) -> Optional[str]:
        return self.headers.get("location")


def _response_html(response: HttpResponse) -> str:
    page = response.page
    if response._html or page is None:
        return response._html
    return page.html


# Set once the dataclass is built, as for ``WebPage.html``.
HttpResponse.html = property(_response_html)  # type: ignore[assignment]


_404_HTML = (
    "<!DOCTYPE html><html><head><title>404 Not Found</title></head>"
    "<body><h1>Not Found</h1><p>The requested URL was not found on this "
    "server.</p></body></html>"
)

_GEO_BLOCK_HTML = (
    "<!DOCTYPE html><html><head><title>451 Unavailable For Legal Reasons"
    "</title></head><body><h1>451</h1><p>{host} is not available in your "
    "country. This content has been withheld in response to a legal "
    "demand.</p></body></html>"
)


def _iframe_blockpage_html(blockpage_host: str) -> str:
    return (
        "<!DOCTYPE html><html><head><title></title></head><body>"
        f'<iframe src="http://{blockpage_host}/" frameborder="0" '
        'width="100%" height="100%"></iframe></body></html>'
    )


def http_exchange(
    env: Environment,
    network: Network,
    web: Web,
    ctx: FlowContext,
    conn: TcpConnection,
    scheme: str,
    host_header: str,
    path: str,
    first_byte=None,
) -> Generator:
    """Process: one GET over ``conn``; returns :class:`HttpResponse`.

    Raises :class:`HttpTimeout` or :class:`ConnectionReset` on censor
    interference.  ``first_byte`` (an Event, optional) is succeeded the
    moment response bytes start arriving — before the body transfer
    completes — which is what the redundancy-stagger logic keys on
    (footnote 10: skip the duplicate if the direct path answers quickly).
    """
    url = f"{scheme}://{host_header}{path}"
    middlebox = ctx.middlebox

    def mark_first_byte() -> None:
        if first_byte is not None and not first_byte.triggered:
            first_byte.succeed(env.now)

    if scheme == "http" and middlebox is not None:
        verdict = middlebox.http_request(env.now, host_header, path, src_ip=ctx.client.ip)
        if verdict.action is HttpAction.DROP:
            yield env.timeout(GET_TIMEOUT)
            raise HttpTimeout(url, "(censor drop)")
        if verdict.action is HttpAction.RST:
            yield env.timeout(conn.rtt / 2.0)
            raise ConnectionReset(conn.dst_ip, "(censor RST after GET)")
        if verdict.action is HttpAction.BLOCKPAGE_REDIRECT:
            yield env.timeout(conn.rtt / 2.0)
            mark_first_byte()
            sites = web.sites_on_ip(verdict.blockpage_ip)
            location_host = sites[0].hostname if sites else verdict.blockpage_ip
            return HttpResponse(
                status=302,
                url=url,
                html="",
                size_bytes=0,
                server_ip=verdict.blockpage_ip,
                headers={"location": f"http://{location_host}/"},
                injected=True,
            )
        if verdict.action is HttpAction.BLOCKPAGE_IFRAME:
            yield env.timeout(conn.rtt)
            mark_first_byte()
            sites = web.sites_on_ip(verdict.blockpage_ip)
            frame_host = sites[0].hostname if sites else verdict.blockpage_ip
            html = _iframe_blockpage_html(frame_host)
            return HttpResponse(
                status=200,
                url=url,
                html=html,
                size_bytes=len(html),
                server_ip=conn.dst_ip,
                injected=True,
            )

    # Honest exchange with the connected server.
    site = web.site_serving(conn.dst, host_header)
    rtt = conn.sample_rtt(ctx.rng)
    if site is not None and ctx.client.location in site.geo_blocked:
        # Server-side filtering (§8): the provider itself withholds the
        # content from this region.  Not censor-injected — a relay whose
        # vantage lies outside the region gets the real page.
        yield env.timeout(rtt + SERVER_THINK_TIME)
        mark_first_byte()
        html = _GEO_BLOCK_HTML.format(host=host_header)
        return HttpResponse(
            status=451,
            url=url,
            html=html,
            size_bytes=len(html),
            server_ip=conn.dst_ip,
        )
    page = site.page(path) if site is not None else None
    if page is None:
        yield env.timeout(rtt + SERVER_THINK_TIME)
        mark_first_byte()
        return HttpResponse(
            status=404,
            url=url,
            html=_404_HTML,
            size_bytes=len(_404_HTML),
            server_ip=conn.dst_ip,
        )
    # Headers arrive one round trip (plus server think time) after the
    # GET; the body streams in afterwards.
    headers_delay = SERVER_THINK_TIME + rtt
    yield env.timeout(headers_delay)
    mark_first_byte()
    body_duration = max(
        0.0,
        transfer_time(page.size_bytes, rtt, conn.bandwidth_bps)
        * ctx.load.factor()
        - rtt,
    )
    yield env.timeout(body_duration)
    return HttpResponse(
        status=200,
        url=url,
        size_bytes=page.size_bytes,
        server_ip=conn.dst_ip,
        page=page,
    )
