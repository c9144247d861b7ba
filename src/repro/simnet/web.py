"""Web content model: pages, sites, origin servers, CDNs.

A :class:`WebPage` carries both a *logical size* (drives transfer timing;
the paper's experiments use ~50 KB, 95 KB, 316 KB, ~360 KB and ~1.4 MB
pages) and a small synthetic *HTML snippet* (drives block-page
classification).  A page keeps only HTML it was given; any other
page's ordinary snippet is rendered by :func:`make_normal_html` each
time ``page.html`` is read (a served response reads it only when its
own ``html`` is read), so a world of thousands of pages holds none of
it.  Pages may embed objects served from the same site or from CDN
hosts — embedded CDN fetches are how the pilot study surfaced
CDN-server blocking (§7.4).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..urlkit import parse_url
from .topology import Host, Network

__all__ = ["EmbeddedRef", "WebPage", "Site", "Web", "make_normal_html"]


@dataclass(frozen=True)
class EmbeddedRef:
    """A sub-resource referenced by a page (image, script, CDN object)."""

    url: str
    size_bytes: int


@dataclass
class WebPage:
    """One fetchable resource.

    ``html`` is the HTML given to the constructor, or else
    :func:`make_normal_html` for the page, rendered on every read and
    never kept.
    """

    url: str
    size_bytes: int
    html: InitVar[str] = ""
    embedded: List[EmbeddedRef] = field(default_factory=list)
    category: str = "general"
    _html: str = field(default="", init=False, repr=False)

    def __post_init__(self, html: str) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"page size must be positive: {self.size_bytes!r}")
        self._html = html

    @property
    def total_bytes(self) -> int:
        return self.size_bytes + sum(ref.size_bytes for ref in self.embedded)


def _page_html(page: WebPage) -> str:
    if page._html:
        return page._html
    parsed = parse_url(page.url)
    return make_normal_html(parsed.host, parsed.path, page.embedded)


# Set once the dataclass is built: in the class body the property would
# become the ``html`` argument's default.
WebPage.html = property(_page_html)  # type: ignore[assignment]


@dataclass
class Site:
    """A hostname served by one origin host.

    ``catch_all`` (when set) synthesises a page for any unknown path —
    used for CDN nodes and censor block-page servers.
    """

    hostname: str
    host: Host
    pages: Dict[str, WebPage] = field(default_factory=dict)
    catch_all: Optional[Callable[[str], WebPage]] = None
    supports_https: bool = True
    supports_fronting: bool = False
    # Server-side filtering (§8): the *content provider* withholds content
    # from clients in these locations (e.g. government-requested geo
    # filtering).  Enforced by the server, not the on-path censor — a
    # relay outside the region sees the content.
    geo_blocked: Set[str] = field(default_factory=set)

    def add_page(self, page: WebPage) -> None:
        parsed = parse_url(page.url)
        if parsed.host != self.hostname:
            raise ValueError(
                f"page {page.url!r} does not belong to site {self.hostname!r}"
            )
        self.pages[parsed.path] = page

    def page(self, path: str) -> Optional[WebPage]:
        found = self.pages.get(path)
        if found is None and self.catch_all is not None:
            found = self.catch_all(path)
        return found


class Web:
    """Registry of sites; answers "what does this server say to this URL?"."""

    def __init__(self, network: Network):
        self.network = network
        self.sites: Dict[str, Site] = {}
        self._sites_by_ip: Dict[str, List[Site]] = {}

    def add_site(
        self,
        hostname: str,
        location: str,
        asn: Optional[int] = None,
        bandwidth_bps: float = 100e6,
        extra_rtt: float = 0.005,
        jitter_sigma: float = 0.08,
        supports_https: bool = True,
        supports_fronting: bool = False,
        catch_all: Optional[Callable[[str], WebPage]] = None,
        host: Optional[Host] = None,
        geo_blocked: Optional[Set[str]] = None,
    ) -> Site:
        """Create a site (and its origin host unless one is supplied)."""
        hostname = hostname.lower()
        if hostname in self.sites:
            raise ValueError(f"site already exists: {hostname!r}")
        if host is None:
            host = self.network.add_host(
                name=hostname,
                location=location,
                asn=asn,
                bandwidth_bps=bandwidth_bps,
                extra_rtt=extra_rtt,
                jitter_sigma=jitter_sigma,
                register_dns=True,
            )
        else:
            self.network.register_domain(hostname, host.ip)
        site = Site(
            hostname=hostname,
            host=host,
            supports_https=supports_https,
            supports_fronting=supports_fronting,
            catch_all=catch_all,
            geo_blocked=set(geo_blocked or ()),
        )
        self.sites[hostname] = site
        self._sites_by_ip.setdefault(host.ip, []).append(site)
        return site

    def add_page(
        self,
        url: str,
        size_bytes: int,
        html: str = "",
        embedded: Optional[List[EmbeddedRef]] = None,
        category: str = "general",
    ) -> WebPage:
        parsed = parse_url(url)
        site = self.sites.get(parsed.host)
        if site is None:
            raise ValueError(f"no site for {parsed.host!r}; add_site first")
        page = WebPage(
            url=parsed.url,
            size_bytes=size_bytes,
            html=html,
            embedded=list(embedded or []),
            category=category,
        )
        site.add_page(page)
        return page

    def site_for(self, hostname: str) -> Optional[Site]:
        return self.sites.get(hostname.lower())

    def site_serving(self, server: Host, host_header: str) -> Optional[Site]:
        """The site ``server`` selects for ``Host: host_header``.

        Virtual-host match first; otherwise fall back to the server's
        default (only) site — which is what makes the "IP as hostname"
        local-fix work: the Host header carries the IP, no vhost matches,
        and the default site answers.
        """
        candidates = self._sites_by_ip.get(server.ip, [])
        for site in candidates:
            if site.hostname == host_header.lower():
                return site
        if len(candidates) == 1:
            return candidates[0]
        return None

    def sites_on_ip(self, ip: str) -> List[Site]:
        return list(self._sites_by_ip.get(ip, []))


def make_normal_html(host: str, path: str, embedded: List[EmbeddedRef]) -> str:
    """A small, ordinary-looking HTML document for a content page."""
    refs = "\n".join(
        f'    <img src="{ref.url}" alt="resource" />' for ref in embedded[:8]
    )
    return (
        "<!DOCTYPE html>\n"
        f"<html>\n<head>\n  <title>{host}{path}</title>\n"
        '  <meta charset="utf-8" />\n'
        f'  <link rel="stylesheet" href="https://{host}/static/site.css" />\n'
        "</head>\n<body>\n"
        f"  <header><h1>Welcome to {host}</h1></header>\n"
        "  <nav><a href='/'>home</a> <a href='/about'>about</a>"
        " <a href='/news'>news</a></nav>\n"
        f"  <main>\n    <article><p>Content for {path} with plenty of"
        " paragraphs, commentary, and ongoing discussion threads."
        "</p></article>\n"
        f"{refs}\n"
        "  </main>\n"
        f"  <footer>&copy; {host} — all rights reserved</footer>\n"
        "</body>\n</html>\n"
    )
