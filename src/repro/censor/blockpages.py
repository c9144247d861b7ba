"""Synthetic block-page corpus.

The paper validated its phase-1 HTML-tag heuristic against block pages from
47 ISPs (citizenlab/ooni corpora), finding it catches ~80 % of block pages
with no false positives on normal pages (§4.3.1).  We regenerate that
setting: 47 ISP-styled block-page *families*, roughly 80 % of which carry
an overt signature (explicit blocking language, iframe-only splice pages,
legal-notice pages) and the rest deliberately bland (silent camouflage
pages that only phase 2's size comparison can catch).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..simnet.web import make_normal_html

__all__ = ["BlockpageSample", "build_blockpage_corpus", "build_normal_corpus",
           "DEFAULT_BLOCKPAGE_HTML"]


@dataclass(frozen=True)
class BlockpageSample:
    """One block page as served by one ISP's filtering appliance."""

    isp: str
    html: str
    overt: bool  # carries an obvious phase-1 signature


_OVERT_TEMPLATES = [
    # Plain legal-notice page.
    (
        "<!DOCTYPE html><html><head><title>Access Denied</title></head>"
        "<body><h1>Access to this site has been blocked</h1>"
        "<p>This website is not accessible as per the directives of the "
        "{authority}. If you believe this is in error, contact your service "
        "provider ({isp}).</p><hr/><p>URL blocked under regulation "
        "{regulation}.</p></body></html>"
    ),
    # Surf-safely style page.
    (
        "<!DOCTYPE html><html><head><title>{isp} - Surf Safely</title></head>"
        "<body><div class='warn'><h2>Surf Safely!</h2><p>The site you are "
        "trying to access contains content that is prohibited for viewership "
        "from within {country}.</p></div></body></html>"
    ),
    # Iframe splice (the ISP-B style in Table 1).
    (
        "<!DOCTYPE html><html><head><title></title></head><body>"
        '<iframe src="http://block.{isp_domain}/notice" frameborder="0" '
        'width="100%" height="100%"></iframe></body></html>'
    ),
    # Minimal text-only denial.
    (
        "<html><head><title>403 Forbidden</title></head><body>"
        "<p>The requested URL has been blocked by order of the "
        "{authority}.</p></body></html>"
    ),
    # Redirect-notice page with a meta refresh to a warning portal.
    (
        "<!DOCTYPE html><html><head><title>Notice</title>"
        '<meta http-equiv="refresh" content="5;url=http://warning.'
        '{isp_domain}/" /></head><body><p>This page is restricted. You '
        "will be redirected to an information page about prohibited "
        "content.</p></body></html>"
    ),
]

_CAMOUFLAGE_TEMPLATES = [
    # Fake server-error page: no blocking language at all.
    (
        "<html><head><title>500 Internal Server Error</title></head><body>"
        "<h1>Internal Server Error</h1><p>The server encountered an "
        "unexpected condition.</p></body></html>"
    ),
    # Fake connectivity-problem page.
    (
        "<html><head><title>Problem loading page</title></head><body>"
        "<p>The connection to the server was reset while the page was "
        "loading. Please try again later.</p></body></html>"
    ),
    # Blank-ish stub page.
    ("<html><head><title></title></head><body><p>&nbsp;</p></body></html>"),
]

_AUTHORITIES = [
    "Telecommunication Authority",
    "Ministry of Information",
    "National Regulatory Commission",
    "Supreme Court order",
]
_COUNTRIES = ["Pakistan", "Yemen", "Indonesia", "Vietnam", "Kyrgyzstan"]

DEFAULT_BLOCKPAGE_HTML = _OVERT_TEMPLATES[0].format(
    authority=_AUTHORITIES[0], isp="ISP-A", regulation="PTA-2016/441",
    country="Pakistan", isp_domain="isp-a.example",
)


def build_blockpage_corpus(
    rng: random.Random, n_isps: int = 47, overt_fraction: float = 0.8
) -> List[BlockpageSample]:
    """Block pages for ``n_isps`` ISPs, ~``overt_fraction`` overt."""
    if n_isps < 1:
        raise ValueError(f"n_isps must be >= 1: {n_isps!r}")
    samples = []
    n_overt = round(n_isps * overt_fraction)
    for index in range(n_isps):
        isp = f"isp-{index:02d}"
        overt = index < n_overt
        if overt:
            template = rng.choice(_OVERT_TEMPLATES)
        else:
            template = rng.choice(_CAMOUFLAGE_TEMPLATES)
        html = template.format(
            authority=rng.choice(_AUTHORITIES),
            isp=isp.upper(),
            isp_domain=f"{isp}.example",
            regulation=f"REG-{rng.randint(1000, 9999)}",
            country=rng.choice(_COUNTRIES),
        )
        samples.append(BlockpageSample(isp=isp, html=html, overt=overt))
    rng.shuffle(samples)
    return samples


def build_normal_corpus(rng: random.Random, n_pages: int = 200) -> List[str]:
    """Ordinary pages the classifier must never flag (false positives)."""
    pages = []
    for index in range(n_pages):
        host = f"site{index}.example.{rng.choice(['com', 'org', 'net'])}"
        path = rng.choice(["/", "/news", "/article/2017/11", "/videos", "/about"])
        html = make_normal_html(host, path, [])
        # Vary length: some normal pages are short, none carry block language.
        if rng.random() < 0.3:
            html = html.replace(
                "<article>", "<article><p>" + ("lorem ipsum " * rng.randint(10, 80)) + "</p>"
            )
        pages.append(html)
    return pages
