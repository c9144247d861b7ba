"""Two-phase block-page detection (§4.3.1).

Phase 1 inspects the direct-path response *alone*, using an HTML-tag
heuristic in the spirit of Jones et al. [42]: block pages are short and
carry either explicit blocking language, an iframe-only splice structure,
or a meta-refresh to a warning portal.  Tuned to be precise: a normal page
must never be flagged (the paper reports ~80 % recall with zero false
positives on a 47-ISP corpus) — false *negatives* are cheap because phase
2 cleans them up.

Phase 2 compares the direct response against the circumvented response for
the same URL: censors' block pages are far smaller than real content, so a
large size ratio flags the direct response as a block page (also [42]).
"""

from __future__ import annotations

import re

__all__ = ["phase1_looks_like_blockpage", "phase2_is_blockpage"]

# Explicit blocking language: precise phrases, not single common words.
_BLOCK_PHRASES = (
    "has been blocked",
    "is not accessible",
    "blocked by order",
    "access denied",
    "access to this site",
    "surf safely",
    "prohibited for viewership",
    "content that is prohibited",
    "restricted",
    "url blocked",
)

_IFRAME_ONLY_RE = re.compile(
    r"<body[^>]*>\s*<iframe[^>]*>\s*</iframe>\s*</body>", re.IGNORECASE
)
_META_REFRESH_RE = re.compile(
    r"<meta[^>]*http-equiv=[\"']refresh[\"'][^>]*url=http://(warning|block)\.",
    re.IGNORECASE,
)
_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title>", re.IGNORECASE | re.DOTALL)

_BLOCK_TITLES = ("access denied", "surf safely", "notice")

# Block pages are small; anything big is real content.
_MAX_BLOCKPAGE_BYTES = 4096
# Phase 2: a direct response under this fraction of the circumvented
# response's size is a block page.
_RATIO_THRESHOLD = 0.30


def phase1_looks_like_blockpage(html: str) -> bool:
    """Single-response heuristic; precise by construction."""
    if not html or len(html) > _MAX_BLOCKPAGE_BYTES:
        return False
    lowered = html.lower()
    if any(phrase in lowered for phrase in _BLOCK_PHRASES):
        return True
    if _IFRAME_ONLY_RE.search(html):
        return True
    if _META_REFRESH_RE.search(html):
        return True
    title_match = _TITLE_RE.search(html)
    if title_match:
        title = title_match.group(1).strip().lower()
        if any(marker in title for marker in _BLOCK_TITLES) and title:
            return True
    return False


def phase2_is_blockpage(direct_size: int, circumvented_size: int) -> bool:
    """Size-comparison check: direct response much smaller → block page."""
    if circumvented_size <= 0:
        return False
    return direct_size < _RATIO_THRESHOLD * circumvented_size
