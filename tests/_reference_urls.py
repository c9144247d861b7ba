"""Reference for whole-segment URL prefix matching.

:func:`is_derived_of` states, one pair at a time, what
``repro.core.aggregation.UrlPrefixIndex.longest_prefix`` answers over a
whole key set: which stored keys a URL derives from.  Tests compare the
index against it.
"""

from __future__ import annotations

from repro.urlkit import parse_url


def is_derived_of(derived: str, base: str) -> bool:
    """True when ``derived`` shares origin with ``base`` and extends its
    path by whole segments.

    ``base`` may itself be a non-root path: ``/a`` covers ``/a`` and
    ``/a/b`` but not ``/ab``.
    """
    d, b = parse_url(derived), parse_url(base)
    if (d.scheme, d.host, d.port) != (b.scheme, b.host, b.port):
        return False
    if b.path == "/":
        return True
    return d.path == b.path or d.path.startswith(
        b.path if b.path.endswith("/") else b.path + "/"
    )
