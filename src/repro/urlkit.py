"""URL parsing and base/derived relationships.

C-Saw's local database is keyed by URL and its aggregation scheme (§4.4)
reasons about *base* URLs (``http://www.foo.com/``) versus *derived* URLs
(``http://www.foo.com/a.html``).  This module centralises that vocabulary
so the simulator, the proxy, and the database all agree on it.

Only the subset of URL syntax the reproduction needs is supported:
``scheme://host[:port]/path`` with http/https schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache


__all__ = [
    "ParsedUrl",
    "parse_url",
    "normalize_url",
    "base_url",
    "registered_domain",
]

_DEFAULT_PORTS = {"http": 80, "https": 443}


@dataclass(frozen=True)
class ParsedUrl:
    scheme: str
    host: str
    port: int
    path: str

    @property
    def origin(self) -> str:
        """scheme://host[:port] with default ports elided."""
        if _DEFAULT_PORTS.get(self.scheme) == self.port:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    @property
    def url(self) -> str:
        return f"{self.origin}{self.path}"

    @property
    def is_base(self) -> bool:
        return self.path == "/"

    def base(self) -> "ParsedUrl":
        return replace(self, path="/")

    def with_scheme(self, scheme: str) -> "ParsedUrl":
        if scheme not in _DEFAULT_PORTS:
            raise ValueError(f"unsupported scheme: {scheme!r}")
        port = self.port
        if port == _DEFAULT_PORTS[self.scheme]:
            port = _DEFAULT_PORTS[scheme]
        return replace(self, scheme=scheme, port=port)

    def __str__(self) -> str:
        return self.url


@lru_cache(maxsize=4096)
def parse_url(url: str) -> ParsedUrl:
    """Parse ``scheme://host[:port]/path`` (path defaults to ``/``).

    Memoized: the local database and proxy call this on every lookup with a
    small working set of URLs, and ``ParsedUrl`` is frozen so sharing one
    instance across callers is safe.
    """
    if "://" not in url:
        raise ValueError(f"URL missing scheme: {url!r}")
    scheme, rest = url.split("://", 1)
    scheme = scheme.lower()
    if scheme not in _DEFAULT_PORTS:
        raise ValueError(f"unsupported scheme: {scheme!r} in {url!r}")
    if "/" in rest:
        authority, path = rest.split("/", 1)
        path = "/" + path
    else:
        authority, path = rest, "/"
    if not authority:
        raise ValueError(f"URL missing host: {url!r}")
    if ":" in authority:
        host, port_text = authority.rsplit(":", 1)
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"bad port in URL: {url!r}") from None
        if not 0 < port < 65536:
            raise ValueError(f"bad port in URL: {url!r}")
    else:
        host, port = authority, _DEFAULT_PORTS[scheme]
    return ParsedUrl(scheme=scheme, host=host.lower(), port=port, path=path)


@lru_cache(maxsize=4096)
def normalize_url(url: str) -> str:
    """Canonical string form (lowercased host, default port elided)."""
    return parse_url(url).url


def base_url(url: str) -> str:
    """The base URL (path ``/``) of ``url``."""
    return parse_url(url).base().url


def registered_domain(host: str) -> str:
    """Crude eTLD+1: last two labels (enough for the synthetic corpus)."""
    labels = host.lower().rstrip(".").split(".")
    if len(labels) <= 2:
        return ".".join(labels)
    return ".".join(labels[-2:])
