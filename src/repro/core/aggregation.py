"""URL aggregation for the local database (§4.4).

The policy, verbatim from the paper:

HTTP blocking:
  (a) base URL blocked → keep one record at the base; every derived URL is
      considered blocked;
  (b) derived URL blocked → its base (or sibling paths) may or may not be
      blocked; keep a record *for the derived URL*;
  (c) any URL found uncensored → keep a single record at the base URL.

IP / DNS / HTTPS(SNI) blocking filters a hostname or address, so a blocked
observation — even on a derived URL — collapses to a single base-URL
record.

Cases (b) and (c) together require longest-prefix matching to find the
correct status of a derived URL, which :class:`UrlPrefixIndex` provides.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..urlkit import parse_url
from .records import BlockStatus, BlockType

__all__ = ["storage_key", "UrlPrefixIndex"]


def storage_key(url: str, status: BlockStatus, stages: List[BlockType]) -> str:
    """Where a fresh measurement of ``url`` should be stored.

    Implements the per-blocking-type aggregation policy above.
    """
    parsed = parse_url(url)
    if status is BlockStatus.NOT_BLOCKED:
        return parsed.base().url  # case (c): one record at the base
    if status is BlockStatus.BLOCKED:
        if any(stage.hostname_scoped for stage in stages):
            return parsed.base().url  # DNS/IP/SNI: hostname-level blocking
        return parsed.url  # HTTP blocking, cases (a)/(b)
    return parsed.url  # NOT_MEASURED placeholder entries keep their key


class UrlPrefixIndex:
    """Longest-prefix lookup over stored URL keys, per origin.

    Keys are exact URLs; lookup walks from the full path toward the base
    URL, returning the first stored key.  Paths are matched on whole
    segments ("/a" is a prefix of "/a/b" but not of "/ab").
    """

    def __init__(self) -> None:
        # origin -> {path -> key url}
        self._by_origin: Dict[str, Dict[str, str]] = {}

    def __len__(self) -> int:
        return sum(len(paths) for paths in self._by_origin.values())

    def add(self, url: str) -> None:
        parsed = parse_url(url)
        self._by_origin.setdefault(parsed.origin, {})[parsed.path] = parsed.url

    def remove(self, url: str) -> None:
        parsed = parse_url(url)
        paths = self._by_origin.get(parsed.origin)
        if paths is not None:
            paths.pop(parsed.path, None)
            if not paths:
                del self._by_origin[parsed.origin]

    def keys_for_origin(self, url: str) -> List[str]:
        parsed = parse_url(url)
        return list(self._by_origin.get(parsed.origin, {}).values())

    def longest_prefix(self, url: str) -> Optional[str]:
        """The stored key whose path is the longest prefix of ``url``'s."""
        parsed = parse_url(url)
        paths = self._by_origin.get(parsed.origin)
        if not paths:
            return None
        for candidate in _prefix_walk(parsed.path):
            if candidate in paths:
                return paths[candidate]
        return None


def _prefix_walk(path: str) -> Iterable[str]:
    """Yield ``path`` and its segment-wise prefixes, longest first.

    '/a/b/c' -> '/a/b/c', '/a/b', '/a', '/'.
    """
    yield path
    trimmed = path.rstrip("/")
    while trimmed:
        trimmed = trimmed.rsplit("/", 1)[0]
        yield trimmed if trimmed else "/"
