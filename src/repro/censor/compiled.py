"""Compiled form of a :class:`~repro.censor.policy.CensorPolicy`.

Scanning every rule on every DNS/TCP/TLS/HTTP observation costs O(rules)
per packet, multiplied across ~10^6 events per experiment.  A
:class:`CompiledPolicy` collapses the ordered rule list into per-stage hash
structures so each stage costs O(#labels + #keyword-hits) instead:

- **domain suffixes** — one dict per stage mapping each blocked domain to
  the smallest index of a rule carrying it, probed once per label-aligned
  suffix of the query name;
- **exact IPs** — a dict per stage, one probe per packet;
- **keywords** — a single combined regex as a fast *rejection* prefilter
  (the overwhelmingly common case is "no keyword present"), falling back to
  an ordered ``(rule_index, keyword)`` scan only on a prefilter hit;
- **URL prefixes** — bucketed by the prefix's host component (everything up
  to the first ``/``), with partial-host prefixes kept on a small ordered
  fallback list and scheme-prefix pathologies (``"http:"`` matching every
  URL through the ``http://`` + url retry) folded into a universal index.

First-match-wins is preserved exactly: every structure stores *rule
indexes*, each stage gathers the best (smallest) index over all criterion
hits, and the verdict of that rule is returned — identical to scanning the
rules in order and returning the first match.  That scan is kept as the
executable spec in ``tests/_reference_policy.py``, and
``tests/test_compiled_policy.py`` asserts identical verdicts against it on
the Pakistan case-study world and adversarial rule lists.

Instances are immutable snapshots.  :meth:`CensorPolicy.compiled` rebuilds
one transparently whenever ``add_rule`` / ``remove_rules`` bumps the
policy's version counter.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .actions import (
    PASS_DNS,
    PASS_HTTP,
    PASS_IP,
    PASS_TLS,
    DnsVerdict,
    HttpVerdict,
    IpVerdict,
    TlsVerdict,
)
from .policy import Rule

__all__ = ["CompiledPolicy"]

_NO_MATCH = 1 << 60  # sentinel rule index: larger than any real index


def _label_suffixes(hostname: str):
    """All label-aligned suffixes of a hostname, longest first.

    "www.foo.com" -> "www.foo.com", "foo.com", "com".  Used for O(#labels)
    set-lookup domain matching (blocklists hold hundreds of domains, and
    the middlebox consults them on every DNS/HTTP/TLS stage).
    """
    hostname = hostname.lower().rstrip(".")
    labels = hostname.split(".")
    for start in range(len(labels)):
        yield ".".join(labels[start:])


def _keyword_engine(keywords: List[Tuple[int, str]]):
    """Build the combined-regex prefilter for an ordered keyword list."""
    if not keywords:
        return None
    pattern = re.compile("|".join(re.escape(k) for _i, k in keywords))
    return pattern


class CompiledPolicy:
    """Per-stage hash indexes over an ordered rule list (see module doc)."""

    __slots__ = (
        "rules",
        "_dns_domains",
        "_ip_ips",
        "_http_domains",
        "_http_keywords",
        "_http_kw_re",
        "_http_prefix_buckets",
        "_http_prefix_fallback",
        "_http_universal",
        "_tls_domains",
        "_tls_ips",
        "_tls_keywords",
        "_tls_kw_re",
    )

    def __init__(self, rules: Sequence[Rule]):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        dns_domains: Dict[str, int] = {}
        ip_ips: Dict[str, int] = {}
        http_domains: Dict[str, int] = {}
        http_keywords: List[Tuple[int, str]] = []
        http_prefix_buckets: Dict[str, List[Tuple[int, str]]] = {}
        http_prefix_fallback: List[Tuple[int, str]] = []
        http_universal = _NO_MATCH
        tls_domains: Dict[str, int] = {}
        tls_ips: Dict[str, int] = {}
        tls_keywords: List[Tuple[int, str]] = []

        def route_prefix(index: int, prefix: str) -> None:
            # Bucket by the text up to the first "/": url.startswith(p)
            # with "/" in p implies the url's first "/" aligns with p's.
            if "/" in prefix:
                bucket = prefix.split("/", 1)[0]
                http_prefix_buckets.setdefault(bucket, []).append(
                    (index, prefix)
                )
            else:
                http_prefix_fallback.append((index, prefix))

        for index, rule in enumerate(self.rules):
            matcher = rule.matcher
            if rule.dns is not PASS_DNS:
                for domain in matcher.domains:
                    dns_domains.setdefault(domain, index)
            if rule.ip is not PASS_IP:
                for ip in matcher.ips:
                    ip_ips.setdefault(ip, index)
            if rule.http is not PASS_HTTP:
                for domain in matcher.domains:
                    http_domains.setdefault(domain, index)
                for keyword in sorted(matcher.keywords):
                    http_keywords.append((index, keyword))
                for prefix in sorted(matcher.url_prefixes):
                    if "http://".startswith(prefix):
                        # A prefix of the scheme itself matches every URL
                        # via the URL matcher's "http://" + url retry
                        # (tests/_reference_policy.py::matches_url).
                        http_universal = min(http_universal, index)
                        continue
                    route_prefix(index, prefix)
                    if prefix.startswith("http://"):
                        # The retry strips the scheme before comparing.
                        route_prefix(index, prefix[7:])
            if rule.tls is not PASS_TLS:
                for domain in matcher.domains:
                    tls_domains.setdefault(domain, index)
                for keyword in sorted(matcher.keywords):
                    tls_keywords.append((index, keyword))
                for ip in matcher.ips:
                    tls_ips.setdefault(ip, index)

        http_keywords.sort()
        tls_keywords.sort()
        for bucket_rules in http_prefix_buckets.values():
            bucket_rules.sort()
        http_prefix_fallback.sort()

        self._dns_domains = dns_domains
        self._ip_ips = ip_ips
        self._http_domains = http_domains
        self._http_keywords = http_keywords
        self._http_kw_re = _keyword_engine(http_keywords)
        self._http_prefix_buckets = http_prefix_buckets
        self._http_prefix_fallback = http_prefix_fallback
        self._http_universal = http_universal
        self._tls_domains = tls_domains
        self._tls_ips = tls_ips
        self._tls_keywords = tls_keywords
        self._tls_kw_re = _keyword_engine(tls_keywords)

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def _domain_hit(domains: Dict[str, int], hostname: str) -> int:
        best = _NO_MATCH
        if domains:
            get = domains.get
            for suffix in _label_suffixes(hostname):
                index = get(suffix)
                if index is not None and index < best:
                    best = index
        return best

    @staticmethod
    def _keyword_hit(pattern, keywords: List[Tuple[int, str]], text: str) -> int:
        if pattern is not None and pattern.search(text):
            for index, keyword in keywords:
                if keyword in text:
                    return index
        return _NO_MATCH

    # -- stage hooks (mirror the scans in tests/_reference_policy.py) -------

    def on_dns_query(self, qname: str) -> DnsVerdict:
        best = self._domain_hit(self._dns_domains, qname)
        if best is _NO_MATCH:
            return PASS_DNS
        return self.rules[best].dns

    def on_packet(self, dst_ip: str) -> IpVerdict:
        index = self._ip_ips.get(dst_ip)
        if index is None:
            return PASS_IP
        return self.rules[index].ip

    def on_http_request(self, host: str, path: str) -> HttpVerdict:
        url = f"{host}{path}".lower()
        best = self._http_universal
        hit = self._domain_hit(self._http_domains, host)
        if hit < best:
            best = hit
        hit = self._keyword_hit(self._http_kw_re, self._http_keywords, url)
        if hit < best:
            best = hit
        if self._http_prefix_buckets or self._http_prefix_fallback:
            cut = url.find("/")
            bucket_key = url[:cut] if cut >= 0 else url
            for index, prefix in self._http_prefix_buckets.get(bucket_key, ()):
                if index >= best:
                    break
                if url.startswith(prefix):
                    best = index
                    break
            for index, prefix in self._http_prefix_fallback:
                if index >= best:
                    break
                if url.startswith(prefix):
                    best = index
                    break
        if best == _NO_MATCH:
            return PASS_HTTP
        return self.rules[best].http

    def on_tls_client_hello(
        self, sni: Optional[str], dst_ip: str
    ) -> TlsVerdict:
        best = _NO_MATCH
        if sni is not None:
            best = self._domain_hit(self._tls_domains, sni)
            hit = self._keyword_hit(
                self._tls_kw_re, self._tls_keywords, sni.lower()
            )
            if hit < best:
                best = hit
        index = self._tls_ips.get(dst_ip)
        if index is not None and index < best:
            best = index
        if best == _NO_MATCH:
            return PASS_TLS
        return self.rules[best].tls

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledPolicy({len(self.rules)} rules, "
            f"{len(self._dns_domains)} dns domains, "
            f"{len(self._ip_ips)} ips)"
        )
