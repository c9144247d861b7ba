"""Censor policies: what an ISP blocks and how.

A :class:`CensorPolicy` is an ordered list of :class:`Rule` objects, first
match wins — the structure of a commercial filtering appliance.  Each rule
couples a *matcher* over wire-visible identifiers (query names, destination
IPs, cleartext URLs, SNI values) with per-stage verdicts, so multi-stage
blocking (the paper's ISP-B: DNS blocking *and* HTTP/HTTPS drops) is one
rule carrying several verdicts.

Distributed censorship (§2) is expressed by giving every AS its own policy;
centralized censorship by sharing one policy object among ASes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

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

__all__ = ["Matcher", "Rule", "CensorPolicy"]


@dataclass
class Matcher:
    """Criteria over the identifiers visible at each interception stage.

    Empty criteria never match; a matcher must set at least one of them.
    ``domains`` are stored lowercased without a trailing dot, the form
    ``compiled._label_suffixes`` gives every observed name.  ``keywords``
    match anywhere in the cleartext URL (HTTP stage only), mirroring
    keyword filters that the IP-as-hostname trick evades.  The policy
    matches through its compiled per-stage indexes
    (:mod:`repro.censor.compiled`); the per-rule predicates are the
    executable spec in ``tests/_reference_policy.py``.
    """

    domains: Set[str] = field(default_factory=set)
    keywords: Set[str] = field(default_factory=set)
    url_prefixes: Set[str] = field(default_factory=set)
    ips: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.domains = {d.lower().rstrip(".") for d in self.domains}
        self.keywords = {k.lower() for k in self.keywords}
        self.url_prefixes = {p.lower() for p in self.url_prefixes}
        if not (self.domains or self.keywords or self.url_prefixes or self.ips):
            raise ValueError("matcher needs at least one criterion")


@dataclass
class Rule:
    """Matcher plus the verdicts applied at each stage it intercepts."""

    matcher: Matcher
    dns: DnsVerdict = PASS_DNS
    ip: IpVerdict = PASS_IP
    http: HttpVerdict = PASS_HTTP
    tls: TlsVerdict = PASS_TLS
    label: str = ""


class CensorPolicy:
    """Ordered rule set consulted by the protocol layers.

    The methods return the *verdict* for a given wire observation; PASS
    verdicts mean "not this rule's business".  First matching rule wins.

    The stage hooks (``on_dns_query`` & co.) are served by a compiled
    per-stage hash index (:class:`~repro.censor.compiled.CompiledPolicy`)
    that is rebuilt transparently whenever ``add_rule``/``remove_rules``
    changes the rule list.  The first-match rule scan it must reproduce
    lives in ``tests/_reference_policy.py``; the property tests assert
    the two return identical verdict objects.  Mutating a
    :class:`Matcher`'s criterion sets in place after the rule was added
    is NOT supported — go through ``add_rule``/``remove_rules``.
    """

    def __init__(self, rules: Optional[Iterable[Rule]] = None, name: str = ""):
        self.name = name
        self.rules: List[Rule] = list(rules or [])
        self._version = 0
        self._compiled = None
        self._compiled_version = -1

    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)
        self._version += 1

    def remove_rules(self, label: str) -> int:
        """Drop all rules carrying ``label``; returns how many were removed."""
        before = len(self.rules)
        self.rules = [r for r in self.rules if r.label != label]
        self._version += 1
        return before - len(self.rules)

    def compiled(self):
        """The current :class:`CompiledPolicy` snapshot (rebuilt on change)."""
        if self._compiled is None or self._compiled_version != self._version:
            from .compiled import CompiledPolicy  # deferred: avoids cycle

            self._compiled = CompiledPolicy(self.rules)
            self._compiled_version = self._version
        return self._compiled

    # -- stage hooks --------------------------------------------------------

    def on_dns_query(self, qname: str) -> DnsVerdict:
        return self.compiled().on_dns_query(qname)

    def on_packet(self, dst_ip: str) -> IpVerdict:
        return self.compiled().on_packet(dst_ip)

    def on_http_request(self, host: str, path: str) -> HttpVerdict:
        return self.compiled().on_http_request(host, path)

    def on_tls_client_hello(self, sni: Optional[str], dst_ip: str) -> TlsVerdict:
        return self.compiled().on_tls_client_hello(sni, dst_ip)

    def __repr__(self) -> str:
        return f"CensorPolicy({self.name!r}, {len(self.rules)} rules)"
