"""First-match rule scans: the executable spec for ``CompiledPolicy``.

The ``matches_*`` predicates say when one rule's :class:`Matcher` fires
at a stage.  Each ``on_*`` scan walks ``policy.rules`` in order and
returns the verdict of the first rule that acts at that stage and whose
matcher fires, else the stage's PASS verdict.  ``CensorPolicy``'s stage hooks answer from the
compiled per-stage index (``repro.censor.compiled``), which must return
the identical verdict object (``tests/test_compiled_policy.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.censor.actions import PASS_DNS, PASS_HTTP, PASS_IP, PASS_TLS
from repro.censor.compiled import _label_suffixes
from repro.censor.policy import CensorPolicy, Matcher


def matches_qname(matcher: Matcher, qname: str) -> bool:
    return any(suffix in matcher.domains for suffix in _label_suffixes(qname))


def matches_ip(matcher: Matcher, ip: str) -> bool:
    return ip in matcher.ips


def matches_sni(matcher: Matcher, sni: Optional[str]) -> bool:
    if sni is None:
        return False
    return matches_qname(matcher, sni) or any(
        k in sni.lower() for k in matcher.keywords
    )


def matches_url(matcher: Matcher, host: str, path: str) -> bool:
    # Lowercase host *and* path once: keyword filters inspect the whole
    # cleartext URL, and a MiXeD-case path must not dodge them.
    url = f"{host}{path}".lower()
    if matches_qname(matcher, host):
        return True
    if any(k in url for k in matcher.keywords):
        return True
    return any(url.startswith(p) or f"http://{url}".startswith(p)
               for p in matcher.url_prefixes)


def on_dns_query(policy: CensorPolicy, qname: str):
    for rule in policy.rules:
        if rule.dns is not PASS_DNS and matches_qname(rule.matcher, qname):
            return rule.dns
    return PASS_DNS


def on_packet(policy: CensorPolicy, dst_ip: str):
    for rule in policy.rules:
        if rule.ip is not PASS_IP and matches_ip(rule.matcher, dst_ip):
            return rule.ip
    return PASS_IP


def on_http_request(policy: CensorPolicy, host: str, path: str):
    for rule in policy.rules:
        if rule.http is not PASS_HTTP and matches_url(rule.matcher, host, path):
            return rule.http
    return PASS_HTTP


def on_tls_client_hello(policy: CensorPolicy, sni: Optional[str], dst_ip: str):
    for rule in policy.rules:
        if rule.tls is not PASS_TLS and (
            matches_sni(rule.matcher, sni) or matches_ip(rule.matcher, dst_ip)
        ):
            return rule.tls
    return PASS_TLS
