"""First-match rule scans: the executable spec for ``CompiledPolicy``.

Each function walks ``policy.rules`` in order and returns the verdict of
the first rule that acts at that stage and whose matcher fires, else the
stage's PASS verdict.  ``CensorPolicy``'s stage hooks answer from the
compiled per-stage index (``repro.censor.compiled``), which must return
the identical verdict object (``tests/test_compiled_policy.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.censor.actions import PASS_DNS, PASS_HTTP, PASS_IP, PASS_TLS
from repro.censor.policy import CensorPolicy


def on_dns_query(policy: CensorPolicy, qname: str):
    for rule in policy.rules:
        if rule.dns is not PASS_DNS and rule.matcher.matches_qname(qname):
            return rule.dns
    return PASS_DNS


def on_packet(policy: CensorPolicy, dst_ip: str):
    for rule in policy.rules:
        if rule.ip is not PASS_IP and rule.matcher.matches_ip(dst_ip):
            return rule.ip
    return PASS_IP


def on_http_request(policy: CensorPolicy, host: str, path: str):
    for rule in policy.rules:
        if rule.http is not PASS_HTTP and rule.matcher.matches_url(host, path):
            return rule.http
    return PASS_HTTP


def on_tls_client_hello(policy: CensorPolicy, sni: Optional[str], dst_ip: str):
    for rule in policy.rules:
        if rule.tls is not PASS_TLS and (
            rule.matcher.matches_sni(sni) or rule.matcher.matches_ip(dst_ip)
        ):
            return rule.tls
    return PASS_TLS
