"""On-path censor middlebox.

One middlebox per censoring AS.  It wraps a :class:`CensorPolicy` and keeps
an audit log of every non-PASS interception, which the analysis code uses to
build Figure-2-style distributions of blocking types and to validate what
C-Saw's detector inferred against what the censor actually did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .actions import (
    PASS_DNS,
    PASS_HTTP,
    PASS_IP,
    PASS_TLS,
    DnsAction,
    DnsVerdict,
    HttpAction,
    HttpVerdict,
    IpAction,
    IpVerdict,
    TlsAction,
    TlsVerdict,
)
from .policy import CensorPolicy

__all__ = ["InterceptionEvent", "Middlebox"]


@dataclass(frozen=True)
class InterceptionEvent:
    """One enforcement action taken by the censor."""

    time: float
    stage: str  # "dns" | "ip" | "http" | "tls"
    identifier: str  # qname, dst ip, url, or sni
    action: str
    src_ip: str = ""  # which subscriber hit the filter


@dataclass(frozen=True)
class FlowObservation:
    """One flow the censor saw (collected only when surveillance is on)."""

    time: float
    src_ip: str
    dst_ip: str


@dataclass
class Middlebox:
    """Policy enforcement point on the path through one AS.

    With ``observe_traffic`` enabled the box additionally keeps a log of
    *every* connection (not just blocked ones) — the raw material for the
    fingerprinting analysis of §8.
    """

    policy: CensorPolicy
    asn: int
    log: List[InterceptionEvent] = field(default_factory=list)
    enabled: bool = True
    observe_traffic: bool = False
    flows: List[FlowObservation] = field(default_factory=list)

    def _record(
        self, time: float, stage: str, identifier: str, action: str, src_ip: str
    ) -> None:
        self.log.append(InterceptionEvent(time, stage, identifier, action, src_ip))

    def observe_flow(self, time: float, src_ip: str, dst_ip: str) -> None:
        if self.enabled and self.observe_traffic:
            self.flows.append(FlowObservation(time, src_ip, dst_ip))

    def dns_query(self, time: float, qname: str, src_ip: str = "") -> DnsVerdict:
        if not self.enabled:
            return PASS_DNS
        verdict = self.policy.compiled().on_dns_query(qname)
        if verdict.action is not DnsAction.PASS:
            self._record(time, "dns", qname, verdict.action.value, src_ip)
        return verdict

    def packet(self, time: float, dst_ip: str, src_ip: str = "") -> IpVerdict:
        if not self.enabled:
            return PASS_IP
        verdict = self.policy.compiled().on_packet(dst_ip)
        if verdict.action is not IpAction.PASS:
            self._record(time, "ip", dst_ip, verdict.action.value, src_ip)
        return verdict

    def http_request(
        self, time: float, host: str, path: str, src_ip: str = ""
    ) -> HttpVerdict:
        if not self.enabled:
            return PASS_HTTP
        verdict = self.policy.compiled().on_http_request(host, path)
        if verdict.action is not HttpAction.PASS:
            self._record(time, "http", f"{host}{path}", verdict.action.value, src_ip)
        return verdict

    def tls_client_hello(
        self, time: float, sni: Optional[str], dst_ip: str, src_ip: str = ""
    ) -> TlsVerdict:
        if not self.enabled:
            return PASS_TLS
        verdict = self.policy.compiled().on_tls_client_hello(sni, dst_ip)
        if verdict.action is not TlsAction.PASS:
            self._record(time, "tls", sni or dst_ip, verdict.action.value, src_ip)
        return verdict
