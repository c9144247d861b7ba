"""On-path censor middlebox.

One middlebox per censoring AS.  It wraps a :class:`CensorPolicy` and
answers each protocol stage's query with a verdict.  Under surveillance
(``observe_traffic``) it also logs every flow and every non-PASS
interception — the censor's own record, which §8's fingerprinting
analysis (:mod:`repro.censor.fingerprint`) reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .actions import (
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

    With ``observe_traffic`` enabled the box keeps a log of *every*
    connection (``flows``) and of every enforcement action (``log``) —
    the raw material for the fingerprinting analysis of §8.  Without it,
    both stay empty.
    """

    policy: CensorPolicy
    asn: int
    log: List[InterceptionEvent] = field(default_factory=list)
    observe_traffic: bool = False
    flows: List[FlowObservation] = field(default_factory=list)

    def _record(
        self, time: float, stage: str, identifier: str, action: str, src_ip: str
    ) -> None:
        self.log.append(InterceptionEvent(time, stage, identifier, action, src_ip))

    def observe_flow(self, time: float, src_ip: str, dst_ip: str) -> None:
        if self.observe_traffic:
            self.flows.append(FlowObservation(time, src_ip, dst_ip))

    def dns_query(self, time: float, qname: str, src_ip: str = "") -> DnsVerdict:
        verdict = self.policy.compiled().on_dns_query(qname)
        if self.observe_traffic and verdict.action is not DnsAction.PASS:
            self._record(time, "dns", qname, verdict.action.value, src_ip)
        return verdict

    def packet(self, time: float, dst_ip: str, src_ip: str = "") -> IpVerdict:
        verdict = self.policy.compiled().on_packet(dst_ip)
        if self.observe_traffic and verdict.action is not IpAction.PASS:
            self._record(time, "ip", dst_ip, verdict.action.value, src_ip)
        return verdict

    def http_request(
        self, time: float, host: str, path: str, src_ip: str = ""
    ) -> HttpVerdict:
        verdict = self.policy.compiled().on_http_request(host, path)
        if self.observe_traffic and verdict.action is not HttpAction.PASS:
            self._record(time, "http", f"{host}{path}", verdict.action.value, src_ip)
        return verdict

    def tls_client_hello(
        self, time: float, sni: Optional[str], dst_ip: str, src_ip: str = ""
    ) -> TlsVerdict:
        verdict = self.policy.compiled().on_tls_client_hello(sni, dst_ip)
        if self.observe_traffic and verdict.action is not TlsAction.PASS:
            self._record(time, "tls", sni or dst_ip, verdict.action.value, src_ip)
        return verdict
