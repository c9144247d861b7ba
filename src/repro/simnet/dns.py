"""Simulated DNS: recursive resolvers, public resolvers, and tampering.

The timing constants are calibrated against Table 5 of the paper:

- ``REFUSED`` answers come back in one resolver round trip (~25 ms);
- ``SERVFAIL`` answers take ``SERVFAIL_DELAY`` at the resolver (its own
  recursion timing out) plus a round trip, and the stub retries once
  (``SERVFAIL_ATTEMPTS``), landing near the paper's 10.6 s;
- silently dropped queries ("No DNS" in Figure 2) burn the stub's full
  retry schedule (``TIMEOUT_ATTEMPTS`` × ``QUERY_TIMEOUT``) before
  :class:`DnsTimeout` is raised.

Censorship applies per the verdict's *scope*: ``resolver`` rules only bite
when the client queries the censoring ISP's own resolver (so a public DNS
server is a valid local-fix), ``path`` rules bite on any resolver queried
through that ISP (on-path injection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..censor.actions import DnsAction
from .engine import Environment
from .flow import FlowContext
from .topology import Host, Network

__all__ = [
    "DnsError",
    "DnsTimeout",
    "NxDomain",
    "ServFail",
    "Refused",
    "Resolver",
    "resolve",
]


class DnsError(Exception):
    """Base class for resolution failures."""

    kind = "dns-error"

    def __init__(self, qname: str, detail: str = ""):
        super().__init__(f"{self.kind}: {qname} {detail}".rstrip())
        self.qname = qname
        self.detail = detail


class DnsTimeout(DnsError):
    kind = "dns-timeout"


class NxDomain(DnsError):
    kind = "nxdomain"


class ServFail(DnsError):
    kind = "servfail"


class Refused(DnsError):
    kind = "refused"


# Stub-resolver timing (Table 5).
QUERY_TIMEOUT = 5.0  # per attempt, for silently dropped queries
TIMEOUT_ATTEMPTS = 2
SERVFAIL_DELAY = 5.25  # resolver-side recursion stall
SERVFAIL_ATTEMPTS = 2
CACHE_HIT_PROBABILITY = 0.7
RECURSION_DELAY = 0.06  # cache-miss upstream walk
HOLD_ON_MARGIN = 0.15  # Hold-On's wait past the expected RTT


@dataclass
class Resolver:
    """A recursive resolver endpoint.

    ``kind`` is ``"isp"`` (the censoring ISP's own, subject to
    resolver-scope tampering) or ``"public"`` (e.g. 8.8.8.8, only subject
    to on-path tampering).
    """

    host: Host
    kind: str = "isp"
    asn: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("isp", "public"):
            raise ValueError(f"unknown resolver kind: {self.kind!r}")


def _verdict_applies(resolver: Resolver, ctx: FlowContext, verdict) -> bool:
    if verdict.scope == "path":
        return True
    return resolver.kind == "isp" and resolver.asn == ctx.isp.asn


def resolve(
    env: Environment,
    network: Network,
    ctx: FlowContext,
    qname: str,
    resolver: Resolver,
    hold_on: bool = False,
) -> Generator:
    """Process: resolve ``qname`` via ``resolver``; yields, returns IPs.

    Raises :class:`DnsTimeout`, :class:`NxDomain`, :class:`ServFail`, or
    :class:`Refused` on failure.

    ``hold_on`` enables the Hold-On defence against on-path injection
    *races* (a forged reply racing the genuine one): the stub waits out
    the expected-resolution window and keeps the later, legitimate reply.
    It costs a little extra latency on every resolution, which is why it
    is a targeted local fix rather than the default.
    """
    latency = network.latency_between(ctx.client, resolver.host)
    middlebox = ctx.middlebox

    verdict = None
    if middlebox is not None:
        candidate = middlebox.dns_query(env.now, qname, src_ip=ctx.client.ip)
        if candidate.action is not DnsAction.PASS and _verdict_applies(
            resolver, ctx, candidate
        ):
            verdict = candidate

    rtt = latency.sample_rtt(ctx.rng) + ctx.access.access_rtt

    def honest_delay() -> float:
        delay = rtt
        if ctx.rng.random() > CACHE_HIT_PROBABILITY:
            delay += RECURSION_DELAY * ctx.rng.uniform(0.5, 2.0)
        return delay

    if verdict is None:
        # Honest resolution.
        wait = honest_delay()
        if hold_on:
            # Hold-On waits a safety margin past the expected RTT even
            # when nothing races — the defence's standing cost.
            wait += HOLD_ON_MARGIN
        yield env.timeout(wait)
        ips = network.authoritative_ips(qname)
        if not ips:
            raise NxDomain(qname)
        return ips

    if verdict.action is DnsAction.REDIRECT:
        if verdict.injection_race:
            # Forged reply arrives *early* (the injector sits on-path,
            # closer than the resolver); the genuine reply follows.
            forged_at = rtt * ctx.rng.uniform(0.4, 0.7)
            genuine_at = honest_delay()
            if not hold_on:
                yield env.timeout(forged_at)
                return [verdict.redirect_ip]
            yield env.timeout(max(genuine_at, forged_at) + HOLD_ON_MARGIN)
            ips = network.authoritative_ips(qname)
            if not ips:
                raise NxDomain(qname)
            return ips
        yield env.timeout(rtt)
        return [verdict.redirect_ip]

    if verdict.action is DnsAction.NXDOMAIN:
        yield env.timeout(rtt)
        raise NxDomain(qname, "(injected)")

    if verdict.action is DnsAction.REFUSED:
        yield env.timeout(rtt)
        raise Refused(qname)

    if verdict.action is DnsAction.SERVFAIL:
        for _attempt in range(SERVFAIL_ATTEMPTS):
            yield env.timeout(rtt + SERVFAIL_DELAY)
        raise ServFail(qname)

    if verdict.action is DnsAction.TIMEOUT:
        for _attempt in range(TIMEOUT_ATTEMPTS):
            yield env.timeout(QUERY_TIMEOUT)
        raise DnsTimeout(qname)

    raise AssertionError(f"unhandled DNS verdict: {verdict!r}")
