"""CompiledPolicy must be observationally identical to the linear rule scan.

The compiled index is a pure performance layer: for every wire observation
it must return the *same verdict object* (``is``-identical, since verdicts
are shared singletons or per-rule instances) that the first-match linear
scan in ``tests/_reference_policy.py`` returns.  These tests drive both paths with a seeded battery of
inputs derived from the Pakistan case-study policies plus adversarial
constructions (mixed case, scheme-prefix pathologies, rule-order ties).
"""

from __future__ import annotations

import random

import pytest

from repro.censor.actions import (
    DnsAction,
    DnsVerdict,
    HttpAction,
    HttpVerdict,
    IpAction,
    IpVerdict,
    TlsAction,
    TlsVerdict,
)
from repro.censor.policy import CensorPolicy, Matcher, Rule
from repro.workloads.scenarios import pakistan_case_study
from tests import _reference_policy as linear


def _policy_vocab(policy):
    """Harvest every identifier the policy's matchers mention."""
    domains, keywords, prefixes, ips = set(), set(), set(), set()
    for rule in policy.rules:
        domains |= rule.matcher.domains
        keywords |= rule.matcher.keywords
        prefixes |= rule.matcher.url_prefixes
        ips |= rule.matcher.ips
    return domains, keywords, prefixes, ips


def _mixed_case(rng, text):
    return "".join(
        ch.upper() if rng.random() < 0.5 else ch.lower() for ch in text
    )


def _input_battery(policy, seed):
    """Positive, negative, and near-miss inputs for every stage."""
    rng = random.Random(seed)
    domains, keywords, prefixes, ips = _policy_vocab(policy)

    qnames = ["unrelated.example.net", "com", ""]
    hosts = ["innocuous.example.org"]
    paths = ["/", "/index.html", "/Watch?v=ABC"]
    snis = [None, "plain.example.org"]
    probe_ips = ["203.0.113.250"]

    for domain in sorted(domains):
        qnames += [
            domain,
            f"www.{domain}",
            _mixed_case(rng, f"CDN.{domain}."),
            f"not{domain}",  # suffix of the string but not label-aligned
            domain.split(".", 1)[-1],  # parent domain: must NOT match
        ]
        hosts += [domain, _mixed_case(rng, f"m.{domain}")]
        snis += [domain, _mixed_case(rng, f"www.{domain}")]
    for keyword in sorted(keywords):
        paths += [
            f"/{keyword}/video",
            f"/{_mixed_case(rng, keyword)}.html",  # MiXeD case must match
            f"/{keyword[:-1]}x" if len(keyword) > 1 else f"/{keyword}z",
        ]
        snis += [f"{keyword}.example.com", _mixed_case(rng, f"x{keyword}y.net")]
    for prefix in sorted(prefixes):
        bare = prefix[7:] if prefix.startswith("http://") else prefix
        if bare:
            if "/" in bare:
                h, _, p = bare.partition("/")
                hosts.append(h)
                paths += ["/" + p, "/" + p + "extra", "/" + p[:-1]]
            else:
                hosts += [bare, bare + ".evil.com"]
    for ip in sorted(ips):
        probe_ips.append(ip)
        probe_ips.append(ip + "9")

    cases = {"dns": [], "ip": [], "http": [], "tls": []}
    for qname in qnames:
        cases["dns"].append((qname,))
    for ip in probe_ips:
        cases["ip"].append((ip,))
    for _ in range(300):
        cases["http"].append((rng.choice(hosts), rng.choice(paths)))
        cases["tls"].append((rng.choice(snis), rng.choice(probe_ips)))
    return cases


def _assert_equivalent(policy, seed=0):
    cases = _input_battery(policy, seed)
    for (qname,) in cases["dns"]:
        assert policy.on_dns_query(qname) is \
            linear.on_dns_query(policy, qname), qname
    for (ip,) in cases["ip"]:
        assert policy.on_packet(ip) is linear.on_packet(policy, ip), ip
    for host, path in cases["http"]:
        assert policy.on_http_request(host, path) is \
            linear.on_http_request(policy, host, path), (host, path)
    for sni, ip in cases["tls"]:
        assert policy.on_tls_client_hello(sni, ip) is \
            linear.on_tls_client_hello(policy, sni, ip), (sni, ip)


@pytest.mark.parametrize("isp", ["isp_a", "isp_b"])
def test_pakistan_policies_compiled_matches_linear(isp):
    scenario = pakistan_case_study(seed=7)
    policy = getattr(scenario, isp).censor.policy
    for seed in range(3):
        _assert_equivalent(policy, seed)


def test_multirule_policy_compiled_matches_linear():
    # 200 rules of one domain and one keyword each, so the battery's
    # hits land at every depth of the first-match scan.
    policy = CensorPolicy(name="multirule")
    for i in range(200):
        policy.add_rule(
            Rule(
                matcher=Matcher(
                    domains={f"site{i}.example.com"},
                    keywords={f"badword{i}"},
                ),
                dns=DnsVerdict(DnsAction.NXDOMAIN),
                http=HttpVerdict(HttpAction.DROP),
                label=f"rule{i}",
            )
        )
    _assert_equivalent(policy)


def test_first_match_wins_across_criteria():
    # Rule 0 matches by keyword, rule 1 by (more specific) domain; the
    # linear scan returns rule 0, and so must the index.
    policy = CensorPolicy(
        rules=[
            Rule(
                matcher=Matcher(keywords={"tube"}),
                http=HttpVerdict(HttpAction.DROP),
            ),
            Rule(
                matcher=Matcher(domains={"youtube.com"}),
                http=HttpVerdict(HttpAction.BLOCKPAGE_REDIRECT, blockpage_ip="10.0.0.1"),
            ),
        ]
    )
    assert policy.on_http_request("www.youtube.com", "/") is policy.rules[0].http
    _assert_equivalent(policy)


def test_overlapping_rules_first_match_at_every_stage():
    # Both rules match www.youtube.com (and 10.0.0.9) at every stage: the
    # first rule's verdict wins at each one, not the more specific rule's.
    first = Rule(
        matcher=Matcher(domains={"youtube.com"}, ips={"10.0.0.9"}),
        dns=DnsVerdict(DnsAction.NXDOMAIN),
        ip=IpVerdict(IpAction.DROP),
        http=HttpVerdict(HttpAction.DROP),
        tls=TlsVerdict(TlsAction.DROP),
    )
    second = Rule(
        matcher=Matcher(domains={"www.youtube.com"}, ips={"10.0.0.9"}),
        dns=DnsVerdict(DnsAction.SERVFAIL),
        ip=IpVerdict(IpAction.RST),
        http=HttpVerdict(HttpAction.RST),
        tls=TlsVerdict(TlsAction.RST),
    )
    policy = CensorPolicy(rules=[first, second])
    assert policy.on_dns_query("www.youtube.com") is first.dns
    assert policy.on_packet("10.0.0.9") is first.ip
    assert policy.on_http_request("www.youtube.com", "/") is first.http
    assert policy.on_tls_client_hello("www.youtube.com", "10.0.0.1") is first.tls
    _assert_equivalent(policy)


def test_scheme_prefix_pathologies():
    # The linear scan retries with "http://" + url, so a prefix that is
    # itself a prefix of "http://" matches *every* URL, and a full
    # "http://host/path" prefix matches scheme-lessly.
    policy = CensorPolicy(
        rules=[
            Rule(
                matcher=Matcher(url_prefixes={"http://evil.com/bad"}),
                http=HttpVerdict(HttpAction.DROP),
            ),
            Rule(
                matcher=Matcher(url_prefixes={"htt"}),
                http=HttpVerdict(HttpAction.RST),
            ),
            Rule(
                matcher=Matcher(url_prefixes={"nohost"}),
                http=HttpVerdict(HttpAction.BLOCKPAGE_REDIRECT, blockpage_ip="10.0.0.1"),
            ),
        ]
    )
    assert policy.on_http_request("evil.com", "/bad/page") is policy.rules[0].http
    assert policy.on_http_request("anything.net", "/x") is policy.rules[1].http
    _assert_equivalent(policy)


def test_mixed_case_path_hits_keyword_rule():
    # Satellite fix: a MiXeD-case path must not dodge keyword matching.
    policy = CensorPolicy(
        rules=[
            Rule(
                matcher=Matcher(keywords={"porn"}),
                http=HttpVerdict(HttpAction.DROP),
            )
        ]
    )
    verdict = policy.on_http_request("cdn.example.com", "/PoRn/clip.mp4")
    assert verdict.action is HttpAction.DROP
    assert linear.on_http_request(policy, "cdn.example.com", "/PoRn/clip.mp4") \
        is verdict


def test_rule_domain_with_trailing_dot_matches():
    # A rule domain written fully qualified ("YouTube.com.") is stored as
    # "youtube.com", the form every observed name is compared in.
    policy = CensorPolicy(
        rules=[
            Rule(
                matcher=Matcher(domains={"YouTube.com."}),
                dns=DnsVerdict(DnsAction.NXDOMAIN),
                http=HttpVerdict(HttpAction.DROP),
                tls=TlsVerdict(TlsAction.DROP),
            )
        ]
    )
    rule = policy.rules[0]
    for name, blocked in (
        ("youtube.com", True), ("www.youtube.com.", True),
        ("notyoutube.com", False),
    ):
        assert (policy.on_dns_query(name) is rule.dns) is blocked, name
        assert (policy.on_http_request(name, "/") is rule.http) is blocked, name
        assert (
            policy.on_tls_client_hello(name, "203.0.113.9") is rule.tls
        ) is blocked, name
    _assert_equivalent(policy)


def test_add_and_remove_rules_invalidate_compiled_index():
    policy = CensorPolicy(name="mutating")
    policy.add_rule(
        Rule(
            matcher=Matcher(domains={"a.com"}),
            dns=DnsVerdict(DnsAction.NXDOMAIN),
            label="first",
        )
    )
    first = policy.compiled()
    assert policy.on_dns_query("www.a.com").action is DnsAction.NXDOMAIN
    assert policy.on_dns_query("www.b.com").action is DnsAction.PASS

    policy.add_rule(
        Rule(
            matcher=Matcher(domains={"b.com"}, ips={"1.2.3.4"}),
            dns=DnsVerdict(DnsAction.SERVFAIL),
            ip=IpVerdict(IpAction.DROP),
            tls=TlsVerdict(TlsAction.DROP),
            label="second",
        )
    )
    assert policy.compiled() is not first  # rebuilt after add_rule
    assert policy.on_dns_query("www.b.com").action is DnsAction.SERVFAIL
    assert policy.on_packet("1.2.3.4").action is IpAction.DROP
    assert policy.on_tls_client_hello(None, "1.2.3.4").action is TlsAction.DROP
    _assert_equivalent(policy)

    policy.remove_rules("second")
    assert policy.on_dns_query("www.b.com").action is DnsAction.PASS
    assert policy.on_packet("1.2.3.4").action is IpAction.PASS
    assert policy.compiled() is policy.compiled()  # stable while unchanged


def test_empty_policy_passes_everything():
    policy = CensorPolicy(name="empty")
    assert policy.on_dns_query("x.com").action is DnsAction.PASS
    assert policy.on_packet("9.9.9.9").action is IpAction.PASS
    assert policy.on_http_request("x.com", "/").action is HttpAction.PASS
    assert policy.on_tls_client_hello("x.com", "9.9.9.9").action is TlsAction.PASS
