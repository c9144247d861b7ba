"""Tests for censor matchers, policies, and middleboxes."""

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
from repro.censor.middlebox import Middlebox
from repro.censor.policy import CensorPolicy, Matcher, Rule
from tests._reference_policy import (
    matches_ip,
    matches_qname,
    matches_sni,
    matches_url,
)


class TestMatcher:
    def test_domain_suffix_matching(self):
        matcher = Matcher(domains={"youtube.com"})
        assert matches_qname(matcher, "youtube.com")
        assert matches_qname(matcher, "www.youtube.com")
        assert matches_qname(matcher, "m.youtube.com.")
        assert not matches_qname(matcher, "notyoutube.com")
        assert not matches_qname(matcher, "youtube.com.evil.net")

    def test_keyword_matching_in_url(self):
        matcher = Matcher(keywords={"porn"})
        assert matches_url(matcher, "www.pornsite.com", "/")
        assert matches_url(matcher, "www.foo.com", "/porn/videos")
        assert not matches_url(matcher, "www.foo.com", "/recipes")

    def test_ip_matching(self):
        matcher = Matcher(ips={"1.2.3.4"})
        assert matches_ip(matcher, "1.2.3.4")
        assert not matches_ip(matcher, "1.2.3.5")

    def test_sni_matching(self):
        matcher = Matcher(domains={"youtube.com"}, keywords={"tube"})
        assert matches_sni(matcher, "www.youtube.com")
        assert matches_sni(matcher, "tube-mirror.net")
        assert not matches_sni(matcher, None)
        assert not matches_sni(matcher, "example.com")

    def test_empty_matcher_rejected(self):
        with pytest.raises(ValueError):
            Matcher()

    def test_case_insensitive(self):
        matcher = Matcher(domains={"YouTube.COM"})
        assert matches_qname(matcher, "WWW.YOUTUBE.com")


class TestCensorPolicy:
    def make_policy(self):
        policy = CensorPolicy(name="test")
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"blocked.example"}),
                dns=DnsVerdict(DnsAction.NXDOMAIN),
                http=HttpVerdict(HttpAction.DROP),
                label="multi",
            )
        )
        policy.add_rule(
            Rule(
                matcher=Matcher(ips={"9.9.9.9"}),
                ip=IpVerdict(IpAction.RST),
                label="ip-rule",
            )
        )
        return policy

    def test_first_match_wins(self):
        policy = CensorPolicy()
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"x.example"}),
                dns=DnsVerdict(DnsAction.NXDOMAIN),
            )
        )
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"x.example"}),
                dns=DnsVerdict(DnsAction.SERVFAIL),
            )
        )
        assert policy.on_dns_query("x.example").action is DnsAction.NXDOMAIN

    def test_pass_when_no_match(self):
        policy = self.make_policy()
        assert policy.on_dns_query("fine.example").action is DnsAction.PASS
        assert policy.on_packet("8.8.8.8").action is IpAction.PASS
        assert policy.on_http_request("fine.example", "/").action is HttpAction.PASS
        assert policy.on_tls_client_hello("fine.example", "8.8.8.8").action is TlsAction.PASS

    def test_stage_specific_verdicts(self):
        policy = self.make_policy()
        assert policy.on_dns_query("www.blocked.example").action is DnsAction.NXDOMAIN
        assert policy.on_http_request("blocked.example", "/x").action is HttpAction.DROP
        assert policy.on_packet("9.9.9.9").action is IpAction.RST
        # The domain rule has no TLS verdict.
        assert (
            policy.on_tls_client_hello("blocked.example", "1.1.1.1").action
            is TlsAction.PASS
        )

    def test_tls_matches_on_ip_too(self):
        policy = CensorPolicy()
        policy.add_rule(
            Rule(
                matcher=Matcher(ips={"5.5.5.5"}),
                tls=TlsVerdict(TlsAction.RST),
            )
        )
        assert policy.on_tls_client_hello(None, "5.5.5.5").action is TlsAction.RST

    def test_remove_rules_by_label(self):
        policy = self.make_policy()
        assert policy.remove_rules("multi") == 1
        assert policy.on_dns_query("blocked.example").action is DnsAction.PASS

    def test_redirect_verdict_requires_ip(self):
        with pytest.raises(ValueError):
            DnsVerdict(DnsAction.REDIRECT)

    def test_blockpage_verdict_requires_ip(self):
        with pytest.raises(ValueError):
            HttpVerdict(HttpAction.BLOCKPAGE_REDIRECT)

    def test_dns_scope_validation(self):
        with pytest.raises(ValueError):
            DnsVerdict(DnsAction.NXDOMAIN, scope="bogus")


class TestMiddlebox:
    def test_logs_only_enforcement(self):
        policy = CensorPolicy()
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"bad.example"}),
                dns=DnsVerdict(DnsAction.SERVFAIL),
            )
        )
        box = Middlebox(policy=policy, asn=1)
        box.dns_query(1.0, "good.example")
        assert len(box.log) == 0
        box.dns_query(2.0, "bad.example")
        assert len(box.log) == 1
        event = box.log[0]
        assert event.stage == "dns"
        assert event.identifier == "bad.example"
        assert event.action == "servfail"
        assert event.time == 2.0

    def test_disabled_middlebox_passes_everything(self):
        policy = CensorPolicy()
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"bad.example"}),
                dns=DnsVerdict(DnsAction.SERVFAIL),
                http=HttpVerdict(HttpAction.DROP),
                ip=IpVerdict(IpAction.DROP),
                tls=TlsVerdict(TlsAction.DROP),
            )
        )
        box = Middlebox(policy=policy, asn=1, enabled=False)
        assert box.dns_query(0, "bad.example").action is DnsAction.PASS
        assert box.packet(0, "9.9.9.9").action is IpAction.PASS
        assert box.http_request(0, "bad.example", "/").action is HttpAction.PASS
        assert box.tls_client_hello(0, "bad.example", "1.1.1.1").action is TlsAction.PASS
        assert len(box.log) == 0
