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
from repro.circumvent.base import fetch_pipeline
from repro.simnet.world import World
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
        box = Middlebox(policy=policy, asn=1, observe_traffic=True)
        box.dns_query(1.0, "good.example")
        assert len(box.log) == 0
        box.dns_query(2.0, "bad.example")
        assert len(box.log) == 1
        event = box.log[0]
        assert event.stage == "dns"
        assert event.identifier == "bad.example"
        assert event.action == "servfail"
        assert event.time == 2.0

    def test_log_kept_only_under_surveillance(self):
        """A blocked fetch leaves no interception record unless the box
        observes traffic: §8's fingerprinting is the log's only reader."""
        world = World(seed=5)
        policy = CensorPolicy()
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"bad.example"}),
                dns=DnsVerdict(DnsAction.SERVFAIL),
            )
        )
        isp = world.add_isp(300, "isp", policy=policy)
        world.web.add_site("bad.example", location="us-east")
        world.web.add_page("http://bad.example/", size_bytes=1000)
        client, access = world.add_client("c", [isp])
        box = isp.censor

        def fetch():
            ctx = world.new_ctx(client, access)
            return world.run_process(fetch_pipeline(
                world, ctx, "http://bad.example/", transport_name="direct"
            ))

        assert fetch().failure_stage == "dns"
        assert box.log == []
        box.observe_traffic = True
        assert fetch().failure_stage == "dns"
        assert [(e.stage, e.identifier, e.action) for e in box.log] == [
            ("dns", "bad.example", "servfail")
        ]
