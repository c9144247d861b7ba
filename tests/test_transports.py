"""Tests for the circumvention transports against censoring ISPs."""

import pytest

from repro.censor.actions import IpAction, IpVerdict, TlsAction, TlsVerdict
from repro.censor.policy import Matcher, Rule
from repro.circumvent import (
    DirectTransport,
    DomainFrontingTransport,
    HttpsTransport,
    IpAsHostnameTransport,
    LanternSystem,
    PublicDnsTransport,
)
from repro.scenarios.library import FRONT, PORN_SITE, YOUTUBE
from repro.workloads.scenarios import pakistan_case_study


@pytest.fixture()
def scenario():
    return pakistan_case_study(seed=33, with_proxy_fleet=False)


def make_ctx(scenario, isp, name):
    world = scenario.world
    client, access = world.add_client(name, [isp])
    return world.new_ctx(client, access, stream=f"t/{name}")


def fetch(scenario, transport, ctx, url):
    world = scenario.world
    return world.run_process(transport.fetch(world, ctx, url))


class TestDirect:
    def test_unblocked_succeeds(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_a, "d1")
        result = fetch(
            scenario, DirectTransport(), ctx, scenario.urls["small-unblocked"]
        )
        assert result.ok
        assert result.response.size_bytes == 95_000

    def test_blocked_gets_blockpage_via_redirect(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_a, "d2")
        result = fetch(scenario, DirectTransport(), ctx, scenario.urls["youtube"])
        # The fetch "succeeds" — with the censor's block page: the injected
        # 302 sits in the redirect chain, the final 200 is the block page.
        assert result.ok
        assert any(r.injected for r in result.redirects)
        assert result.response.size_bytes < 5_000

    def test_multistage_block_fails(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_b, "d3")
        result = fetch(scenario, DirectTransport(), ctx, scenario.urls["youtube"])
        # The forged DNS answer points into private space with no listener:
        # a naive client stalls out in the TCP handshake.
        assert result.failed
        assert result.failure_stage == "tcp"


class TestLocalFixes:
    def test_https_defeats_http_blocking(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_a, "h1")
        result = fetch(scenario, HttpsTransport(), ctx, scenario.urls["youtube"])
        assert result.ok
        assert not result.response.injected
        assert result.response.size_bytes == 360_000

    def test_https_fails_on_isp_b(self, scenario):
        # ISP-B tampers with DNS before TLS ever starts, so the HTTPS fix
        # dies in the handshake to the forged address.
        ctx = make_ctx(scenario, scenario.isp_b, "h2")
        result = fetch(scenario, HttpsTransport(), ctx, scenario.urls["youtube"])
        assert result.failed
        assert result.failure_stage == "tcp"

    def test_https_fix_blocked_by_pure_sni_filter(self, scenario):
        # With honest DNS but an SNI filter, the HTTPS fix dies at TLS.
        world = scenario.world
        world.web.add_site("sni-blocked.example", location="us-east")
        world.web.add_page("http://sni-blocked.example/", size_bytes=10_000)
        policy = world.network.ases[scenario.isp_a.asn].censor.policy
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"sni-blocked.example"}),
                tls=TlsVerdict(TlsAction.DROP),
            )
        )
        ctx = make_ctx(scenario, scenario.isp_a, "h3")
        result = fetch(
            scenario, HttpsTransport(), ctx, "http://sni-blocked.example/"
        )
        assert result.failed
        assert result.failure_stage == "tls"

    def test_public_dns_defeats_resolver_tampering(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_b, "p1")
        # ISP-B redirects YouTube DNS but also drops HTTP: public DNS alone
        # fixes resolution yet the GET still dies -> combined failure.
        result = fetch(
            scenario, PublicDnsTransport(), ctx, scenario.urls["youtube"]
        )
        assert result.failed
        assert result.failure_stage == "http"

    def test_fronting_defeats_multistage(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_b, "f1")
        transport = DomainFrontingTransport(FRONT)
        assert transport.available_for(scenario.world, scenario.urls["youtube"])
        result = fetch(scenario, transport, ctx, scenario.urls["youtube"])
        assert result.ok
        assert result.response.size_bytes == 360_000

    def test_fronting_unavailable_without_backend_support(self, scenario):
        transport = DomainFrontingTransport(FRONT)
        assert not transport.available_for(
            scenario.world, scenario.urls["small-unblocked"]
        )

    def test_ip_as_hostname_defeats_keyword_filter(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_a, "i1")
        transport = IpAsHostnameTransport()
        result = fetch(scenario, transport, ctx, scenario.urls["porn"])
        assert result.ok
        assert result.response.size_bytes == 50_000

    def test_ip_as_hostname_fails_against_ip_blacklist(self, scenario):
        world = scenario.world
        porn_ip = world.network.hosts_by_name[PORN_SITE].ip
        policy = world.network.ases[scenario.isp_a.asn].censor.policy
        policy.add_rule(
            Rule(matcher=Matcher(ips={porn_ip}), ip=IpVerdict(IpAction.DROP))
        )
        ctx = make_ctx(scenario, scenario.isp_a, "i2")
        result = fetch(scenario, IpAsHostnameTransport(), ctx, scenario.urls["porn"])
        assert result.failed
        assert result.failure_stage == "tcp"

    def test_learned_ip_is_used(self, scenario):
        # The address is learned out of band, from the authoritative
        # record, not from a resolution through the censor.
        world = scenario.world
        ctx = make_ctx(scenario, scenario.isp_a, "i3")
        result = fetch(scenario, IpAsHostnameTransport(), ctx, scenario.urls["porn"])
        assert result.ok
        assert result.response.server_ip == \
            world.network.authoritative_ips(PORN_SITE)[0]


class TestRelays:
    def test_static_proxy_fetches_blocked_page(self):
        scenario = pakistan_case_study(seed=34, with_proxy_fleet=True)
        ctx = make_ctx(scenario, scenario.isp_b, "sp1")
        proxy = scenario.proxy_transports[1]  # Netherlands
        result = fetch(scenario, proxy, ctx, scenario.urls["youtube"])
        assert result.ok
        assert result.response.size_bytes == 360_000

    def test_tor_fetches_blocked_page(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_b, "t1")
        tor = scenario.tor_transport("t1")
        result = fetch(scenario, tor, ctx, scenario.urls["youtube"])
        assert result.ok

    def test_tor_slower_than_direct(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_a, "t2")
        direct = fetch(
            scenario, DirectTransport(), ctx, scenario.urls["small-unblocked"]
        )
        tor = fetch(
            scenario,
            scenario.tor_transport("t2"),
            ctx,
            scenario.urls["small-unblocked"],
        )
        assert tor.ok and direct.ok
        assert tor.elapsed > direct.elapsed

    def test_tor_circuit_rotation(self, scenario):
        world = scenario.world
        client = scenario.tor.client("rotation-test", rotation_period=600)
        first = client.circuit(world.env.now)
        again = client.circuit(world.env.now + 10)
        assert again is first
        rotated = client.circuit(world.env.now + 700)
        assert rotated is not first
        assert rotated.built_at > first.built_at

    def test_tor_exit_location_pinning(self, scenario):
        client = scenario.tor.client("pin-test", exit_location="germany")
        has_german_exit = any(
            r.location == "germany" for r in scenario.tor.exits
        )
        circuit = client.new_circuit(0.0)
        if has_german_exit:
            assert circuit.exit.location == "germany"

    def test_tor_blocked_entry_fails(self, scenario):
        world = scenario.world
        client = scenario.tor.client("blocked-entry")
        circuit = client.new_circuit(0.0)
        policy = world.network.ases[scenario.isp_b.asn].censor.policy
        policy.add_rule(
            Rule(
                matcher=Matcher(ips={circuit.entry.host.ip}),
                ip=IpVerdict(IpAction.RST),
            )
        )
        from repro.circumvent import TorTransport

        transport = TorTransport(client)
        ctx = make_ctx(scenario, scenario.isp_b, "t3")
        result = fetch(scenario, transport, ctx, scenario.urls["youtube"])
        assert result.failed
        assert result.failure_stage == "tcp"

    def test_lantern_transport_relays(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_b, "l1")
        lantern = scenario.lantern_transport("l1")
        result = fetch(scenario, lantern, ctx, scenario.urls["youtube"])
        assert result.ok

    def test_lantern_system_caches_blocked_hosts(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_a, "l2")
        system = LanternSystem(scenario.lantern_transport("l2"))
        world = scenario.world
        first = world.run_process(
            system.fetch(world, ctx, scenario.urls["youtube"])
        )
        assert first.ok
        assert system._blocked_hosts.get(YOUTUBE)
        t0 = world.env.now
        second = world.run_process(
            system.fetch(world, ctx, scenario.urls["youtube"])
        )
        assert second.ok
        assert second.transport == "lantern"  # straight to the relay

    def test_lantern_system_direct_when_unblocked(self, scenario):
        ctx = make_ctx(scenario, scenario.isp_a, "l3")
        system = LanternSystem(scenario.lantern_transport("l3"))
        result = scenario.world.run_process(
            system.fetch(scenario.world, ctx, scenario.urls["small-unblocked"])
        )
        assert result.ok
        assert result.transport == "lantern-direct"
