"""Unit tests for transports not covered by the integration suites:
static-proxy fleet construction, Hold-On costs, where the
IP-as-hostname fix learns its address."""

import pytest

from repro.circumvent import (
    HoldOnTransport,
    IpAsHostnameTransport,
    PROXY_FLEET_SPEC,
    build_proxy_fleet,
)
from repro.workloads.scenarios import pakistan_case_study


@pytest.fixture()
def scenario():
    return pakistan_case_study(seed=777, with_proxy_fleet=False)


def make_ctx(scenario, isp, name):
    world = scenario.world
    client, access = world.add_client(name, [isp])
    return world.new_ctx(client, access, stream=f"tu/{name}")


class TestProxyFleet:
    def test_fleet_matches_spec(self, scenario):
        fleet = build_proxy_fleet(scenario.world)
        assert len(fleet) == len(PROXY_FLEET_SPEC)
        labels = {t.proxy_host.tags["label"] for t in fleet}
        assert {"UK", "Japan", "Germany-1", "US-3"} <= labels

    def test_congested_proxies_carry_jitter(self, scenario):
        fleet = build_proxy_fleet(scenario.world)
        by_label = {t.proxy_host.tags["label"]: t.proxy_host for t in fleet}
        assert by_label["Germany-1"].jitter_sigma > by_label["Germany-2"].jitter_sigma
        assert by_label["UK"].extra_rtt > by_label["Netherlands"].extra_rtt


class TestHoldOnCosts:
    def test_hold_on_adds_margin_on_clean_resolution(self, scenario):
        """Quantified: Hold-On pays ~its margin per lookup."""
        world = scenario.world
        from repro.simnet.dns import HOLD_ON_MARGIN, resolve

        ctx = make_ctx(scenario, scenario.isp_clean, "ho-1")
        t0 = world.env.now
        world.run_process(
            resolve(world.env, world.network, ctx, "www.youtube.com",
                    world.public_resolver, hold_on=False)
        )
        plain = world.env.now - t0
        t1 = world.env.now
        world.run_process(
            resolve(world.env, world.network, ctx, "www.youtube.com",
                    world.public_resolver, hold_on=True)
        )
        held = world.env.now - t1
        assert held >= plain  # jitter aside, the margin dominates
        assert held - plain <= HOLD_ON_MARGIN + 0.3


class TestIpLearning:
    """The IP-as-hostname fix learns a host's address out of band, from
    the authoritative record."""

    def test_authoritative_record_gives_the_ip(self, scenario):
        world = scenario.world
        transport = IpAsHostnameTransport()
        assert (
            transport._ip_for(world, "WWW.YouTube.com")
            == world.network.authoritative_ips("www.youtube.com")[0]
        )

    def test_unknown_host_unavailable(self, scenario):
        transport = IpAsHostnameTransport()
        assert not transport.available_for(
            scenario.world, "http://totally-unknown.example/"
        )
