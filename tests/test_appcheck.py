"""Tests for non-web app filtering measurement + VPN recovery (§8)."""

import pytest

from repro.censor.actions import IpAction, IpVerdict
from repro.censor.policy import CensorPolicy, Matcher, Rule
from repro.core import BlockStatus
from repro.core.appcheck import AppReachabilityChecker
from repro.simnet.app import AppBlocked, AppService, app_connect, build_app_service
from repro.simnet.world import World


@pytest.fixture()
def setup():
    world = World(seed=41)
    world.add_public_resolver()
    policy = CensorPolicy(name="app-censor")
    isp = world.add_isp(300, "isp", policy=policy)
    service = build_app_service(world, "chatapp", n_endpoints=3)
    vpn = world.network.add_host("vpn-endpoint", "netherlands",
                                 bandwidth_bps=50e6)
    client, access = world.add_client("app-user", [isp])
    ctx = world.new_ctx(client, access)
    return world, policy, service, vpn, ctx


def block_ips(policy, ips, label="app-block"):
    policy.add_rule(
        Rule(matcher=Matcher(ips=set(ips)), ip=IpVerdict(IpAction.DROP),
             label=label)
    )


class TestAppService:
    def test_needs_endpoints(self):
        with pytest.raises(ValueError):
            AppService(name="empty", endpoints=[])

    def test_connect_unblocked(self, setup):
        world, _policy, service, _vpn, ctx = setup
        conn = world.run_process(app_connect(world, ctx, service))
        assert conn.service == "chatapp"
        assert conn.via == "direct"
        assert conn.endpoint in service.endpoints

    def test_partial_block_falls_over_to_live_endpoint(self, setup):
        world, policy, service, _vpn, ctx = setup
        block_ips(policy, service.endpoint_ips[:2])
        conn = world.run_process(app_connect(world, ctx, service))
        assert conn.endpoint.ip == service.endpoint_ips[2]

    def test_total_block_raises(self, setup):
        world, policy, service, _vpn, ctx = setup
        block_ips(policy, service.endpoint_ips)

        def proc():
            with pytest.raises(AppBlocked):
                yield from app_connect(world, ctx, service)

        world.run_process(proc())


class TestChecker:
    def test_check_classifies_endpoints(self, setup):
        world, policy, service, vpn, ctx = setup
        block_ips(policy, service.endpoint_ips[:1])
        checker = AppReachabilityChecker(world, vpn_endpoint=vpn)
        status = world.run_process(checker.check(ctx, service))
        assert status.status is BlockStatus.BLOCKED
        assert status.blocked_endpoints == service.endpoint_ips[:1]
        assert len(status.reachable_endpoints) == 2
        assert not status.fully_blocked

    def test_connect_uses_vpn_when_fully_blocked(self, setup):
        world, policy, service, vpn, ctx = setup
        block_ips(policy, service.endpoint_ips)
        checker = AppReachabilityChecker(world, vpn_endpoint=vpn)
        conn = world.run_process(checker.connect(ctx, service))
        assert conn.via == "vpn"
        assert checker.status_of("chatapp").fully_blocked

    def test_cached_block_goes_straight_to_vpn(self, setup):
        world, policy, service, vpn, ctx = setup
        block_ips(policy, service.endpoint_ips)
        checker = AppReachabilityChecker(world, vpn_endpoint=vpn)

        def flow():
            first = yield from checker.connect(ctx, service)
            t0 = world.env.now
            second = yield from checker.connect(ctx, service)
            return first, second, world.env.now - t0

        first, second, second_duration = world.run_process(flow())
        assert first.via == "vpn" and second.via == "vpn"
        # No direct re-probe: the second connect skips the 21s timeouts.
        assert second_duration < 5.0

    def test_no_vpn_raises_when_blocked(self, setup):
        world, policy, service, _vpn, ctx = setup
        block_ips(policy, service.endpoint_ips)
        checker = AppReachabilityChecker(world, vpn_endpoint=None)

        def proc():
            with pytest.raises(AppBlocked):
                yield from checker.connect(ctx, service)

        world.run_process(proc())

    def test_status_expires_after_ttl(self, setup):
        world, policy, service, vpn, ctx = setup
        checker = AppReachabilityChecker(world, vpn_endpoint=vpn,
                                         record_ttl=100.0)
        world.run_process(checker.check(ctx, service))
        assert checker.status_of("chatapp") is not None
        world.env.run(until=world.env.timeout(200.0))
        assert checker.status_of("chatapp") is None

    def test_unblocked_service_stays_direct(self, setup):
        world, _policy, service, vpn, ctx = setup
        checker = AppReachabilityChecker(world, vpn_endpoint=vpn)
        conn = world.run_process(checker.connect(ctx, service))
        assert conn.via == "direct"
        assert checker.status_of("chatapp").status is BlockStatus.NOT_BLOCKED

    def test_vpn_blocked_too_raises(self, setup):
        world, policy, service, vpn, ctx = setup
        block_ips(policy, service.endpoint_ips)
        block_ips(policy, [vpn.ip], label="vpn-block")
        checker = AppReachabilityChecker(world, vpn_endpoint=vpn)

        def proc():
            from repro.simnet.tcp import TcpError

            with pytest.raises((AppBlocked, TcpError)):
                yield from checker.connect(ctx, service)

        world.run_process(proc())
