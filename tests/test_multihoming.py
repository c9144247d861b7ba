"""Tests for multihoming detection and strategy pinning (§4.4)."""

import pytest

from repro.core import BlockStatus, BlockType, CSawClient, CSawConfig
from repro.core.multihoming import _WINDOW, MultihomingManager
from repro.workloads.scenarios import pakistan_case_study


@pytest.fixture()
def scenario():
    return pakistan_case_study(seed=99, with_proxy_fleet=False)


def drive(scenario, gen):
    return scenario.world.run_process(gen)


class TestDetection:
    def test_single_homed_never_flags(self, scenario):
        world = scenario.world
        client, access = world.add_client("mh-single", [scenario.isp_a])
        manager = MultihomingManager(world, access, rng_stream="mh1")
        ctx = world.new_ctx(client, access)

        def probe_many():
            for _ in range(10):
                yield from manager.probe_once(ctx)

        drive(scenario, probe_many())
        assert not manager.is_multihomed
        assert manager.observed_asns == {scenario.isp_a.asn}

    def test_multihomed_detected_within_window(self, scenario):
        world = scenario.world
        client, access = world.add_client(
            "mh-dual", [scenario.isp_a, scenario.isp_b]
        )
        manager = MultihomingManager(world, access, rng_stream="mh2")
        ctx = world.new_ctx(client, access)

        def probe_many():
            for _ in range(10):
                yield from manager.probe_once(ctx)

        drive(scenario, probe_many())
        assert manager.is_multihomed
        assert manager.observed_asns == {scenario.isp_a.asn, scenario.isp_b.asn}

    def test_window_forgets_old_asns(self, scenario):
        """Only the last ``_WINDOW`` probes count: once a multihomed
        client moves to one provider, that many probes clear the flag."""
        world = scenario.world
        client, dual = world.add_client(
            "mh-w", [scenario.isp_a, scenario.isp_b]
        )
        manager = MultihomingManager(world, dual, rng_stream="mh-w")
        ctx = world.new_ctx(client, dual)

        def probe(count):
            for _ in range(count):
                yield from manager.probe_once(ctx)

        drive(scenario, probe(10))
        assert manager.is_multihomed
        last_before_move = drive(scenario, manager.probe_once(ctx))
        _host, single = world.add_client("mh-w-single", [scenario.isp_a])
        manager.access = single
        drive(scenario, probe(_WINDOW - 1))
        # The last pre-move probe still counts.
        assert manager.observed_asns == {scenario.isp_a.asn, last_before_move}
        drive(scenario, probe(1))
        assert not manager.is_multihomed
        assert manager.observed_asns == {scenario.isp_a.asn}


class TestPinning:
    def make_manager(self, scenario, name):
        world = scenario.world
        client, access = world.add_client(
            name, [scenario.isp_a, scenario.isp_b]
        )
        manager = MultihomingManager(world, access, rng_stream=name)
        ctx = world.new_ctx(client, access)

        def probe_many():
            for _ in range(10):
                yield from manager.probe_once(ctx)

        drive(scenario, probe_many())
        return manager

    def test_blocked_record_not_downgraded(self, scenario):
        from repro.core.localdb import LocalDatabase

        manager = self.make_manager(scenario, "pin1")
        db = LocalDatabase(ttl=1e9)
        db.record_measurement(
            "http://x.example/", BlockStatus.BLOCKED, [BlockType.HTTP_TIMEOUT]
        )
        status, stages = manager.adjust_measurement(
            db, "http://x.example/", BlockStatus.NOT_BLOCKED, []
        )
        assert status is BlockStatus.BLOCKED
        assert stages == [BlockType.HTTP_TIMEOUT]

    def test_blocked_evidence_merges(self, scenario):
        from repro.core.localdb import LocalDatabase

        manager = self.make_manager(scenario, "pin2")
        db = LocalDatabase(ttl=1e9)
        db.record_measurement(
            "http://x.example/", BlockStatus.BLOCKED, [BlockType.HTTP_TIMEOUT]
        )
        status, stages = manager.adjust_measurement(
            db, "http://x.example/", BlockStatus.BLOCKED, [BlockType.DNS_REDIRECT]
        )
        assert status is BlockStatus.BLOCKED
        assert set(stages) == {BlockType.HTTP_TIMEOUT, BlockType.DNS_REDIRECT}

    def test_not_multihomed_passes_through(self, scenario):
        from repro.core.localdb import LocalDatabase

        world = scenario.world
        _client, access = world.add_client("pin3", [scenario.isp_a])
        manager = MultihomingManager(world, access, rng_stream="pin3")
        db = LocalDatabase(ttl=1e9)
        db.record_measurement(
            "http://x.example/", BlockStatus.BLOCKED, [BlockType.HTTP_TIMEOUT]
        )
        status, stages = manager.adjust_measurement(
            db, "http://x.example/", BlockStatus.NOT_BLOCKED, []
        )
        assert status is BlockStatus.NOT_BLOCKED


class TestEndToEnd:
    def test_no_oscillation_on_multihomed_client(self, scenario):
        """A URL blocked by ISP-A only: without pinning the record would
        flip between blocked/not-blocked as flows alternate providers."""
        world = scenario.world
        url = "http://only-a-blocks.example/"
        world.web.add_site("only-a-blocks.example", location="us-east")
        world.web.add_page(url, size_bytes=30_000)
        from repro.censor.actions import HttpAction, HttpVerdict
        from repro.censor.policy import Matcher, Rule

        policy_a = world.network.ases[scenario.isp_a.asn].censor.policy
        policy_a.add_rule(
            Rule(
                matcher=Matcher(domains={"only-a-blocks.example"}),
                http=HttpVerdict(
                    HttpAction.BLOCKPAGE_REDIRECT,
                    blockpage_ip=scenario.blockpage_a.ip,
                ),
            )
        )
        client = CSawClient(
            world,
            "mh-e2e",
            [scenario.isp_a, scenario.isp_b],
            transports=scenario.make_transports("mh-e2e"),
            config=CSawConfig(probe_probability=1.0),
        )
        assert client.multihoming is not None

        def flow():
            # Warm up the multihoming detector.
            for _ in range(10):
                yield from client.multihoming.probe_once(client.new_ctx())
            statuses = []
            for _ in range(12):
                response = yield from client.request(url)
                yield response.measurement_process
                statuses.append(client.local_db.lookup(url)[0])
            return statuses

        statuses = drive(scenario, flow())
        # Once marked blocked it must stay blocked (no oscillation).
        first_blocked = statuses.index(BlockStatus.BLOCKED)
        assert all(
            s is BlockStatus.BLOCKED for s in statuses[first_blocked:]
        ), statuses
