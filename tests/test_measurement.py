"""Integration tests for the measurement module (Algorithm 1)."""

import pytest

from repro.core import (
    BlockStatus,
    BlockType,
    CSawClient,
    CSawConfig,
    ServerDB,
)
from repro.simnet.simtime import time_eq
from repro.workloads.scenarios import pakistan_case_study


def make_client(scenario, isp, name, config=None, include=None, server=None):
    return CSawClient(
        scenario.world,
        name,
        [isp] if not isinstance(isp, list) else isp,
        transports=scenario.make_transports(name, include=include),
        config=config,
        server_db=server,
    )


def request(scenario, client, url):
    """One request, joined with its background measurement."""

    def proc():
        response = yield from client.request(url)
        yield response.measurement_process
        return response

    return scenario.world.run_process(proc())


@pytest.fixture()
def scenario():
    return pakistan_case_study(seed=77, with_proxy_fleet=False)


class TestUnknownUrlFlow:
    def test_unblocked_served_from_direct(self, scenario):
        client = make_client(scenario, scenario.isp_a, "m1")
        response = request(scenario, client, scenario.urls["small-unblocked"])
        assert response.ok
        assert response.path == "direct"
        assert response.status is BlockStatus.NOT_BLOCKED
        status, _ = client.local_db.lookup(scenario.urls["small-unblocked"])
        assert status is BlockStatus.NOT_BLOCKED

    def test_blockpage_detected_and_circumvented(self, scenario):
        client = make_client(scenario, scenario.isp_a, "m2")
        response = request(scenario, client, scenario.urls["youtube"])
        assert response.status is BlockStatus.BLOCKED
        assert BlockType.BLOCK_PAGE in response.stages
        assert response.ok
        assert response.path != "direct"
        # The user never saw the block page: no correction needed.
        assert not response.corrected

    def test_phase2_rejects_false_positive(self, scenario):
        """A small legit page with blocky words: phase 1 flags, phase 2
        (similar sizes via circumvention) clears it."""
        world = scenario.world
        world.web.add_site("smallblog.example", location="us-east")
        world.web.add_page(
            "http://smallblog.example/",
            size_bytes=900,
            html=(
                "<html><head><title>my blog</title></head><body>"
                "<p>today my comment was restricted on a forum — access "
                "denied, they said!</p></body></html>"
            ),
        )
        client = make_client(scenario, scenario.isp_a, "m3")
        response = request(scenario, client, "http://smallblog.example/")
        assert response.status is BlockStatus.NOT_BLOCKED

    def test_hard_failure_served_from_circumvention(self, scenario):
        client = make_client(scenario, scenario.isp_b, "m4")
        response = request(scenario, client, scenario.urls["youtube"])
        assert response.status is BlockStatus.BLOCKED
        assert BlockType.DNS_REDIRECT in response.stages
        assert response.ok
        assert response.path in ("tor", "lantern")

    def test_serial_mode_waits_for_detection(self, scenario):
        parallel_client = make_client(
            scenario, scenario.isp_b, "m5p",
            config=CSawConfig(redundancy_mode="parallel"),
            include=["tor"],
        )
        serial_client = make_client(
            scenario, scenario.isp_b, "m5s",
            config=CSawConfig(redundancy_mode="serial"),
            include=["tor"],
        )
        p = request(scenario, parallel_client, scenario.urls["youtube"])
        s = request(scenario, serial_client, scenario.urls["youtube"])
        assert p.ok and s.ok
        # Serial pays detection time + circumvention time in sequence.
        assert s.plt > p.plt

    def test_relay_serves_before_the_direct_verdict(self, scenario):
        """Parallel mode on an IP-blocked URL: the relay's copy is served
        while the direct path is still timing out (about 21 s, Table 5).
        Nothing cancels the losing direct request, because Algorithm 1
        records its verdict either way."""
        env = scenario.world.env
        client = make_client(
            scenario, scenario.isp_a, "m7",
            config=CSawConfig(redundancy_mode="parallel"),
            include=["lantern"],
        )
        url = scenario.urls["table5/tcp-ip"]

        def proc():
            start = env.now
            response = yield from client.request(url)
            served = (env.now - start, client.local_db.lookup(url)[0])
            yield response.measurement_process
            return response, served, env.now - start

        response, served, measured_after = scenario.world.run_process(proc())
        served_after, status_when_served = served
        assert response.ok
        assert response.path == "lantern"
        assert status_when_served is BlockStatus.NOT_MEASURED
        # Served seconds before the direct path's timeout verdict.
        assert served_after < 10.0
        assert measured_after > 20.0
        status, record = client.local_db.lookup(url)
        assert status is BlockStatus.BLOCKED
        assert record.stages == [BlockType.IP_TIMEOUT]
        assert time_eq(record.measured_at, env.now)

    def test_record_written_once_measured(self, scenario):
        client = make_client(scenario, scenario.isp_a, "m6")
        request(scenario, client, scenario.urls["youtube"])
        status, record = client.local_db.lookup(scenario.urls["youtube"])
        assert status is BlockStatus.BLOCKED
        assert record.stages == [BlockType.BLOCK_PAGE]


class TestBlockedUrlFlow:
    def test_second_access_uses_local_fix_fast(self, scenario):
        client = make_client(scenario, scenario.isp_a, "b1")
        first = request(scenario, client, scenario.urls["youtube"])
        second = request(scenario, client, scenario.urls["youtube"])
        assert second.path == "https"
        assert second.plt < first.plt

    def test_probe_probability_zero_never_probes(self, scenario):
        client = make_client(
            scenario, scenario.isp_a, "b2",
            config=CSawConfig(probe_probability=0.0),
            include=["tor", "lantern"],  # no local fixes: probes possible
        )
        request(scenario, client, scenario.urls["youtube"])
        for _ in range(10):
            request(scenario, client, scenario.urls["youtube"])
        assert client.measurement.probes_launched == 0

    def test_probe_probability_one_always_probes(self, scenario):
        client = make_client(
            scenario, scenario.isp_a, "b3",
            config=CSawConfig(probe_probability=1.0),
            include=["tor", "lantern"],
        )
        request(scenario, client, scenario.urls["youtube"])
        for _ in range(5):
            request(scenario, client, scenario.urls["youtube"])
        assert client.measurement.probes_launched == 5

    def test_local_fix_skips_probe(self, scenario):
        client = make_client(
            scenario, scenario.isp_a, "b4",
            config=CSawConfig(probe_probability=1.0),
        )
        request(scenario, client, scenario.urls["youtube"])
        for _ in range(5):
            request(scenario, client, scenario.urls["youtube"])
        # https fix rides the direct path: measured by default, no probes.
        assert client.measurement.probes_launched == 0

    def test_whitelisting_detected_by_probe(self, scenario):
        client = make_client(
            scenario, scenario.isp_a, "b5",
            config=CSawConfig(probe_probability=1.0),
            include=["tor", "lantern"],
        )
        request(scenario, client, scenario.urls["youtube"])
        # The censor lifts the block (Blocked -> Unblocked churn).
        policy = scenario.world.network.ases[scenario.isp_a.asn].censor.policy
        removed = policy.remove_rules("youtube")
        assert removed == 1
        response = request(scenario, client, scenario.urls["youtube"])
        assert response.status is BlockStatus.NOT_BLOCKED
        status, _ = client.local_db.lookup(scenario.urls["youtube"])
        assert status is BlockStatus.NOT_BLOCKED
        # Restore for other tests sharing the fixture world.
        from repro.censor.actions import HttpAction, HttpVerdict
        from repro.censor.policy import Matcher, Rule

        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"youtube.com"}),
                http=HttpVerdict(
                    HttpAction.BLOCKPAGE_REDIRECT,
                    blockpage_ip=scenario.blockpage_a.ip,
                ),
                label="youtube",
            )
        )


class TestChurn:
    def test_ttl_expiry_remeasures(self, scenario):
        config = CSawConfig(record_ttl=50.0)
        client = make_client(scenario, scenario.isp_a, "c1", config=config)
        request(scenario, client, scenario.urls["small-unblocked"])
        env = scenario.world.env
        env.run(until=env.timeout(100))  # let the record expire
        status, _ = client.local_db.lookup(scenario.urls["small-unblocked"])
        assert status is BlockStatus.NOT_MEASURED

    def test_unblocked_to_blocked_caught_inline(self, scenario):
        client = make_client(scenario, scenario.isp_a, "c2")
        url = "http://fresh-site.example/"
        scenario.world.web.add_site("fresh-site.example", location="us-east")
        scenario.world.web.add_page(url, size_bytes=40_000)
        first = request(scenario, client, url)
        assert first.status is BlockStatus.NOT_BLOCKED
        # The censor starts blocking it.
        from repro.censor.actions import HttpAction, HttpVerdict
        from repro.censor.policy import Matcher, Rule

        policy = scenario.world.network.ases[scenario.isp_a.asn].censor.policy
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={"fresh-site.example"}),
                http=HttpVerdict(
                    HttpAction.BLOCKPAGE_REDIRECT,
                    blockpage_ip=scenario.blockpage_a.ip,
                ),
            )
        )
        second = request(scenario, client, url)
        assert second.status is BlockStatus.BLOCKED
        assert second.ok  # recovered via circumvention
        status, _ = client.local_db.lookup(url)
        assert status is BlockStatus.BLOCKED


class TestGlobalViewIntegration:
    def test_global_entry_skips_local_measurement(self, scenario):
        server = ServerDB()
        reporter = make_client(scenario, scenario.isp_a, "g1", server=server)
        consumer = make_client(scenario, scenario.isp_a, "g2", server=server)

        def flow():
            yield from reporter.install()
            yield from consumer.install()
            # Reporter discovers the blocking and posts it.
            response = yield from reporter.request(scenario.urls["youtube"])
            yield response.measurement_process
            yield from reporter.reporting.post_reports(reporter.new_ctx())
            yield from consumer.reporting.download_blocked_list(consumer.new_ctx())
            # The consumer now knows without measuring first.
            entry = consumer.global_view.lookup(scenario.urls["youtube"])
            assert entry is not None
            second = yield from consumer.request(scenario.urls["youtube"])
            yield second.measurement_process
            return second

        response = scenario.world.run_process(flow())
        assert response.ok
        assert response.status is BlockStatus.BLOCKED
        # Served via circumvention straight away (no redundant probing) —
        # and since the global entry says "block page", the cheap HTTPS
        # local fix is chosen on the very first access (regression test:
        # the shared-but-empty GlobalView must not be discarded).
        assert response.path == "https"

    def test_measurement_module_shares_client_global_view(self, scenario):
        client = make_client(scenario, scenario.isp_a, "g3")
        assert client.measurement.global_view is client.global_view
