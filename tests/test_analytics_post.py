"""Tests for consumer analytics (§4.2) and POST semantics (footnote 7)."""

import pytest

from repro.core import BlockStatus, BlockType, CSawClient, CSawConfig, ReportItem, ServerDB
from repro.core.analytics import MeasurementAnalytics
from repro.workloads.scenarios import pakistan_case_study


def seeded_server():
    server = ServerDB(entry_ttl=None)
    uuids = [server.register(now=float(i)) for i in range(5)]
    # AS 1: block pages dominate; AS 2: DNS dominates; foo.com differs.
    posts = [
        (uuids[0], "http://www.foo.com/", 1, BlockType.BLOCK_PAGE),
        (uuids[1], "http://www.foo.com/", 1, BlockType.BLOCK_PAGE),
        (uuids[0], "http://www.bar.com/", 1, BlockType.BLOCK_PAGE),
        (uuids[2], "http://www.foo.com/", 2, BlockType.DNS_REDIRECT),
        (uuids[3], "http://www.baz.com/", 2, BlockType.DNS_SERVFAIL),
        (uuids[4], "http://www.bar.com/", 2, BlockType.DNS_TIMEOUT),
    ]
    for uuid, url, asn, stage in posts:
        server.post_update(
            uuid,
            [ReportItem(url=url, asn=asn, stages=(stage,), measured_at=10.0)],
            now=20.0,
        )
    return server


class TestAnalytics:
    def test_reporters_per_as(self):
        analytics = MeasurementAnalytics(seeded_server())
        per_as = analytics.reporters_per_as()
        assert per_as[1] == 2  # uuids[0] and uuids[1]
        assert per_as[2] == 3
        assert list(per_as) == [1, 2]  # first-entry order

    def test_as_summary(self):
        analytics = MeasurementAnalytics(seeded_server())
        summary = analytics.as_summary(1)
        assert summary.blocked_urls == 2
        assert summary.blocked_domains == 2
        assert summary.dominant_type == "block-page"
        assert summary.reporters == 2
        summary2 = analytics.as_summary(2)
        assert summary2.dominant_type.startswith("dns")
        assert summary2.reporters == 3

    def test_top_blocked_domains(self):
        analytics = MeasurementAnalytics(seeded_server())
        top = analytics.top_blocked_domains()
        # foo.com and bar.com are blocked in both ASes; baz.com in one.
        assert set(top[:2]) == {("foo.com", 2), ("bar.com", 2)}
        assert top[2] == ("baz.com", 1)

    def test_mechanism_heterogeneity(self):
        analytics = MeasurementAnalytics(seeded_server())
        varied = analytics.mechanism_heterogeneity()
        # foo.com: block page in AS1, DNS in AS2 — the §2.3 insight.
        assert "foo.com" in varied
        mechanisms = dict(varied["foo.com"])
        assert mechanisms[1] == "http"
        assert mechanisms[2] == "dns"
        # baz.com only ever appears with one mechanism.
        assert "baz.com" not in varied

    def test_evicted_entry_reporters_not_counted(self):
        """A TTL-evicted entry's reporter counts for nothing, though its
        vouch still stands in the ledger."""
        server = ServerDB(entry_ttl=5.0)
        lone, other = (server.register(now=0.0) for _ in range(2))
        for uuid, url, now in (
            (lone, "http://old.example/", 1.0),
            (other, "http://new.example/", 10.0),  # evicts old.example
        ):
            server.post_update(
                uuid,
                [ReportItem(url=url, asn=1, stages=(BlockType.BLOCK_PAGE,),
                            measured_at=now)],
                now=now,
            )
        assert [e.url for e in server.all_entries()] == ["http://new.example/"]
        assert server.stats_for("http://old.example/", 1).reporters == 1
        analytics = MeasurementAnalytics(server)
        assert analytics.reporters_per_as() == {1: 1}
        assert analytics.as_summary(1).reporters == 1

    def test_empty_server(self):
        analytics = MeasurementAnalytics(ServerDB())
        assert analytics.reporters_per_as() == {}
        assert analytics.all_as_summaries() == []
        assert analytics.top_blocked_domains() == []


class TestPostSemantics:
    @pytest.fixture()
    def scenario(self):
        return pakistan_case_study(seed=999, with_proxy_fleet=False)

    def make_client(self, scenario, name, **config_kw):
        return CSawClient(
            scenario.world,
            name,
            [scenario.isp_a],
            transports=scenario.make_transports(name, include=["tor"]),
            config=CSawConfig(**config_kw),
        )

    def run(self, scenario, client, url, method):
        def proc():
            response = yield from client.measurement.handle_request(
                url, ctx=client.new_ctx(), method=method
            )
            yield response.measurement_process
            return response

        return scenario.world.run_process(proc())

    def test_post_never_duplicated_on_unknown_url(self, scenario):
        """A POST to a fresh unblocked URL must not spawn a relay copy —
        compare the circumvention traffic of a GET vs a POST."""
        world = scenario.world
        get_client = self.make_client(scenario, "post-1")
        post_client = self.make_client(scenario, "post-2")
        url = scenario.urls["small-unblocked"]

        get_resp = self.run(scenario, get_client, url, "GET")
        post_resp = self.run(scenario, post_client, url, "POST")
        assert get_resp.ok and post_resp.ok
        # The GET's parallel Tor duplicate shows up in the PLT tracker;
        # the POST leaves no relay trace at all.
        assert get_client.circumvention._tracker.by_transport.get("tor")
        assert not post_client.circumvention._tracker.by_transport.get("tor")

    def test_post_to_blocked_url_still_circumvented(self, scenario):
        client = self.make_client(scenario, "post-3")
        first = self.run(scenario, client, scenario.urls["youtube"], "GET")
        assert first.status is BlockStatus.BLOCKED
        post = self.run(scenario, client, scenario.urls["youtube"], "POST")
        assert post.ok
        assert post.path == "tor"  # the write still goes through, once

    def test_post_skips_probe(self, scenario):
        client = self.make_client(scenario, "post-4", probe_probability=1.0)
        self.run(scenario, client, scenario.urls["youtube"], "GET")
        probes_before = client.measurement.probes_launched
        for _ in range(5):
            self.run(scenario, client, scenario.urls["youtube"], "POST")
        assert client.measurement.probes_launched == probes_before

    def test_unknown_method_rejected(self, scenario):
        client = self.make_client(scenario, "post-5")

        def proc():
            with pytest.raises(ValueError):
                yield from client.measurement.handle_request(
                    scenario.urls["small-unblocked"], method="DELETE"
                )

        scenario.world.run_process(proc())
