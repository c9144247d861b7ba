"""Tests for registration, report upload, and blocked-list download."""

import pytest

from repro.core import (
    BlockStatus,
    BlockType,
    CSawClient,
    CSawConfig,
    RegistrationError,
    ServerDB,
)
from repro.core.reporting import GlobalView, ensure_collector
from repro.workloads.scenarios import pakistan_case_study


@pytest.fixture()
def scenario():
    return pakistan_case_study(seed=101, with_proxy_fleet=False)


def make_client(scenario, name, server, isp=None, report_via_tor=False, **kw):
    report_transport = (
        scenario.tor_transport(f"report/{name}") if report_via_tor else None
    )
    return CSawClient(
        scenario.world,
        name,
        [isp or scenario.isp_a],
        transports=scenario.make_transports(name),
        server_db=server,
        report_transport=report_transport,
        **kw,
    )


def pulls_of(reporting):
    """Blocked-list pulls a client completed: every pull is a full or a
    delta sync."""
    return reporting.full_syncs + reporting.delta_syncs


class TestGlobalView:
    def test_lookup_exact_and_base(self):
        from repro.core.globaldb import GlobalEntry

        view = GlobalView()
        entry = GlobalEntry(
            url="http://foo.com/",
            asn=1,
            stages=[BlockType.BLOCK_PAGE],
            measured_at=0.0,
            posted_at=0.0,
            last_uuid="u",
        )
        view.replace([entry], now=1.0)
        assert view.lookup("http://foo.com/") is entry
        assert view.lookup("http://foo.com/deep/page") is entry
        assert view.lookup("http://bar.com/") is None

    def test_pulled_row_decodes_once_until_a_pull_overwrites_it(self):
        from repro.core.globaldb import ReportItem

        server = ServerDB(entry_ttl=None)
        uuid = server.register(now=0.0)

        def post(now, stage):
            server.post_update(uuid, [ReportItem(
                url="http://foo.com/", asn=1, stages=(stage,),
                measured_at=now,
            )], now=now)

        def pull(now):
            view.apply_batch(server.sync_batch_for_as(
                1, now, since_version=view.since_version(1)
            ), now)

        view = GlobalView()
        post(1.0, BlockType.BLOCK_PAGE)
        pull(2.0)
        first = view.lookup("http://foo.com/deep/page")
        assert first is view.lookup("http://foo.com/")
        assert view.entries() == [first] and view.entries()[0] is first
        post(3.0, BlockType.DNS_TIMEOUT)
        pull(4.0)
        second = view.lookup("http://foo.com/")
        assert second is not first
        assert (second.posted_at, second.stages) == (
            3.0, [BlockType.BLOCK_PAGE, BlockType.DNS_TIMEOUT]
        )
        assert first.posted_at == 1.0

    def test_replace_overwrites(self):
        view = GlobalView()
        view.replace([], now=2.0)
        assert len(view) == 0
        assert view.last_synced == 2.0


class TestRegistration:
    def test_register_assigns_uuid_and_downloads(self, scenario):
        server = ServerDB()
        client = make_client(scenario, "r1", server)

        def flow():
            uuid = yield from client.install()
            return uuid

        uuid = scenario.world.run_process(flow())
        assert uuid is not None
        # The server accepts (an empty) post from the new UUID.
        assert server.post_update(uuid, [], now=scenario.world.env.now) == 0
        assert client.reporting.registered
        assert client.global_view.last_synced is not None

    def test_failed_captcha_raises(self, scenario):
        server = ServerDB()
        client = make_client(scenario, "r2", server)

        def flow():
            with pytest.raises(RegistrationError):
                yield from client.install(captcha_passed=False)

        scenario.world.run_process(flow())

    def test_post_without_registration_rejected(self, scenario):
        server = ServerDB()
        client = make_client(scenario, "r3", server)

        def flow():
            with pytest.raises(RuntimeError):
                yield from client.reporting.post_reports(client.new_ctx())

        scenario.world.run_process(flow())


class TestReportLifecycle:
    def test_blocked_measurement_reaches_global_db(self, scenario):
        server = ServerDB()
        client = make_client(scenario, "l1", server)

        def flow():
            yield from client.install()
            response = yield from client.request(scenario.urls["youtube"])
            yield response.measurement_process
            accepted = yield from client.reporting.post_reports(client.new_ctx())
            return accepted

        accepted = scenario.world.run_process(flow())
        assert accepted == 1
        entry = server.entry(scenario.urls["youtube"], scenario.isp_a.asn)
        assert entry is not None
        assert BlockType.BLOCK_PAGE in entry.stages
        assert server.update_count == 1

    def test_reports_not_reposted(self, scenario):
        server = ServerDB()
        client = make_client(scenario, "l2", server)

        def flow():
            yield from client.install()
            response = yield from client.request(scenario.urls["youtube"])
            yield response.measurement_process
            first = yield from client.reporting.post_reports(client.new_ctx())
            second = yield from client.reporting.post_reports(client.new_ctx())
            return first, second

        first, second = scenario.world.run_process(flow())
        assert (first, second) == (1, 0)

    def test_reports_over_tor_cost_more_time(self, scenario):
        server = ServerDB()
        direct_client = make_client(scenario, "l3", server)
        tor_client = make_client(scenario, "l4", server, report_via_tor=True)

        def time_post(client, url_key):
            def flow():
                yield from client.install()
                response = yield from client.request(scenario.urls[url_key])
                yield response.measurement_process
                start = scenario.world.env.now
                yield from client.reporting.post_reports(client.new_ctx())
                return scenario.world.env.now - start

            return scenario.world.run_process(flow())

        direct_cost = time_post(direct_client, "youtube")
        tor_cost = time_post(tor_client, "porn")
        assert tor_cost > direct_cost

    def test_periodic_loop_posts_and_downloads(self, scenario):
        server = ServerDB()
        config = CSawConfig(report_interval=100.0, download_interval=100.0)
        client = make_client(scenario, "l5", server, config=config)
        world = scenario.world

        def flow():
            yield from client.install()
            response = yield from client.request(scenario.urls["youtube"])
            yield response.measurement_process

        world.run_process(flow())
        pulls_before = pulls_of(client.reporting)
        client.start_background(until=world.env.now + 500)
        world.env.run(until=world.env.timeout(600))
        assert client.reporting.reports_posted >= 1
        assert pulls_of(client.reporting) > pulls_before

    @pytest.mark.parametrize(
        "report_interval, download_interval, posts, pulls",
        [(100.0, 300.0, 9, 3), (300.0, 100.0, 3, 9)],
    )
    def test_periodic_loop_keeps_each_interval(
        self, scenario, report_interval, download_interval, posts, pulls
    ):
        """Each operation runs on its own interval: over 900 s the
        shorter one runs every wakeup, the longer one every third."""
        server = ServerDB()
        config = CSawConfig(
            report_interval=report_interval,
            download_interval=download_interval,
        )
        client = make_client(scenario, "l6", server, config=config)
        world = scenario.world
        world.run_process(client.install())
        reporting = client.reporting
        post_times = []
        post_reports = reporting.post_reports

        def counted_post(ctx):
            post_times.append(world.env.now)
            return (yield from post_reports(ctx))

        reporting.post_reports = counted_post
        pulls_before = pulls_of(reporting)
        start = world.env.now
        client.start_background(until=start + 900.0)
        world.env.run(until=world.env.timeout(1000.0))
        assert len(post_times) == posts
        assert pulls_of(reporting) - pulls_before == pulls

    def test_collector_site_idempotent(self, scenario):
        url_a = ensure_collector(scenario.world)
        url_b = ensure_collector(scenario.world)
        assert url_a == url_b


class TestDeltaSyncEndToEnd:
    def test_periodic_pulls_use_delta_sync(self, scenario):
        """First pull transfers the full snapshot; every later pull rides
        the shard version and transfers only the diff."""
        server = ServerDB()
        alice = make_client(scenario, "d-alice", server)
        bob = make_client(scenario, "d-bob", server)
        world = scenario.world

        def flow():
            yield from alice.install()
            response = yield from alice.request(scenario.urls["youtube"])
            yield response.measurement_process
            yield from alice.reporting.post_reports(alice.new_ctx())
            yield from bob.install()  # full snapshot: one entry
            # Nothing changed since: an empty delta.
            yield from bob.reporting.download_blocked_list(bob.new_ctx())
            # Alice reports a second URL; bob picks it up incrementally.
            response = yield from alice.request(scenario.urls["porn"])
            yield response.measurement_process
            yield from alice.reporting.post_reports(alice.new_ctx())
            yield from bob.reporting.download_blocked_list(bob.new_ctx())

        world.run_process(flow())
        rep = bob.reporting
        assert rep.full_syncs == 1  # only the install-time pull
        assert rep.delta_syncs == 2
        assert len(bob.global_view) == 2
        assert bob.global_view.version == server.version_for_as(
            scenario.isp_a.asn
        )
        assert bob.global_view.synced_asn == scenario.isp_a.asn
        # Rows on the wire: 1 (full) + 0 (empty delta) + 2 (the new entry,
        # plus the old one whose vote mass moved when alice's d doubled).
        assert rep.sync_rows_received == 3
        assert server.full_syncs_served >= 1
        assert server.delta_syncs_served == 2

    def test_migration_forces_full_resync(self, scenario):
        """After mobility the cached version belongs to another AS's
        shard, so the client must not present it as a delta basis."""
        server = ServerDB()
        alice = make_client(scenario, "m-alice", server)
        bob = make_client(scenario, "m-bob", server)
        world = scenario.world

        def flow():
            yield from alice.install()
            response = yield from alice.request(scenario.urls["youtube"])
            yield response.measurement_process
            yield from alice.reporting.post_reports(alice.new_ctx())
            yield from bob.install()
            yield from bob.reporting.download_blocked_list(bob.new_ctx())
            yield from bob.migrate([scenario.isp_b])

        world.run_process(flow())
        assert bob.reporting.delta_syncs == 1  # the pre-migration pull
        assert bob.reporting.full_syncs == 2  # install + post-migration
        assert bob.global_view.synced_asn == scenario.isp_b.asn


class TestCrowdsourcing:
    def test_second_client_benefits_from_first(self, scenario):
        """The crowdsourcing loop: user A measures, user B downloads and
        circumvents immediately — richer data, better circumvention."""
        server = ServerDB()
        alice = make_client(scenario, "alice", server)
        bob = make_client(scenario, "bob", server)
        world = scenario.world

        def flow():
            yield from alice.install()
            response = yield from alice.request(scenario.urls["youtube"])
            yield response.measurement_process
            yield from alice.reporting.post_reports(alice.new_ctx())
            # Bob installs afterwards: registration pulls the blocked list.
            yield from bob.install()
            bob_response = yield from bob.request(scenario.urls["youtube"])
            yield bob_response.measurement_process
            return bob_response

        bob_response = world.run_process(flow())
        assert bob_response.ok
        assert bob_response.status is BlockStatus.BLOCKED
        assert len(bob.global_view) == 1

    def test_cross_as_entries_not_shared(self, scenario):
        server = ServerDB()
        alice = make_client(scenario, "alice-a", server, isp=scenario.isp_a)
        bob = make_client(scenario, "bob-b", server, isp=scenario.isp_b)
        world = scenario.world

        def flow():
            yield from alice.install()
            response = yield from alice.request(scenario.urls["youtube"])
            yield response.measurement_process
            yield from alice.reporting.post_reports(alice.new_ctx())
            yield from bob.install()

        world.run_process(flow())
        # Bob is on ISP-B; Alice's ISP-A entry must not leak to him.
        assert bob.global_view.lookup(scenario.urls["youtube"]) is None
