"""Tests for the §2.2/§8 extensions: Hold-On, Tor bridges, server-side
geo filtering, fingerprinting, mobility, and the reputation system."""

import pytest

from repro.censor.actions import (
    DnsAction,
    DnsVerdict,
    HttpAction,
    HttpVerdict,
    IpAction,
    IpVerdict,
)
from repro.censor.fingerprint import FingerprintAnalyzer
from repro.censor.policy import Matcher, Rule
from repro.circumvent import HoldOnTransport, PublicDnsTransport, TorTransport
from repro.core import (
    BlockStatus,
    BlockType,
    CSawClient,
    CSawConfig,
    RegistrationError,
    ReportItem,
    ReputationAnalyzer,
    ServerDB,
)
from repro.workloads.scenarios import pakistan_case_study


@pytest.fixture()
def scenario():
    return pakistan_case_study(seed=888, with_proxy_fleet=False)


def make_ctx(scenario, isp, name):
    world = scenario.world
    client, access = world.add_client(name, [isp])
    return world.new_ctx(client, access, stream=f"ext/{name}")


class TestDnsInjectionAndHoldOn:
    def add_injection_rule(self, scenario, hostname):
        policy = scenario.world.network.ases[scenario.isp_a.asn].censor.policy
        policy.add_rule(
            Rule(
                matcher=Matcher(domains={hostname}),
                dns=DnsVerdict(
                    DnsAction.REDIRECT,
                    redirect_ip="10.99.99.99",
                    scope="path",
                    injection_race=True,
                ),
            )
        )

    def test_injection_race_validation(self):
        with pytest.raises(ValueError):
            DnsVerdict(DnsAction.NXDOMAIN, injection_race=True)
        with pytest.raises(ValueError):
            DnsVerdict(
                DnsAction.REDIRECT, redirect_ip="10.0.0.1",
                scope="resolver", injection_race=True,
            )

    def test_public_dns_loses_the_race(self, scenario):
        world = scenario.world
        world.web.add_site("injected.example.com", location="us-east")
        world.web.add_page("http://injected.example.com/", size_bytes=20_000)
        self.add_injection_rule(scenario, "injected.example.com")
        ctx = make_ctx(scenario, scenario.isp_a, "inj1")
        result = world.run_process(
            PublicDnsTransport().fetch(
                world, ctx, "http://injected.example.com/"
            )
        )
        # Forged answer wins the race -> connection into dead space.
        assert result.failed
        assert result.failure_stage == "tcp"

    def test_hold_on_survives_the_race(self, scenario):
        world = scenario.world
        world.web.add_site("injected2.example.com", location="us-east")
        world.web.add_page("http://injected2.example.com/", size_bytes=20_000)
        self.add_injection_rule(scenario, "injected2.example.com")
        ctx = make_ctx(scenario, scenario.isp_a, "inj2")
        result = world.run_process(
            HoldOnTransport().fetch(world, ctx, "http://injected2.example.com/")
        )
        assert result.ok
        assert result.response.size_bytes == 20_000

    def test_hold_on_costs_extra_on_clean_paths(self, scenario):
        world = scenario.world
        url = scenario.urls["small-unblocked"]
        ctx = make_ctx(scenario, scenario.isp_a, "inj3")
        plain = world.run_process(PublicDnsTransport().fetch(world, ctx, url))
        held = world.run_process(HoldOnTransport().fetch(world, ctx, url))
        assert plain.ok and held.ok
        # The standing margin shows up (statistically) in the latency.
        assert held.elapsed + 0.5 > plain.elapsed  # sanity: same ballpark

    def test_csaw_escalates_public_dns_to_hold_on(self, scenario):
        """C-Saw tries public DNS first, learns it fails against the
        injection, and converges on Hold-On."""
        world = scenario.world
        world.web.add_site("injected3.example.com", location="us-east")
        world.web.add_page("http://injected3.example.com/", size_bytes=20_000)
        self.add_injection_rule(scenario, "injected3.example.com")
        client = CSawClient(
            world,
            "inj4",
            [scenario.isp_a],
            transports=scenario.make_transports(
                "inj4", include=["public-dns", "hold-on", "tor"]
            ),
        )
        paths = []

        def flow():
            for _ in range(4):
                response = yield from client.request(
                    "http://injected3.example.com/"
                )
                yield response.measurement_process
                paths.append(response.path)

        world.run_process(flow())
        assert paths[-1] == "hold-on"
        assert all(p == "hold-on" for p in paths[-2:])


class TestTorBridges:
    def test_bridges_not_in_public_consensus(self, scenario):
        bridges = scenario.tor.add_bridges(3, stream="br1")
        public = set(scenario.tor.public_relay_ips())
        assert all(b.host.ip not in public for b in bridges)

    def test_bridge_circuit_uses_bridge_entry(self, scenario):
        scenario.tor.add_bridges(3, stream="br2")
        client = scenario.tor.client("bridge-user", use_bridges=True)
        circuit = client.new_circuit(0.0)
        assert circuit.entry in scenario.tor.bridges

    def test_bridge_client_without_bridges_errors(self, scenario):
        import copy

        network = scenario.tor
        saved = list(network.bridges)
        network.bridges = []
        client = network.client("no-bridges", use_bridges=True)
        with pytest.raises(ValueError):
            client.new_circuit(0.0)
        network.bridges = saved

    def test_bridges_evade_relay_ip_blacklist(self, scenario):
        world = scenario.world
        scenario.tor.add_bridges(4, stream="br3")
        # The censor scrapes the consensus and blocks every public relay.
        policy = world.network.ases[scenario.isp_b.asn].censor.policy
        policy.add_rule(
            Rule(
                matcher=Matcher(ips=set(scenario.tor.public_relay_ips())),
                ip=IpVerdict(IpAction.DROP),
                label="tor-blacklist",
            )
        )
        url = scenario.urls["youtube"]
        ctx = make_ctx(scenario, scenario.isp_b, "br-user")
        public_tor = TorTransport(scenario.tor.client("public-user"))
        blocked = world.run_process(public_tor.fetch(world, ctx, url))
        assert blocked.failed
        assert blocked.failure_stage == "tcp"
        bridge_tor = TorTransport(
            scenario.tor.client("bridge-user-2", use_bridges=True)
        )
        works = world.run_process(bridge_tor.fetch(world, ctx, url))
        assert works.ok
        policy.remove_rules("tor-blacklist")


class TestServerSideFiltering:
    def add_geo_site(self, scenario, hostname="geo.example.com"):
        world = scenario.world
        world.web.add_site(
            hostname, location="us-east", geo_blocked={"pakistan"}
        )
        world.web.add_page(f"http://{hostname}/", size_bytes=150_000)
        return f"http://{hostname}/"

    def test_direct_fetch_gets_451(self, scenario):
        url = self.add_geo_site(scenario, "geo1.example.com")
        ctx = make_ctx(scenario, scenario.isp_clean, "geo1")
        from repro.circumvent import DirectTransport

        result = scenario.world.run_process(
            DirectTransport().fetch(scenario.world, ctx, url)
        )
        assert result.failed
        assert result.response.status == 451

    def test_detection_classifies_server_filtering(self, scenario):
        from repro.core.detection import measure_direct_path

        url = self.add_geo_site(scenario, "geo2.example.com")
        ctx = make_ctx(scenario, scenario.isp_clean, "geo2")
        outcome = scenario.world.run_process(
            measure_direct_path(scenario.world, ctx, url)
        )
        assert outcome.status is BlockStatus.BLOCKED
        assert outcome.stages == [BlockType.SERVER_FILTERING]
        assert not outcome.suspected_blockpage

    def test_relay_outside_region_gets_content(self, scenario):
        url = self.add_geo_site(scenario, "geo3.example.com")
        ctx = make_ctx(scenario, scenario.isp_clean, "geo3")
        tor = scenario.tor_transport("geo3-tor")
        result = scenario.world.run_process(
            tor.fetch(scenario.world, ctx, url)
        )
        assert result.ok
        assert result.response.status == 200

    def test_csaw_circumvents_server_filtering(self, scenario):
        url = self.add_geo_site(scenario, "geo4.example.com")
        client = CSawClient(
            scenario.world,
            "geo4-client",
            [scenario.isp_clean],
            transports=scenario.make_transports("geo4-client"),
        )

        def flow():
            first = yield from client.request(url)
            yield first.measurement_process
            second = yield from client.request(url)
            yield second.measurement_process
            return first, second

        first, second = scenario.world.run_process(flow())
        assert first.status is BlockStatus.BLOCKED
        assert BlockType.SERVER_FILTERING in first.stages
        assert second.ok
        # No local fix covers server-side filtering: a relay serves it.
        assert second.path in ("tor", "lantern")


class TestFingerprinting:
    def test_flow_observation_gated(self, scenario):
        box = scenario.world.network.ases[scenario.isp_a.asn].censor
        assert box.observe_traffic is False
        box.observe_flow(0.0, "1.2.3.4", "5.6.7.8")
        assert box.flows == []
        box.observe_traffic = True
        box.observe_flow(1.0, "1.2.3.4", "5.6.7.8")
        assert len(box.flows) == 1
        box.observe_traffic = False
        box.flows.clear()

    def test_redundant_user_more_suspicious_than_plain(self, scenario):
        world = scenario.world
        box = world.network.ases[scenario.isp_a.asn].censor
        box.observe_traffic = True
        box.flows.clear()
        relay_ips = set(scenario.tor.public_relay_ips())

        # A C-Saw user with aggressive redundancy on fresh URLs.
        csaw = CSawClient(
            world, "fp-csaw", [scenario.isp_a],
            transports=scenario.make_transports("fp-csaw", include=["tor"]),
            config=CSawConfig(aggregation_enabled=False),
        )
        plain_client, plain_access = world.add_client(
            "fp-plain", [scenario.isp_a]
        )
        from repro.circumvent import DirectTransport

        direct = DirectTransport()

        def drive():
            for index in range(10):
                response = yield from csaw.request(
                    f"http://{'www.smallnews.example.com'}/a{index}"
                )
                yield response.measurement_process
                ctx = world.new_ctx(plain_client, plain_access, stream="fp")
                yield from direct.fetch(
                    world, ctx, scenario.urls["small-unblocked"]
                )

        world.run_process(drive())
        analyzer = FingerprintAnalyzer(box, relay_ips)
        scores = analyzer.score_clients()
        box.observe_traffic = False
        box.flows.clear()
        assert scores[csaw.host.ip].suspicion > scores[plain_client.ip].suspicion
        assert scores[plain_client.ip].relay_flows == 0

    def test_evaluate_precision_recall(self, scenario):
        world = scenario.world
        box = world.network.ases[scenario.isp_a.asn].censor
        box.observe_traffic = True
        box.flows.clear()
        relay_ips = set(scenario.tor.public_relay_ips())
        csaw = CSawClient(
            world, "fp2-csaw", [scenario.isp_a],
            transports=scenario.make_transports("fp2-csaw", include=["tor"]),
            config=CSawConfig(aggregation_enabled=False),
        )

        def drive():
            for index in range(8):
                response = yield from csaw.request(
                    f"http://www.smallnews.example.com/b{index}"
                )
                yield response.measurement_process

        world.run_process(drive())
        analyzer = FingerprintAnalyzer(box, relay_ips)
        result = analyzer.evaluate([csaw.host.ip], threshold=0.2)
        box.observe_traffic = False
        box.flows.clear()
        assert result["recall"] == 1.0


class TestMobility:
    def test_migrate_switches_as_and_resyncs(self, scenario):
        world = scenario.world
        server = ServerDB()
        # Someone on ISP-B already reported YouTube's blocking there.
        seeder = CSawClient(
            world, "mob-seeder", [scenario.isp_b],
            transports=scenario.make_transports("mob-seeder"),
            server_db=server,
        )
        traveller = CSawClient(
            world, "mob-traveller", [scenario.isp_a],
            transports=scenario.make_transports("mob-traveller"),
            server_db=server,
        )

        def flow():
            yield from seeder.install()
            response = yield from seeder.request(scenario.urls["youtube"])
            yield response.measurement_process
            yield from seeder.reporting.post_reports(seeder.new_ctx())

            yield from traveller.install()
            # Measure something on ISP-A so the local DB is non-empty.
            r = yield from traveller.request(scenario.urls["small-unblocked"])
            yield r.measurement_process
            assert traveller.local_db.record_count > 0
            # The user moves onto ISP-B.
            count = yield from traveller.migrate([scenario.isp_b])
            return count

        count = world.run_process(flow())
        assert traveller.asn == scenario.isp_b.asn
        assert traveller.local_db.record_count == 0  # old AS knowledge gone
        assert count >= 1  # pulled ISP-B's blocked list
        assert traveller.global_view.lookup(scenario.urls["youtube"]) is not None

    def test_migrate_to_multihomed_enables_manager(self, scenario):
        client = CSawClient(
            scenario.world, "mob-2", [scenario.isp_a],
            transports=scenario.make_transports("mob-2"),
        )
        assert client.multihoming is None

        def flow():
            yield from client.migrate([scenario.isp_a, scenario.isp_b])

        scenario.world.run_process(flow())
        assert client.multihoming is not None
        assert client.measurement.multihoming is client.multihoming

    def test_migrate_requires_providers(self, scenario):
        client = CSawClient(
            scenario.world, "mob-3", [scenario.isp_a],
            transports=scenario.make_transports("mob-3"),
        )

        def flow():
            with pytest.raises(ValueError):
                yield from client.migrate([])

        scenario.world.run_process(flow())


class TestReputation:
    def seed_server(self):
        server = ServerDB()
        honest = [server.register(now=float(i)) for i in range(6)]
        real = [f"http://blocked-{i}.example/" for i in range(12)]
        import random

        rng = random.Random(4)
        for uuid in honest:
            mine = rng.sample(real, 7)  # overlapping subsets
            server.post_update(
                uuid,
                [ReportItem(url=u, asn=1, stages=(BlockType.BLOCK_PAGE,),
                            measured_at=1.0) for u in mine],
                now=2.0,
            )
        return server, honest, real

    def test_lone_fabricator_flagged(self):
        server, honest, _real = self.seed_server()
        evil = server.register(now=50.0)
        fakes = [f"http://fake-{i}.example/" for i in range(80)]
        server.post_update(
            evil,
            [ReportItem(url=u, asn=1, stages=(BlockType.BLOCK_PAGE,),
                        measured_at=1.0) for u in fakes],
            now=51.0,
        )
        analyzer = ReputationAnalyzer(server)
        suspects = analyzer.flag_suspects()
        assert suspects == {evil}

    def test_sybil_clique_flagged_despite_mutual_corroboration(self):
        server, honest, _real = self.seed_server()
        clique = [server.register(now=60.0 + i) for i in range(3)]
        fakes = [f"http://clique-{i}.example/" for i in range(60)]
        for uuid in clique:
            server.post_update(
                uuid,
                [ReportItem(url=u, asn=1, stages=(BlockType.BLOCK_PAGE,),
                            measured_at=1.0) for u in fakes],
                now=61.0,
            )
        analyzer = ReputationAnalyzer(server)
        suspects = analyzer.flag_suspects()
        assert set(clique) <= suspects
        assert not (set(honest) & suspects)

    def test_enforce_revokes_and_cleans_votes(self):
        server, _honest, _real = self.seed_server()
        evil = server.register(now=50.0)
        fakes = [f"http://fake-{i}.example/" for i in range(80)]
        server.post_update(
            evil,
            [ReportItem(url=u, asn=1, stages=(BlockType.BLOCK_PAGE,),
                        measured_at=1.0) for u in fakes],
            now=51.0,
        )
        revoked = ReputationAnalyzer(server).enforce()
        assert revoked == {evil}
        with pytest.raises(RegistrationError):
            server.post_update(evil, [], now=52.0)
        assert server.stats_for(fakes[0], 1).reporters == 0

    def test_corroboration_counts_keys_with_a_second_reporter(self):
        server = ServerDB()
        mixed, witness = (server.register(now=0.0) for _ in range(2))
        for uuid, urls in (
            (mixed, ["http://lone.example/", "http://shared.example/"]),
            (witness, ["http://shared.example/"]),
        ):
            server.post_update(
                uuid,
                [ReportItem(url=u, asn=1, stages=(BlockType.BLOCK_PAGE,),
                            measured_at=1.0) for u in urls],
                now=2.0,
            )
        profiles = ReputationAnalyzer(server).profiles()
        assert profiles[mixed].corroboration == 0.5
        assert profiles[witness].corroboration == 1.0

    def test_honest_users_never_flagged(self):
        server, honest, _real = self.seed_server()
        suspects = ReputationAnalyzer(server).flag_suspects()
        assert not suspects
