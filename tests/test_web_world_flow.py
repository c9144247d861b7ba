"""Unit tests for the web model, World facade, flow context, and relay
machinery."""

import inspect
import tracemalloc

import pytest

from repro.censor.actions import IpAction, IpVerdict
from repro.censor.policy import CensorPolicy, Matcher, Rule
from repro.circumvent import DirectTransport, DomainFrontingTransport
from repro.circumvent.relay import relay_fetch
from repro.scenarios.library import FRONT
from repro.simnet import flow, web
from repro.simnet.flow import ClientLoadTracker, FlowContext
from repro.simnet.web import EmbeddedRef, WebPage, make_normal_html
from repro.simnet.world import World
from repro.urlkit import parse_url
from repro.workloads.corpus import _cdn_object_factory
from repro.workloads.pilot import PilotConfig, PilotStudy
from repro.workloads.scenarios import pakistan_case_study


@pytest.fixture()
def world():
    w = World(seed=3)
    w.add_public_resolver()
    w.add_isp(100, "isp", policy=CensorPolicy())
    return w


class TestWebModel:
    def test_vhost_selection(self, world):
        shared = world.network.add_host("shared-server", "us-east")
        a = world.web.add_site("a.example", location="us-east", host=shared)
        b = world.web.add_site("b.example", location="us-east", host=shared)
        world.web.add_page("http://a.example/", size_bytes=1000)
        world.web.add_page("http://b.example/", size_bytes=2000)
        page_a = world.web.site_serving(shared, "a.example").page("/")
        page_b = world.web.site_serving(shared, "b.example").page("/")
        assert page_a.size_bytes == 1000
        assert page_b.size_bytes == 2000
        # Unknown vhost on a multi-site server: no default.
        assert world.web.site_serving(shared, "c.example") is None

    def test_default_vhost_on_single_site_server(self, world):
        site = world.web.add_site("solo.example", location="us-east")
        world.web.add_page("http://solo.example/", size_bytes=500)
        # Host header carries an IP (ip-as-hostname): default site answers.
        page = world.web.site_serving(site.host, site.host.ip).page("/")
        assert page is not None and page.size_bytes == 500

    def test_catch_all_site(self, world):
        site = world.web.add_site(
            "cdn.example", location="global-anycast",
            catch_all=lambda path: WebPage(
                url=f"http://cdn.example{path}", size_bytes=123
            ),
        )
        assert site.page("/anything/else.jpg").size_bytes == 123

    def test_duplicate_site_rejected(self, world):
        world.web.add_site("dup.example", location="uk")
        with pytest.raises(ValueError):
            world.web.add_site("dup.example", location="uk")

    def test_page_must_belong_to_site(self, world):
        world.web.add_site("mine.example", location="uk")
        with pytest.raises(ValueError):
            world.web.add_page("http://other.example/", size_bytes=10)

    def test_page_size_validation(self, world):
        world.web.add_site("size.example", location="uk")
        with pytest.raises(ValueError):
            world.web.add_page("http://size.example/", size_bytes=0)

    def test_total_bytes_includes_embedded(self):
        page = WebPage(
            url="http://x.example/",
            size_bytes=1000,
            embedded=[EmbeddedRef("http://cdn.example/a", 300),
                      EmbeddedRef("http://cdn.example/b", 200)],
        )
        assert page.total_bytes == 1500

    def test_auto_html_generated(self, world):
        world.web.add_site("auto.example", location="uk")
        page = world.web.add_page("http://auto.example/news", size_bytes=1000)
        assert "auto.example" in page.html
        assert "<html>" in page.html

    def test_normal_html_mentions_embedded(self):
        html = make_normal_html(
            "h.example", "/", [EmbeddedRef("http://cdn.example/x.jpg", 10)]
        )
        assert "http://cdn.example/x.jpg" in html

    def test_site_dns_registered(self, world):
        site = world.web.add_site("dnsreg.example", location="uk")
        assert world.network.authoritative_ips("dnsreg.example") == [
            site.host.ip
        ]


class TestWorldFacade:
    def test_transit_as_idempotent(self, world):
        a = world.transit_as()
        b = world.transit_as()
        assert a is b
        assert world.resolvers[a.asn].kind == "isp"

    def test_relay_ctx_is_uncensored(self, world):
        relay = world.network.add_host("relay-x", "uk")
        ctx = world.relay_ctx(relay)
        assert ctx.middlebox is None
        assert ctx.client is relay

    def test_isp_resolver_missing_raises(self, world):
        isp = world.network.add_as(999, "bare", "pakistan")
        client, access = world.add_client("c1", [isp])
        ctx = world.new_ctx(client, access)
        with pytest.raises(KeyError):
            world.isp_resolver(ctx)

    def test_duplicate_isp_rejected(self, world):
        with pytest.raises(ValueError):
            world.add_isp(100, "again")

    def test_run_process_returns_value(self, world):
        def proc():
            yield world.env.timeout(1)
            return "done"

        assert world.run_process(proc()) == "done"


class TestFlowContext:
    def test_for_new_flow_picks_isp(self, world):
        isp = world.network.ases[100]
        client, access = world.add_client("fc", [isp])
        ctx = FlowContext.for_new_flow(client, access, world.rngs.stream("fc"))
        assert ctx.isp is isp
        assert ctx.middlebox is isp.censor

    def test_load_tracker_factor_shape(self):
        tracker = ClientLoadTracker()
        assert tracker.factor() == 1.0
        tracker.enter()
        assert tracker.factor() == 1.0  # one request: no contention
        tracker.enter()
        two = tracker.factor()
        tracker.enter()
        three = tracker.factor()
        assert two == 1.0 + flow.PENALTY
        assert three == 1.0 + flow.PENALTY * 2**1.7
        assert 1.0 < two < three <= flow.MAX_FACTOR
        for _ in range(3):
            tracker.exit()
        with pytest.raises(RuntimeError):
            tracker.exit()

    def test_load_factor_saturates(self):
        tracker = ClientLoadTracker()
        for _ in range(50):
            tracker.enter()
        assert tracker.factor() == flow.MAX_FACTOR
        assert tracker.active == 50


class TestRelayFetch:
    def make_world(self):
        world = World(seed=8)
        world.add_public_resolver()
        policy = CensorPolicy()
        isp = world.add_isp(200, "isp", policy=policy)
        world.web.add_site("origin.example", location="us-east")
        world.web.add_page("http://origin.example/", size_bytes=100_000)
        relay = world.network.add_host(
            "relay-host", "netherlands", bandwidth_bps=50e6
        )
        client, access = world.add_client("rc", [isp])
        ctx = world.new_ctx(client, access)
        return world, policy, relay, ctx

    def test_relay_fetch_succeeds(self):
        world, _policy, relay, ctx = self.make_world()
        result = world.run_process(
            relay_fetch(world, ctx, "http://origin.example/", relay,
                        transport_name="test-relay")
        )
        assert result.ok
        assert result.transport == "test-relay"
        assert result.response.size_bytes == 100_000

    def test_relay_blocked_by_censor(self):
        world, policy, relay, ctx = self.make_world()
        policy.add_rule(
            Rule(matcher=Matcher(ips={relay.ip}), ip=IpVerdict(IpAction.DROP))
        )
        result = world.run_process(
            relay_fetch(world, ctx, "http://origin.example/", relay,
                        transport_name="test-relay")
        )
        assert result.failed
        assert result.failure_stage == "tcp"

    def test_bandwidth_cap_slows_transfer(self):
        world, _policy, relay, ctx = self.make_world()
        fast = world.run_process(
            relay_fetch(world, ctx, "http://origin.example/", relay,
                        transport_name="fast")
        )
        slow = world.run_process(
            relay_fetch(world, ctx, "http://origin.example/", relay,
                        transport_name="slow", bandwidth_cap_bps=0.5e6)
        )
        assert slow.elapsed > fast.elapsed

    def test_origin_failure_surfaced(self):
        world, _policy, relay, ctx = self.make_world()
        result = world.run_process(
            relay_fetch(world, ctx, "http://no-such-origin.example/", relay,
                        transport_name="test-relay")
        )
        assert result.failed
        assert result.failure_stage == "dns"


class TestHtmlRenderedOnRead:
    """A page keeps only HTML it was given; any other page's HTML is
    rendered on read, byte for byte what construction used to store."""

    def test_a_built_pilot_world_holds_no_rendered_html(self):
        """Building the world leaves no block from the renderer alive,
        and reading every page's HTML leaves no rendering alive."""
        lines, first = inspect.getsourcelines(web.make_normal_html)
        renderer = range(first, first + len(lines))

        def held(snapshot):
            return [
                stat for stat in snapshot.statistics("lineno")
                if stat.traceback[0].filename == web.__file__
                and stat.traceback[0].lineno in renderer
            ]

        tracemalloc.start()
        try:
            study = PilotStudy(PilotConfig(seed=1, n_sites=50)).build()
            built = tracemalloc.take_snapshot()
            sites = study.world.web.sites.values()
            assert all(page.html for site in sites for page in site.pages.values())
            read = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert sites and not held(built), held(built)
        # A read may leave a free-listed list behind, never a page's HTML.
        assert sum(stat.size for stat in held(read)) < 1024, held(read)

    def test_a_served_page_renders_only_when_read(self, monkeypatch):
        """Serving a page renders none of its HTML; each read of
        ``response.html`` renders it once, equal to the rendering."""
        render = web.make_normal_html
        calls = []

        def counting(*args):
            calls.append(args)
            return render(*args)

        monkeypatch.setattr(web, "make_normal_html", counting)
        scenario = pakistan_case_study(seed=33, with_proxy_fleet=False)
        world = scenario.world
        client, access = world.add_client("unread", [scenario.isp_a])
        small = scenario.urls["small-unblocked"]
        youtube = scenario.urls["youtube"]
        for transport, url in ((DirectTransport(), small),
                               (DomainFrontingTransport(FRONT), youtube)):
            ctx = world.new_ctx(client, access, stream=f"unread/{url}")
            calls.clear()
            result = world.run_process(transport.fetch(world, ctx, url))
            assert result.ok and result.response.page is not None, result
            assert calls == [], url
            html = result.response.html
            assert len(calls) == 1, url
            parsed = parse_url(url)
            assert html == render(
                parsed.host, parsed.path, result.response.page.embedded
            ), url

    def test_response_html_is_the_page_rendering_or_the_given_html(self):
        scenario = pakistan_case_study(seed=33, with_proxy_fleet=False)
        world = scenario.world
        refs = [EmbeddedRef("http://cdn.example/a.jpg", 300)]
        page = WebPage(url="http://Mixed.example/p?q=1", size_bytes=10,
                       embedded=refs)
        assert page.html == make_normal_html("mixed.example", "/p?q=1", refs)

        world.web.add_site("cdn-test.example", location="global-anycast",
                           catch_all=_cdn_object_factory("cdn-test.example"))
        world.web.add_site("given.example", location="us-east")
        world.web.add_page("http://given.example/", size_bytes=500,
                           html="<p>given</p>")
        client, access = world.add_client("reader", [scenario.isp_a])

        def served(transport, url):
            ctx = world.new_ctx(client, access, stream=f"html/{url}")
            result = world.run_process(transport.fetch(world, ctx, url))
            assert result.ok, result
            return result.response

        small = scenario.urls["small-unblocked"]
        youtube = scenario.urls["youtube"]
        for transport, url in ((DirectTransport(), small),
                               (DomainFrontingTransport(FRONT), youtube)):
            response = served(transport, url)
            parsed = parse_url(url)
            assert response.html == make_normal_html(
                parsed.host, parsed.path, response.page.embedded
            ), url
        cdn = served(DirectTransport(), "http://cdn-test.example/img/1.jpg")
        assert cdn.html == make_normal_html("cdn-test.example", "/img/1.jpg", [])
        given = served(DirectTransport(), "http://given.example/")
        assert given.html == "<p>given</p>"
