"""Tests for the page-load model and the end-to-end client page loads."""

import pytest

from repro.circumvent import DirectTransport
from repro.core import CSawClient
from repro.simnet.browser import Semaphore, load_page
from repro.simnet.engine import Environment
from repro.simnet.web import EmbeddedRef
from repro.workloads.scenarios import pakistan_case_study


@pytest.fixture()
def scenario():
    sc = pakistan_case_study(seed=111, with_proxy_fleet=False)
    world = sc.world
    world.web.add_site("rich.example", location="us-east")
    world.web.add_site("cdn.rich.example", location="global-anycast")
    refs = [
        EmbeddedRef(url=f"http://cdn.rich.example/obj{i}.jpg", size_bytes=20_000)
        for i in range(8)
    ]
    for i in range(8):
        world.web.add_page(
            f"http://cdn.rich.example/obj{i}.jpg", size_bytes=20_000
        )
    world.web.add_page("http://rich.example/", size_bytes=80_000, embedded=refs)
    return sc


class TestSemaphore:
    def test_fifo_limit(self):
        env = Environment()
        sem = Semaphore(env, capacity=2)
        order = []

        def worker(name, hold):
            yield sem.acquire()
            order.append((name, env.now))
            yield env.timeout(hold)
            sem.release()

        for name, hold in [("a", 5), ("b", 5), ("c", 1)]:
            env.process(worker(name, hold))
        env.run()
        starts = dict((n, t) for n, t in order)
        assert starts["a"] == 0 and starts["b"] == 0
        assert starts["c"] == 5  # waited for a slot

    def test_over_release_rejected(self):
        env = Environment()
        sem = Semaphore(env, capacity=1)
        with pytest.raises(RuntimeError):
            sem.release()

    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Semaphore(env, capacity=0)


class TestLoadPage:
    def fetcher_for(self, scenario, isp, name):
        world = scenario.world
        client, access = world.add_client(name, [isp])
        transport = DirectTransport()

        def fetcher(url):
            ctx = world.new_ctx(client, access, stream=f"pl/{name}")
            result = yield from transport.fetch(world, ctx, url)
            return result

        return fetcher

    def test_page_with_objects_loads_all(self, scenario):
        world = scenario.world
        fetcher = self.fetcher_for(scenario, scenario.isp_a, "pl1")
        result = world.run_process(
            load_page(world.env, fetcher, "http://rich.example/")
        )
        assert result.ok
        assert len(result.objects) == 8
        assert all(obj.ok for obj in result.objects)
        assert result.plt > result.main.elapsed

    def test_object_failures_do_not_fail_page(self, scenario):
        world = scenario.world
        from repro.censor.actions import IpAction, IpVerdict
        from repro.censor.policy import Matcher, Rule

        cdn_ip = world.network.hosts_by_name["cdn.rich.example"].ip
        policy = world.network.ases[scenario.isp_a.asn].censor.policy
        policy.add_rule(
            Rule(matcher=Matcher(ips={cdn_ip}), ip=IpVerdict(IpAction.RST)),
        )
        fetcher = self.fetcher_for(scenario, scenario.isp_a, "pl2")
        result = world.run_process(
            load_page(world.env, fetcher, "http://rich.example/")
        )
        assert result.ok
        assert len(result.objects) == 8
        assert all(obj.failed for obj in result.objects)
        policy.remove_rules("")  # clean up the anonymous rule

    def test_parallelism_cap_slows_load(self, scenario):
        world = scenario.world
        fetcher_wide = self.fetcher_for(scenario, scenario.isp_clean, "pl3")
        fetcher_narrow = self.fetcher_for(scenario, scenario.isp_clean, "pl4")
        wide = world.run_process(
            load_page(world.env, fetcher_wide, "http://rich.example/", max_parallel=8)
        )
        narrow = world.run_process(
            load_page(world.env, fetcher_narrow, "http://rich.example/", max_parallel=1)
        )
        assert narrow.plt > wide.plt

    def test_failed_main_returns_immediately(self, scenario):
        world = scenario.world
        fetcher = self.fetcher_for(scenario, scenario.isp_a, "pl5")
        result = world.run_process(
            load_page(world.env, fetcher, "http://nonexistent-xyz.example/")
        )
        assert not result.ok
        assert result.objects == []


class TestClientPageLoad:
    def test_csaw_client_loads_page_with_cdn_objects(self, scenario):
        client = CSawClient(
            scenario.world,
            "page-user",
            [scenario.isp_a],
            transports=scenario.make_transports("page-user"),
        )
        result = scenario.world.run_process(
            client.load_page("http://rich.example/")
        )
        assert result.ok
        assert len(result.objects) == 8
        # Let the background measurement workers finish, then check that
        # every object URL went through the proxy and got measured.
        scenario.world.env.run()
        assert client.local_db.record_count >= 2  # rich.example + cdn origin
