"""Request paths build no reference cycles.

``Environment.run`` pauses the cyclic collector for its whole loop
(DESIGN.md §6), so a cycle that a request builds is freed only by the
first collection after ``run()`` returns: in a pilot, every request's
graph (trace, fetch results, responses, finished generators) stayed in
memory for the whole run (DESIGN.md §19).  These tests turn automatic
collection off, run request paths while their world is still referenced,
and require ``gc.collect()`` to find nothing unreachable: what a request
leaves behind must be freed by reference counting alone.
"""

import gc
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.circumvent import LanternSystem
from repro.core import CSawClient, CSawConfig
from repro.core.detection import measure_direct_path
from repro.workloads.pilot import PilotConfig, PilotStudy
from repro.workloads.scenarios import pakistan_case_study

#: local_DB record TTL of the C-Saw clients below; each pass starts once
#: every record of the previous pass has expired.
RECORD_TTL = 60.0
TABLE5_MECHANISMS = (
    "tcp-ip", "dns-servfail", "dns-refused", "http-blockpage", "tcp-ip+dns",
)


@contextmanager
def _collector_off():
    """Collect, then turn automatic collection off until the block ends."""
    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(0)
    try:
        yield
    finally:
        gc.set_threshold(*threshold)


def _assert_no_unreachable(what):
    """One full collection must find nothing; name what it found if not."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
    gc.collect()  # free what DEBUG_SAVEALL kept
    assert found == 0, (
        f"{what}: {found} unreachable objects, {kinds.most_common(8)}"
    )


def test_small_pilot_leaves_no_cyclic_garbage():
    study = PilotStudy(PilotConfig(
        seed=3, n_users=20, n_ases=4, n_sites=300, duration_days=10,
    )).build()
    with _collector_off():
        study.run()
        _assert_no_unreachable("pilot")
    assert study.server.client_count == 20


# -- one request flavour per paper_suite path --------------------------------
#
# Each ``prepare(scenario)`` sets up its clients and returns a generator
# function that drives one pass of requests.


def _csaw(mode):
    def prepare(scenario):
        world = scenario.world
        name = f"csaw-{mode}"
        client = CSawClient(
            world, name, [scenario.isp_a],
            transports=scenario.make_transports(name),
            config=CSawConfig(
                trace_mode=mode,
                record_ttl=RECORD_TTL,
                probe_probability=1.0,
            ),
        )
        urls = list(scenario.urls.values())

        def one_pass():
            yield world.env.timeout(2 * RECORD_TTL)
            for url in urls:
                # not-measured first, then blocked or not-blocked
                for _ in range(2):
                    response = yield from client.request(url)
                    yield response.measurement_process
            yield world.env.process(
                client.load_page(scenario.urls["large-unblocked"])
            )

        return one_pass

    return prepare


def _direct(scenario):
    world = scenario.world
    host, access = world.add_client("t5-client", [scenario.isp_a])

    def one_pass():
        for key in TABLE5_MECHANISMS:
            ctx = world.new_ctx(host, access, stream=f"t5/{key}")
            outcome = yield from measure_direct_path(
                world, ctx, scenario.urls[f"table5/{key}"]
            )
            assert outcome.blocked

    return one_pass


def _fetch_all(scenario, name):
    """Generator function: fetch every case-study URL through a fetcher."""
    world = scenario.world
    host, access = world.add_client(name, [scenario.isp_a])
    urls = list(scenario.urls.values())

    def fetch_all(fetcher):
        for url in urls:
            ctx = world.new_ctx(host, access, stream=f"relay/{name}")
            yield from fetcher.fetch(world, ctx, url)

    return fetch_all


def _lantern(scenario):
    transport = scenario.lantern_transport("lantern")
    fetch_all = _fetch_all(scenario, "lantern")

    def one_pass():
        # A fresh system forgets the hosts it relays, so every pass
        # detects on the direct path first and folds its failures.
        yield from fetch_all(LanternSystem(transport, proxy_all=False))

    return one_pass


def _tor(scenario):
    tor = scenario.tor_transport("tor", tor_rotation=120.0)
    fetch_all = _fetch_all(scenario, "tor")
    return lambda: fetch_all(tor)


FLAVOURS = {
    "csaw-full": _csaw("full"),
    "csaw-off": _csaw("off"),
    "direct-table5": _direct,
    "lantern": _lantern,
    "tor": _tor,
}


@pytest.mark.parametrize("flavour", list(FLAVOURS))
def test_request_path_leaves_no_cyclic_garbage(flavour):
    scenario = pakistan_case_study(seed=1, with_proxy_fleet=False)
    one_pass = FLAVOURS[flavour](scenario)
    with _collector_off():
        # Warm-up: lazy set-up (Tor circuits, caches) is not per-request.
        scenario.world.run_process(one_pass())
        gc.collect()
        scenario.world.run_process(one_pass())
        _assert_no_unreachable(flavour)
