"""Library performance: event-kernel and policy-lookup throughput.

Not a paper artefact — a regression guard for the substrate itself.  The
pilot study pushes ~10^6 events through the kernel and consults censor
policies on every protocol stage; if either slows down an order of
magnitude, every experiment in this repo does too.  The kernel storms
are the ones ``tests/test_engine.py`` runs under a profile hook to
check that the event loop calls nothing outside the kernel.
"""

import pytest

from repro.censor.actions import DnsAction, DnsVerdict
from repro.censor.policy import CensorPolicy, Matcher, Rule
from repro.core.globaldb import ReportItem, ServerDB
from repro.core.records import BlockType
from tests.test_engine import run_spawn_join_storm, run_timer_storm


def test_kernel_event_throughput(benchmark):
    """~10k timeout events per round."""
    result = benchmark(run_timer_storm)
    assert result > 0


def test_kernel_spawn_join_throughput(benchmark):
    """Process trees: spawn, barrier-join, value propagation."""
    total = benchmark(run_spawn_join_storm)
    assert total == 40 * 27  # 3^3 leaves per root


def make_big_policy(n_domains=500):
    policy = CensorPolicy(name="big")
    domains = {f"blocked{i}.example.com" for i in range(n_domains)}
    policy.add_rule(
        Rule(matcher=Matcher(domains=domains),
             dns=DnsVerdict(DnsAction.NXDOMAIN))
    )
    return policy


def test_policy_lookup_throughput(benchmark):
    """Suffix-set domain matching must stay O(#labels) per query."""
    policy = make_big_policy()

    def lookups():
        hits = 0
        for i in range(2000):
            if policy.on_dns_query(f"www.blocked{i % 600}.example.com").action \
                    is DnsAction.NXDOMAIN:
                hits += 1
        return hits

    hits = benchmark(lookups)
    # Three full 600-cycles hit 500 each; the 200-remainder all hit.
    assert hits == 3 * 500 + 200


def make_crowdsourced_server(n_entries=5000, n_ases=10, urls_per_client=25):
    server = ServerDB(entry_ttl=None)
    urls = [f"http://site{i}.example.com/" for i in range(n_entries // n_ases)]
    index = 0
    for asn_offset in range(n_ases):
        asn = 30000 + asn_offset
        for start in range(0, len(urls), urls_per_client):
            uuid = server.register(now=float(index))
            index += 1
            server.post_update(
                uuid,
                [
                    ReportItem(
                        url=url,
                        asn=asn,
                        stages=(BlockType.BLOCK_PAGE,),
                        measured_at=1.0,
                    )
                    for url in urls[start : start + urls_per_client]
                ],
                now=2.0,
            )
    return server


def test_globaldb_pull_throughput(benchmark):
    """Per-AS pulls must scale with the shard, not the whole table."""
    server = make_crowdsourced_server()
    per_as = 5000 // 10

    def pulls():
        total = 0
        for asn_offset in range(10):
            total += len(server.blocked_for_as(30000 + asn_offset, now=3.0))
        return total

    total = benchmark(pulls)
    assert total == 10 * per_as


def test_globaldb_delta_sync_throughput(benchmark):
    """A no-change delta pull must be O(1), not a snapshot rebuild."""
    server = make_crowdsourced_server()
    versions = {
        30000 + off: server.version_for_as(30000 + off) for off in range(10)
    }

    def pulls():
        transferred = 0
        for asn, version in versions.items():
            batch = server.sync_batch_for_as(
                asn, now=3.0, since_version=version
            )
            assert not batch.full
            transferred += batch.transferred
        return transferred

    assert benchmark(pulls) == 0


def run_session_request_storm(trace_mode, rounds=10):
    """The full request path: session dispatch, Figure-4 detection,
    circumvention, redundancy, and (unless ``trace_mode`` is ``off``)
    per-stage trace emission."""
    from repro.core import CSawClient
    from repro.core.config import CSawConfig
    from repro.workloads.scenarios import pakistan_case_study

    scenario = pakistan_case_study(seed=5, with_proxy_fleet=False)
    world = scenario.world
    client = CSawClient(
        world,
        "bench",
        [scenario.isp_a],
        transports=scenario.make_transports("bench"),
        config=CSawConfig(probe_probability=0.0, trace_mode=trace_mode),
    )
    urls = [
        scenario.urls["small-unblocked"],
        scenario.urls["youtube"],
        scenario.urls["table5/tcp-ip"],
    ]
    responses = []

    def storm():
        for _ in range(rounds):
            for url in urls:
                response = yield from client.request(url)
                yield response.measurement_process
                responses.append(response)
        return len(responses)

    served = world.run_process(storm())
    assert served == rounds * len(urls)
    return responses


@pytest.mark.parametrize("trace_mode", ["full", "off"])
def test_session_request_throughput(benchmark, trace_mode):
    """End-to-end request path, timed with full tracing and with tracing
    off side by side.  Under ``full`` every served response must carry a
    non-empty, monotonically stamped stage trace; under ``off`` none
    records anything."""
    responses = benchmark(run_session_request_storm, trace_mode)
    assert responses
    for response in responses:
        trace = response.trace
        if trace_mode == "off":
            assert len(trace) == 0
            continue
        assert trace is not None and len(trace) > 0
        stamps = [event.t for event in trace.events]
        assert stamps == sorted(stamps)
