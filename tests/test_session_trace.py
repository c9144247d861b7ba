"""The session layer's trace bus: every served response carries a full,
monotonically timestamped stage trace, and the per-stage PLT breakdown
aggregates upward."""

import pytest

from repro.core import (
    BlockStatus,
    CSawClient,
    SessionTrace,
)
from repro.core.trace import (
    STAGE_LOCAL_DNS,
    STAGE_SESSION,
    transport_stage,
)
from repro.workloads.scenarios import pakistan_case_study


def make_client(scenario, isp, name, config=None):
    return CSawClient(
        scenario.world,
        name,
        [isp],
        transports=scenario.make_transports(name),
        config=config,
    )


def request(scenario, client, url):
    def proc():
        response = yield from client.request(url)
        yield response.measurement_process
        return response

    return scenario.world.run_process(proc())


@pytest.fixture()
def scenario():
    return pakistan_case_study(seed=83, with_proxy_fleet=False)


def assert_well_formed(trace, url):
    assert trace is not None
    assert len(trace) > 0
    assert trace.url == url
    stamps = [event.t for event in trace]
    assert stamps == sorted(stamps)
    # The session envelope opens the trace and a serve event exists.
    first = next(iter(trace))
    assert first.stage == STAGE_SESSION and first.kind == "begin"
    assert any(e.kind == "serve" for e in trace)
    assert trace.stage_durations()


class TestServedResponseTraces:
    def test_unknown_flow_unblocked(self, scenario):
        client = make_client(scenario, scenario.isp_a, "tr1")
        url = scenario.urls["small-unblocked"]
        response = request(scenario, client, url)
        assert response.ok
        assert_well_formed(response.trace, url)
        sequence = [e.stage for e in response.trace if e.kind == "begin"]
        assert sequence[0] == STAGE_SESSION
        assert STAGE_LOCAL_DNS in sequence

    def test_unknown_flow_circumvented_has_transport_events(self, scenario):
        client = make_client(scenario, scenario.isp_a, "tr2")
        url = scenario.urls["youtube"]
        response = request(scenario, client, url)
        assert response.status is BlockStatus.BLOCKED
        assert response.path != "direct"
        assert_well_formed(response.trace, url)
        kinds = {
            (e.stage, e.kind)
            for e in response.trace
            if e.stage.startswith("transport:")
        }
        winner = transport_stage(response.path)
        assert (winner, "attempt") in kinds
        assert (winner, "result") in kinds

    def test_blocked_flow_trace_is_fresh_per_request(self, scenario):
        client = make_client(scenario, scenario.isp_a, "tr3")
        url = scenario.urls["youtube"]
        first = request(scenario, client, url)
        second = request(scenario, client, url)  # now known-blocked
        assert second.status is BlockStatus.BLOCKED
        assert_well_formed(second.trace, url)
        assert second.trace is not first.trace
        assert any(
            e.stage.startswith("transport:") and e.kind == "result"
            for e in second.trace
        )

    def test_unblocked_flow_measures_direct(self, scenario):
        client = make_client(scenario, scenario.isp_a, "tr4")
        url = scenario.urls["small-unblocked"]
        request(scenario, client, url)
        second = request(scenario, client, url)  # now known-unblocked
        assert second.status is BlockStatus.NOT_BLOCKED
        assert_well_formed(second.trace, url)
        assert any(
            e.stage == STAGE_LOCAL_DNS for e in second.trace if e.kind == "begin"
        )

    def test_breakdown_aggregates_to_client_stats(self, scenario):
        client = make_client(scenario, scenario.isp_a, "tr5")
        request(scenario, client, scenario.urls["small-unblocked"])
        request(scenario, client, scenario.urls["youtube"])
        stats = client.stats()
        assert stats["sessions_completed"] == 2
        breakdown = stats["plt_breakdown"]
        assert STAGE_SESSION in breakdown
        assert STAGE_LOCAL_DNS in breakdown
        assert all(seconds >= 0.0 for seconds in breakdown.values())


class TestTraceInvariants:
    def test_emit_rejects_backwards_timestamps(self):
        clock = [5.0]
        trace = SessionTrace(lambda: clock[0], url="http://x.example/")
        trace.begin(STAGE_SESSION)
        clock[0] = 3.0
        with pytest.raises(ValueError):
            trace.mark(STAGE_SESSION, "time ran backwards")

    def test_stage_durations_sum_span_ends(self):
        clock = [0.0]
        trace = SessionTrace(lambda: clock[0])
        started = trace.begin(STAGE_LOCAL_DNS)
        clock[0] = 2.5
        trace.end(STAGE_LOCAL_DNS, started)
        assert trace.stage_durations() == {STAGE_LOCAL_DNS: 2.5}
