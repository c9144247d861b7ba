"""Trace modes must never perturb measurements.

``TraceMode`` (off / full) only changes what the trace bus *records* —
verdicts, PLTs, local_DB state, and the event schedule must be
bit-identical across modes for the same seed.
"""

import pytest

from repro.core import CSawClient, TraceMode
from repro.core.config import CSawConfig
from repro.core.trace import DISABLED_TRACE, SessionTrace
from repro.workloads.scenarios import pakistan_case_study

MODES = ("off", "full")


def run_storm(trace_mode, rounds=6):
    """The same multi-URL request storm under one trace mode; returns
    everything a mode could possibly perturb."""
    scenario = pakistan_case_study(seed=29, with_proxy_fleet=False)
    world = scenario.world
    client = CSawClient(
        world,
        "modes",
        [scenario.isp_a],
        transports=scenario.make_transports("modes"),
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

    world.run_process(storm())
    verdicts = [
        (r.url, r.status, tuple(r.stages), r.plt, r.effective_plt, r.path)
        for r in responses
    ]
    local_db = [
        (rec.url, rec.status, tuple(rec.stages), rec.measured_at)
        for rec in client.local_db.records()
    ]
    return {
        "verdicts": verdicts,
        "local_db": local_db,
        "final_time": world.env.now,
        "stats": client.stats(),
        "responses": responses,
    }


class TestModeInvariance:
    """Only the trace payload may differ between modes."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {mode: run_storm(mode) for mode in MODES}

    def test_verdicts_bit_identical(self, runs):
        baseline = runs["full"]["verdicts"]
        for mode in MODES:
            assert runs[mode]["verdicts"] == baseline, mode

    def test_local_db_bit_identical(self, runs):
        baseline = runs["full"]["local_db"]
        for mode in MODES:
            assert runs[mode]["local_db"] == baseline, mode

    def test_schedule_bit_identical(self, runs):
        baseline = runs["full"]["final_time"]
        for mode in MODES:
            assert runs[mode]["final_time"] == baseline, mode

    def test_non_trace_stats_bit_identical(self, runs):
        """Every stats field except the trace-derived PLT breakdown."""
        def scrub(stats):
            return {
                k: v for k, v in stats.items() if k != "plt_breakdown"
            }

        baseline = scrub(runs["full"]["stats"])
        for mode in MODES:
            assert scrub(runs[mode]["stats"]) == baseline, mode


def count_traces_built(monkeypatch):
    """A list that grows by one per ``SessionTrace`` built from now on."""
    built = []
    init = SessionTrace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SessionTrace, "__init__", counting_init)
    return built


class TestModePayloads:
    """What each mode is allowed to record."""

    def test_off_records_nothing(self, monkeypatch):
        built = count_traces_built(monkeypatch)
        run = run_storm("off")
        # Off allocates no trace at all, not merely an empty one.
        assert built == []
        assert run["stats"]["plt_breakdown"] == {}
        for response in run["responses"]:
            assert response.trace is DISABLED_TRACE
            assert len(response.trace) == 0

    def test_full_records_everything(self, monkeypatch):
        built = count_traces_built(monkeypatch)
        run = run_storm("full")
        assert len(built) == len(run["responses"])
        assert run["stats"]["plt_breakdown"]
        for response in run["responses"]:
            assert len(response.trace) > 0


def test_parse_rejects_unknown_mode():
    for mode in ("verbose", "sampled", "ring"):
        with pytest.raises(ValueError):
            TraceMode.parse(mode)
        with pytest.raises(ValueError):
            CSawConfig(trace_mode=mode)
