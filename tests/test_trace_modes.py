"""Trace modes must never perturb measurements.

``TraceMode`` (off / sampled / ring / full) only changes what the trace
bus *records* — verdicts, PLTs, local_DB state, and the event schedule
must be bit-identical across modes for the same seed.  Sampling draws
come from a dedicated RNG stream precisely so this holds.
"""

import pytest

from repro.core import CSawClient, TraceMode
from repro.core.config import CSawConfig
from repro.core.trace import DISABLED_TRACE, SessionTrace
from repro.workloads.scenarios import pakistan_case_study

MODES = ("off", "sampled", "ring", "full")


def run_storm(trace_mode, rounds=6, sample_rate=0.5):
    """The same multi-URL request storm under one trace mode; returns
    everything a mode could possibly perturb."""
    scenario = pakistan_case_study(seed=29, with_proxy_fleet=False)
    world = scenario.world
    client = CSawClient(
        world,
        "modes",
        [scenario.isp_a],
        transports=scenario.make_transports("modes"),
        config=CSawConfig(
            probe_probability=0.0,
            trace_mode=trace_mode,
            trace_sample_rate=sample_rate,
            trace_ring_size=8,
        ),
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
        "module": client.measurement,
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
        assert run["module"].sessions_traced == 0
        for response in run["responses"]:
            assert response.trace is DISABLED_TRACE
            assert len(response.trace) == 0

    def test_full_records_everything(self, monkeypatch):
        built = count_traces_built(monkeypatch)
        run = run_storm("full")
        assert len(built) == len(run["responses"])
        assert run["module"].sessions_traced == len(run["responses"])
        assert run["stats"]["plt_breakdown"]
        for response in run["responses"]:
            assert len(response.trace) > 0

    def test_ring_bounds_every_trace(self):
        run = run_storm("ring")
        assert run["module"].sessions_traced == len(run["responses"])
        for response in run["responses"]:
            assert 0 < len(response.trace) <= 8

    def test_sampled_records_a_subset_scaled(self):
        run = run_storm("sampled", sample_rate=0.5)
        traced = run["module"].sessions_traced
        n = len(run["responses"])
        assert 0 < traced < n
        disabled = [r for r in run["responses"] if not r.trace.enabled]
        assert len(disabled) == n - traced
        # Sampled breakdown estimates the full deployment: each traced
        # session's durations are scaled by 1/p, so the total stays in
        # the same ballpark as the full-mode storm (same seed, same
        # schedule — only which sessions record differs).
        full = run_storm("full")
        sampled_total = sum(run["stats"]["plt_breakdown"].values())
        full_total = sum(full["stats"]["plt_breakdown"].values())
        assert sampled_total == pytest.approx(full_total, rel=0.75)

    def test_sampled_scale_is_inverse_rate(self):
        run = run_storm("sampled", sample_rate=0.25)
        assert run["module"].trace_scale == pytest.approx(4.0)


def test_parse_rejects_unknown_mode():
    with pytest.raises(ValueError):
        TraceMode.parse("verbose")
    with pytest.raises(ValueError):
        CSawConfig(trace_mode="verbose")
