"""Closed-form oracles: each expected value is computed from a run's
inputs, never from another run or a golden.

Fleet convergence (DESIGN.md §9.3).  A plane's target is the AS's shard
version when its last reporter posts, at the first sweep at or after
its latest ``report_at``.  Every client applies that version on its
next pull, which comes due within one ``pull_interval`` of its last and
is served at the first sweep after that.  So every plane of every AS
converges, whatever its reporters posted (a last post that changed
nothing leaves a target most clients already hold), and

    onset + convergence <= max(report_at) + pull_interval + tick.

An AS converges with its latest plane, so the bound holds per AS over
all its planes' reporters.  Each plane's detection window bounds
``report_at - onset`` from the inputs alone.
"""

import pytest

from repro.core.fleet import ClientCohort, run_fleet_storm
from repro.planes.csaw import BROWSE_WINDOW
from tests._reference_fleet import run_storm


def assert_convergence_bound(cohort):
    """Every converged AS and plane of a finished storm on ``cohort``
    converged by its latest report plus one pull interval and one tick."""
    metrics = cohort.metrics
    slack = cohort.pull_interval + cohort.tick
    for st in cohort.shards:
        onset = st.wave_started_at
        latest = []
        for group in st.groups:
            last = max(group.report_at)
            latest.append(last)
            convergence = metrics.convergence_by_plane[group.name][st.asn]
            if convergence >= 0.0:
                assert onset + convergence <= last + slack, (st.asn, group.name)
        convergence = metrics.convergence_by_as[st.asn]
        if convergence >= 0.0:
            assert onset + convergence <= max(latest) + slack, st.asn


STORM = dict(seed=3, n_ases=6, clients_per_as=50)
SPARSE_LIST = [
    {"kind": "csaw", "fraction": 0.05},
    {"kind": "problist", "fraction": 0.05, "coverage": 0.1},
]
#: Each storm's latest possible post after onset: the C-Saw browse
#: window, or the probe list's default 600 s scan interval.
CASES = {
    # No wave URL: every report is empty and the shard never changes,
    # so the target is the version clients get from their first pull.
    "no-wave-urls": (dict(urls_per_as=0), BROWSE_WINDOW[1]),
    # A one-URL wave that a 10%-coverage probe list mostly misses: the
    # probe list's last post changes nothing.
    "sparse-probe-list": (dict(urls_per_as=1, planes=SPARSE_LIST), 600.0),
    # Sweeps between laps, so served slices wrap past the last rank.
    "fractional-tick": (
        dict(urls_per_as=1, planes=SPARSE_LIST, tick=600.0 / 6.5), 600.0
    ),
}


class TestFleetConvergence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_as_and_plane_converges_within_the_bound(self, case):
        kwargs, window = CASES[case]
        cohort = run_storm(ClientCohort, **STORM, **kwargs)
        metrics = cohort.metrics
        if "tick" not in kwargs:
            # run_storm drives the storm exactly as run_fleet_storm does.
            assert metrics == run_fleet_storm(**STORM, **kwargs)
        by_as = metrics.convergence_by_as
        assert len(by_as) == STORM["n_ases"]
        assert min(by_as.values()) >= 0.0, by_as
        for plane, converged in metrics.convergence_by_plane.items():
            assert min(converged.values()) >= 0.0, (plane, converged)
        assert_convergence_bound(cohort)
        # The same bound from the inputs alone: no report lands later
        # than its plane's window after onset.
        assert max(by_as.values()) <= window + 600.0 + cohort.tick
