"""The fleet layer: record-array cohorts, batched pulls, convergence.

The bench (``benchmarks/bench_fleet_storm.py``) proves the scale story;
these tests pin the semantics at small sizes: same-seed determinism,
worker-count invariance of the sharded fan-out, convergence accounting,
batch sharing, metric merging, and the per-AS footprint.
"""

import random
import sys
import tracemalloc

import pytest

from repro.core.fleet import (
    ClientCohort,
    CohortAs,
    FleetMetrics,
    run_fleet_storm,
    run_fleet_storm_sharded,
)
from repro.core.globaldb import ServerDB
from repro.simnet.engine import Environment
from tests._reference_fleet import run_reference_storm

SMALL = dict(seed=7, n_ases=4, clients_per_as=60, urls_per_as=5,
             planes=[{"kind": "csaw", "fraction": 0.05}])


def small_storm(**overrides):
    return run_fleet_storm(**{**SMALL, **overrides})


class TestFleetStorm:
    def test_same_seed_bit_identical(self):
        a, b = small_storm(), small_storm()
        assert a.summary() == b.summary()
        assert a.convergence_by_as == b.convergence_by_as

    def test_different_seed_differs(self):
        a, b = small_storm(), small_storm(seed=8)
        # Schedules are drawn from the seed; the storms must not collide.
        assert a.summary() != b.summary()

    def test_every_as_converges_within_horizon(self):
        metrics = small_storm()
        assert metrics.n_ases == 4
        assert len(metrics.convergence_by_as) == 4
        for asn, elapsed in metrics.convergence_by_as.items():
            assert elapsed >= 0.0, f"AS {asn} never converged"
            # A full pull cycle after the last report suffices.
            assert elapsed <= 600.0 + 120.0
        assert metrics.mean_convergence <= metrics.max_convergence

    def test_reports_and_entries_match_wave(self):
        metrics = small_storm()
        reporters_per_as = max(1, round(60 * 0.05))
        assert metrics.n_reporters == 4 * reporters_per_as
        assert metrics.reports_absorbed == metrics.n_reporters * 5
        # Voting dedupes: each AS's shard holds exactly the 5 wave URLs.
        assert metrics.server_entries == 4 * 5

    def test_batches_shared_across_cohort(self):
        metrics = small_storm()
        # Every client pulls ~2-3 times over the horizon, but batch
        # construction is amortized per (AS, since-version, tick).
        assert metrics.pulls_served >= 2 * metrics.n_clients
        assert metrics.batches_built < metrics.pulls_served / 2

    def test_sync_cost_accounted_per_client(self):
        metrics = small_storm()
        assert metrics.sync_rows >= metrics.n_clients  # everyone caught up
        assert metrics.bytes_per_client > 0
        assert metrics.rows_per_client >= 5  # the wave, at least once

    def test_pending_zero_when_every_reporter_posted(self):
        metrics = small_storm()
        # All reporters detected within the horizon: nothing left unposted.
        assert metrics.pending_at_horizon == 0
        assert set(metrics.pending_by_as.values()) == {0}
        assert metrics.summary()["pending_at_horizon"] == 0

    def test_pending_surfaces_cut_off_reporters(self):
        # Horizon ends right after the wave: most detection delays have
        # not elapsed, so most reporters' wave URLs are still pending —
        # and pending + absorbed must account for every wave URL.
        metrics = small_storm(wave_at=300.0, horizon=301.0)
        assert metrics.pending_at_horizon > 0
        assert (
            metrics.pending_at_horizon + metrics.reports_absorbed
            == metrics.n_reporters * 5
        )
        assert any(v > 0 for v in metrics.pending_by_as.values())

    def test_sweep_matches_reference_loop(self):
        grouped = small_storm()
        spec = run_reference_storm(**SMALL)
        assert grouped.summary() == spec.summary()
        assert grouped.convergence_by_as == spec.convergence_by_as

    def test_one_write_call_per_plane_group_and_tick(self):
        """report_flood's plane mix at a small size: every (AS, plane
        group, tick with due reporters) makes exactly one server write
        call, carrying those reporters' uploads in report order, whether
        the plane posts one shared list (C-Saw, the probe list) or each
        reporter's own (Encore).  With 20 wave URLs and a 0.2 miss rate,
        no Encore vantage misses every URL, so every due reporter
        uploads."""
        server = ServerDB(entry_ttl=None)
        calls = []
        post_updates = server.post_updates

        def record(uploads, now):
            calls.append((now, [uuid for uuid, _ in uploads]))
            return post_updates(uploads, now)

        def refuse(uuid, reports, now):
            raise AssertionError("the fleet posted one upload alone")

        server.post_updates = record
        server.post_update = refuse
        cohort = ClientCohort(
            server, asns=[64700, 64701, 64702], clients_per_as=500, seed=5,
            planes=[
                {"kind": "csaw", "fraction": 0.04},
                {"kind": "encore", "fraction": 0.05, "miss_rate": 0.2},
                {"kind": "problist", "fraction": 0.01, "coverage": 0.9},
            ],
        )
        ticks = []
        service = cohort.service

        def timed(now):
            ticks.append(now)
            service(now)

        cohort.service = timed
        env = Environment()

        def wave():
            yield env.timeout(300.0)
            cohort.start_wave(env.now, urls_per_as=20)

        env.process(wave())
        env.process(cohort.run(env, 300.0 + 2 * 600.0 + cohort.tick))
        env.run()
        assert cohort.finalize().pending_at_horizon == 0
        expected = []
        previous = float("-inf")
        for now in ticks:
            for st in cohort.shards:
                for group in st.groups:
                    due = [
                        group.uuids[r] for r in group.report_order
                        if previous < group.report_at[r] <= now
                    ]
                    if due:
                        expected.append((now, due))
            previous = now
        assert calls == expected
        # Each call's reporters belong to one AS and one plane group.
        owner = {
            uuid: (st.asn, group.name)
            for st in cohort.shards for group in st.groups
            for uuid in group.uuids
        }
        for _, uuids in calls:
            assert len({owner[uuid] for uuid in uuids}) == 1
        assert {owner[uuids[0]][1] for _, uuids in calls} == {
            "csaw", "encore", "problist"
        }

    def test_no_wave_no_convergence_entry(self):
        server = ServerDB(entry_ttl=None)
        env = Environment()
        cohort = ClientCohort(server, asns=[1, 2], clients_per_as=10, seed=0)
        env.process(cohort.run(env, until=1200.0))
        env.run()
        metrics = cohort.finalize()
        assert metrics.reports_absorbed == 0
        # No wave was started: convergence is reported as "did not".
        assert set(metrics.convergence_by_as.values()) == {-1.0}
        assert metrics.pulls_served > 0


def _comparable(metrics):
    """``summary()`` with NaN (no AS converged) made equal to itself."""
    return {
        key: None if value != value else value
        for key, value in metrics.summary().items()
    }


class TestShardedFanout:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_invariant(self, workers):
        """Same seed, any worker count, run again: identical metrics."""
        for kwargs in (
            dict(seed=5, n_ases=6, clients_per_as=30),
            dict(seed=11, n_ases=4, clients_per_as=40),
        ):
            single = run_fleet_storm_sharded(workers=1, **kwargs)
            for count in (1, workers):
                sharded = run_fleet_storm_sharded(workers=count, **kwargs)
                assert sharded.summary() == single.summary()
                assert sharded.convergence_by_as == single.convergence_by_as

    def test_sharded_matches_unsharded(self):
        adversaries = [
            {"kind": "csaw", "fraction": 0.05},
            {"kind": "flood", "fraction": 0.05, "urls_each": 3},
            {"kind": "clique", "fraction": 0.05, "urls_each": 5},
        ]
        for kwargs in (
            dict(seed=5, n_ases=6, clients_per_as=30),
            dict(seed=3, n_ases=8, clients_per_as=50),
            dict(seed=5, n_ases=0, clients_per_as=30),
            dict(seed=4, n_ases=5, clients_per_as=40, planes=adversaries),
        ):
            plain = run_fleet_storm(**kwargs)
            sharded = run_fleet_storm_sharded(workers=3, **kwargs)
            assert _comparable(sharded) == _comparable(plain), kwargs
            assert sharded.convergence_by_as == plain.convergence_by_as
            assert sharded.reports_by_plane == plain.reports_by_plane

    def test_more_workers_than_ases(self):
        merged = run_fleet_storm_sharded(
            seed=5, n_ases=2, clients_per_as=10, workers=5
        )
        assert merged.n_ases == 2
        assert len(merged.convergence_by_as) == 2


class TestFleetMetrics:
    def test_merge_sums_and_concatenates(self):
        a = FleetMetrics(
            n_clients=10, n_ases=1, reports_absorbed=3,
            first_report_at=12.0, last_report_at=17.0,
            pulls_served=20, batches_built=2, sync_rows=30, sync_bytes=400,
            server_entries=3, convergence_by_as={1: 10.0},
        )
        b = FleetMetrics(
            n_clients=20, n_ases=2, reports_absorbed=4,
            first_report_at=10.0, last_report_at=14.0,
            pulls_served=40, batches_built=3, sync_rows=60, sync_bytes=800,
            server_entries=6, convergence_by_as={2: 20.0, 3: -1.0},
        )
        merged = a.merge(b)
        assert merged.n_clients == 30
        # The window spans partitions: global first (10) to global last (17).
        assert merged.report_window == 7.0
        assert merged.sync_bytes == 1200
        assert merged.convergence_by_as == {1: 10.0, 2: 20.0, 3: -1.0}
        assert merged.bytes_per_client == pytest.approx(40.0)
        # Unconverged ASes are excluded from the aggregates.
        assert merged.mean_convergence == pytest.approx(15.0)
        assert merged.max_convergence == pytest.approx(20.0)

    def test_merge_empty_partition_is_identity(self):
        a = FleetMetrics(
            n_clients=10, n_ases=1, reports_absorbed=3,
            first_report_at=12.0, last_report_at=17.0,
            pulls_served=20, sync_rows=30, sync_bytes=400,
            convergence_by_as={1: 10.0}, pending_by_as={1: 0},
        )
        before = dict(a.summary())
        merged = a.merge(FleetMetrics())
        assert merged.summary() == before
        assert merged.convergence_by_as == {1: 10.0}
        # And folding into an empty accumulator adopts the partition.
        fresh = FleetMetrics().merge(
            FleetMetrics(n_clients=5, convergence_by_as={2: 4.0})
        )
        assert fresh.n_clients == 5
        assert fresh.convergence_by_as == {2: 4.0}

    def test_merge_partitions_without_reports(self):
        # Neither side absorbed a report: endpoints stay None and the
        # window is empty rather than raising on None arithmetic.
        a = FleetMetrics(n_clients=4, convergence_by_as={1: -1.0})
        b = FleetMetrics(n_clients=6, convergence_by_as={2: -1.0})
        merged = a.merge(b)
        assert merged.first_report_at is None
        assert merged.last_report_at is None
        assert merged.report_window == 0.0
        # One-sided reports adopt the reporting partition's endpoints.
        c = FleetMetrics(
            n_clients=1, first_report_at=3.0, last_report_at=9.0,
            convergence_by_as={3: 5.0},
        )
        merged = merged.merge(c)
        assert (merged.first_report_at, merged.last_report_at) == (3.0, 9.0)

    def test_merge_rejects_overlapping_as_partitions(self):
        a = FleetMetrics(n_clients=10, convergence_by_as={1: 10.0, 2: 3.0})
        b = FleetMetrics(n_clients=10, convergence_by_as={2: 20.0, 3: 1.0})
        with pytest.raises(ValueError, match=r"overlapping AS.*\[2\]"):
            a.merge(b)
        # The failed merge must not have half-applied: counters untouched.
        assert a.n_clients == 10
        assert a.convergence_by_as == {1: 10.0, 2: 3.0}

    def test_cohort_validates_inputs(self):
        server = ServerDB(entry_ttl=None)
        with pytest.raises(ValueError):
            ClientCohort(server, asns=[1], clients_per_as=0, seed=0)
        with pytest.raises(ValueError):
            ClientCohort(
                server, asns=[1], clients_per_as=5, seed=0,
                planes=[{"kind": "csaw", "fraction": 0.0}],
            )
        with pytest.raises(ValueError, match="planes must not be empty"):
            ClientCohort(server, asns=[1], clients_per_as=5, seed=0, planes=[])

    @pytest.mark.parametrize("bad", [
        {"pull_interval": 0.0},
        {"pull_interval": -600.0},
        {"tick": 0.0},
        {"tick": -1.0},
    ])
    def test_cohort_rejects_nonpositive_interval_and_tick(self, bad):
        # A zero pull_interval makes the default tick 0, which would
        # spin the service loop at one instant forever.
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            ClientCohort(
                ServerDB(entry_ttl=None), asns=[1], clients_per_as=5,
                seed=0, **bad,
            )

    def test_storm_with_zero_pull_interval_raises_instead_of_hanging(self):
        with pytest.raises(ValueError, match="pull_interval"):
            run_fleet_storm(seed=0, n_ases=1, clients_per_as=5,
                            pull_interval=0.0)


class TestCohortFootprint:
    @pytest.mark.parametrize("interval, n", [
        (0.1, 1), (600.0, 1), (0.1, 37), (600, 17), (600.0, 1000),
        (5000.0, 250),
    ])
    def test_offsets_are_the_sorted_uniform_draws(self, interval, n):
        """The offsets are ``sorted(uniform(0, I))`` bit for bit, and the
        shard's stream ends where those draws leave it."""
        for seed in range(24):
            rng, want_rng = random.Random(seed), random.Random(seed)
            shard = CohortAs(1, n, interval, rng)
            want = sorted(want_rng.uniform(0.0, interval) for _ in range(n))
            assert [x.hex() for x in shard.offsets] == [
                x.hex() for x in want
            ], (seed, interval, n)
            assert rng.getstate() == want_rng.getstate(), (seed, interval, n)

    def test_only_the_offsets_grow_with_the_population(self):
        """A 100,000-client AS keeps 8 bytes per client: its offsets.
        The sync log and the rest of its state stay small through a
        wave and two pull intervals."""
        n = 100_000
        # Plane modules import on first construction; keep that out of
        # the measured window.
        ClientCohort(ServerDB(entry_ttl=None), asns=[1], clients_per_as=1,
                     seed=0)
        server = ServerDB(entry_ttl=None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cohort = ClientCohort(server, asns=[40000], clients_per_as=n,
                                  seed=3)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / n < 12, (
            f"construction kept {retained / n:.1f} B/client"
        )

        env = Environment()

        def wave():
            yield env.timeout(300.0)
            cohort.start_wave(env.now, urls_per_as=20)

        env.process(wave())
        env.process(cohort.run(env, 300.0 + 2 * 600.0 + cohort.tick))
        env.run()
        metrics = cohort.finalize()
        (shard,) = cohort.shards
        assert shard.pulls >= 2 * n
        assert sum(shard.rows_received) == metrics.sync_rows
        sizes = {
            slot: sys.getsizeof(getattr(shard, slot))
            for slot in CohortAs.__slots__
            if slot != "offsets"
        }
        oversized = [
            f"CohortAs.{slot}: {size:,} B"
            for slot, size in sizes.items()
            if size >= 64 * 1024
        ]
        assert not oversized, ", ".join(oversized)
