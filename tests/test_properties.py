"""Property-based tests (hypothesis) on kernel and core invariants."""

import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregation import UrlPrefixIndex
from repro.core.globaldb import RegistrationError, ReportItem, ServerDB
from repro.core.localdb import LocalDatabase
from repro.core.records import (
    BlockStatus,
    BlockType,
    decode_stages,
    encode_stages,
)
from repro.core.voting import VotingLedger
from repro.simnet.engine import Environment
from tests._reference_globaldb import (
    apply_sync, plane_stats_of, recompute_plane_stats, recompute_stats,
    reporters_of, sync_for_as, vouched_keys,
)
from tests.test_ledger_sharing import assert_keys_stored_once


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1,
                    max_size=30))
    def test_clock_reaches_latest_timer(self, delays):
        env = Environment()
        done = []

        def sleeper(delay):
            yield env.timeout(delay)
            done.append(delay)

        for delay in delays:
            env.process(sleeper(delay))
        env.run()
        assert sorted(done) == sorted(delays)
        assert env.now == pytest.approx(max(delays))

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=20))
    def test_event_order_is_time_order(self, delays):
        env = Environment()
        order = []

        def sleeper(delay):
            yield env.timeout(delay)
            order.append(env.now)

        for delay in delays:
            env.process(sleeper(delay))
        env.run()
        assert order == sorted(order)

    @given(
        st.recursive(
            st.floats(min_value=0.01, max_value=5.0),
            lambda children: st.lists(children, min_size=1, max_size=3),
            max_leaves=12,
        )
    )
    @settings(max_examples=40)
    def test_random_process_trees_complete(self, tree):
        """Arbitrary trees of spawn-and-join processes all terminate and
        the root's duration equals the tree's critical path."""
        env = Environment()

        def critical_path(node):
            if isinstance(node, float):
                return node
            return max(critical_path(child) for child in node)

        def run_node(node):
            if isinstance(node, float):
                yield env.timeout(node)
                return node
            children = [env.process(run_node(child)) for child in node]
            yield env.all_of(children)
            return None

        root = env.process(run_node(tree))
        env.run(until=root)
        assert env.now == pytest.approx(critical_path(tree))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20)
    def test_same_program_same_trace(self, seed):
        """Determinism: identical programs produce identical event traces."""
        import random

        def run_program():
            env = Environment()
            rng = random.Random(seed)
            trace = []

            def worker(name):
                for _ in range(3):
                    yield env.timeout(rng.uniform(0.1, 2.0))
                    trace.append((name, round(env.now, 9)))

            for name in range(4):
                env.process(worker(name))
            env.run()
            return trace

        assert run_program() == run_program()


_paths = st.lists(
    st.sampled_from(["a", "b", "c", "d"]), min_size=0, max_size=4
).map(lambda segs: "/" + "/".join(segs) if segs else "/")


class TestPrefixIndexProperties:
    @given(st.sets(_paths, min_size=1, max_size=10), _paths)
    def test_longest_prefix_is_longest_matching_stored_path(self, stored, query):
        index = UrlPrefixIndex()
        for path in stored:
            index.add(f"http://x.example{path}")
        result = index.longest_prefix(f"http://x.example{query}")

        def is_prefix(prefix, path):
            if prefix == "/":
                return True
            return path == prefix or path.startswith(prefix + "/")

        matching = [p for p in stored if is_prefix(p, query)]
        if not matching:
            assert result is None
        else:
            expected = max(matching, key=len)
            assert result == f"http://x.example{expected}"

    @given(st.lists(_paths, min_size=1, max_size=15))
    def test_add_remove_roundtrip_empties_index(self, paths):
        index = UrlPrefixIndex()
        for path in paths:
            index.add(f"http://x.example{path}")
        for path in paths:
            index.remove(f"http://x.example{path}")
        assert len(index) == 0
        assert index.longest_prefix("http://x.example/a") is None


class TestVotingProperties:
    clients = st.sampled_from([f"c{i}" for i in range(5)])
    keys = st.sampled_from([(f"http://u{i}.example/", 1) for i in range(6)])

    @given(
        st.lists(
            st.tuples(clients, st.lists(keys, max_size=6, unique=True)),
            max_size=20,
        )
    )
    def test_vote_mass_equals_active_clients(self, operations):
        ledger = VotingLedger()
        for client, keys in operations:
            ledger.set_client_reports(client, keys)
        total = sum(
            ledger.stats(f"http://u{i}.example/", 1).votes for i in range(6)
        )
        assert total == pytest.approx(ledger.client_count())

    @given(
        st.lists(
            st.tuples(clients, st.lists(keys, max_size=6, unique=True)),
            max_size=20,
        )
    )
    def test_reporter_counts_consistent(self, operations):
        ledger = VotingLedger()
        for client, keys in operations:
            ledger.set_client_reports(client, keys)
        for i in range(6):
            url = f"http://u{i}.example/"
            stats = ledger.stats(url, 1)
            assert stats.reporters == len(reporters_of(ledger, url, 1))
            assert stats.votes <= stats.reporters + 1e-9


class TestServerDbProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # client index
                st.integers(min_value=0, max_value=9),  # url index
                st.integers(min_value=1, max_value=2),  # asn
            ),
            max_size=30,
        )
    )
    def test_download_is_union_of_posts_per_as(self, posts):
        server = ServerDB(entry_ttl=None)
        uuids = [server.register(now=float(i)) for i in range(4)]
        expected = {1: set(), 2: set()}
        for client_index, url_index, asn in posts:
            url = f"http://u{url_index}.example/"
            server.post_update(
                uuids[client_index],
                [ReportItem(url=url, asn=asn,
                            stages=(BlockType.BLOCK_PAGE,), measured_at=0.0)],
                now=1.0,
            )
            expected[asn].add(url)
        for asn in (1, 2):
            got = {e.url for e in server.blocked_for_as(asn, now=2.0)}
            assert got == expected[asn]


class TestLocalDbProperties:
    ops = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # site
            _paths,
            st.sampled_from(
                [None, BlockType.BLOCK_PAGE, BlockType.DNS_SERVFAIL]
            ),
        ),
        max_size=25,
    )

    @given(ops)
    def test_record_count_matches_index(self, operations):
        db = LocalDatabase(ttl=1e9)
        for site, path, block in operations:
            url = f"http://s{site}.example{path}"
            if block is None:
                db.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
            else:
                db.record_measurement(url, BlockStatus.BLOCKED, [block])
        assert db.record_count == len(db._index)

    @given(ops)
    def test_hostname_scoped_blocking_collapses_origin(self, operations):
        db = LocalDatabase(ttl=1e9)
        for site, path, block in operations:
            url = f"http://s{site}.example{path}"
            if block is None:
                db.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
            else:
                db.record_measurement(url, BlockStatus.BLOCKED, [block])
        # Any origin whose latest blocked evidence is hostname-scoped must
        # have at most one record (at the base URL).
        for site in range(3):
            records = [
                r for r in db.records()
                if r.url.startswith(f"http://s{site}.example")
            ]
            scoped = [r for r in records if r.hostname_scoped]
            for record in scoped:
                assert record.url == f"http://s{site}.example/"


class TestSyncWireFormatProperties:
    """The columnar batch path is an optimization of the row twin in
    ``tests/_reference_globaldb.py`` (``sync_for_as`` + ``apply_sync``) —
    hypothesis drives both through the same random post/dissent/revoke/
    pull interleavings, with and without a TTL and under one pull
    criterion per example, and demands bit-identical client state after
    every pull: the full decoded view, and what ``lookup`` returns for
    every URL the ops used and a deep path under each (acceptance for
    the delta-sync wire format).  The batch path skips vote reads under
    accept-all and decodes rows on read, so a live entry with no
    reporter or a stale decoded entry fails here."""

    #: Pull criteria: accept-all, a reporter quorum, a vote threshold.
    CRITERIA = ({}, {"min_reporters": 2}, {"min_votes": 0.5})

    # (op, client index, url index, asn offset): op 0-2 posts, 3 dissents,
    # 4 pulls on both views, 5 revokes the client and registers it anew.
    ops = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=1),
        ),
        max_size=40,
    )

    @staticmethod
    def _row(entry):
        if entry is None:
            return None
        return (entry.url, entry.asn, tuple(entry.stages), entry.measured_at,
                entry.posted_at, entry.first_measured_at, entry.last_uuid)

    @classmethod
    def _state(cls, view, urls):
        return (
            view.version,
            view.synced_asn,
            [cls._row(e) for e in view.entries()],
            [cls._row(view.lookup(url)) for url in urls],
        )

    @given(
        ttl=st.sampled_from([None, 5.0]),
        criterion=st.sampled_from(CRITERIA),
        operations=ops,
    )
    # After a full pull is read, one accept-all delta removes three of
    # its rows: one by TTL, one by a dissent and one by a revocation,
    # the last two each dropping their only reporter.  Then a refresh
    # replaces a row already read.
    @example(
        ttl=5.0,
        criterion={},
        operations=[
            (0, 0, 0, 0), (1, 1, 1, 0), (2, 2, 2, 0), (4, 0, 0, 0),
            (5, 2, 0, 0), (3, 1, 1, 0), (4, 0, 0, 0), (1, 3, 3, 0),
            (4, 0, 0, 0), (0, 3, 3, 0), (4, 0, 0, 0),
        ],
    )
    @settings(max_examples=60)
    def test_batch_and_row_merges_identical(self, ttl, criterion, operations):
        from repro.core.reporting import GlobalView

        server = ServerDB(entry_ttl=ttl)
        uuids = [server.register(now=float(i)) for i in range(4)]
        row_views = {1: GlobalView(), 2: GlobalView()}
        batch_views = {1: GlobalView(), 2: GlobalView()}
        used = sorted({url_index for _, _, url_index, _ in operations})
        urls = [
            url
            for index in used
            for url in (f"http://u{index}.example/",
                        f"http://u{index}.example/deep/page")
        ]

        def pull(asn, now):
            rows, batches = row_views[asn], batch_views[asn]
            result = sync_for_as(
                server, asn, now, since_version=rows.since_version(asn),
                **criterion
            )
            apply_sync(rows, result, now)
            batch = server.sync_batch_for_as(
                asn, now, since_version=batches.since_version(asn),
                **criterion
            )
            batches.apply_batch(batch, now)
            assert batch.transferred == result.transferred
            assert self._state(batches, urls) == self._state(rows, urls)

        now = 10.0
        for op, client_index, url_index, asn_offset in operations:
            now += 1.0
            asn, url = 1 + asn_offset, f"http://u{url_index}.example/"
            if op <= 2:
                stages = (
                    (BlockType.BLOCK_PAGE,)
                    if op == 0
                    else (BlockType.DNS_TIMEOUT, BlockType.BLOCK_PAGE)
                )
                server.post_update(
                    uuids[client_index],
                    [ReportItem(url=url, asn=asn, stages=stages,
                                measured_at=now - 0.5)],
                    now=now,
                )
            elif op == 3:
                server.post_dissent(uuids[client_index], url, asn, now=now)
            elif op == 4:
                pull(asn, now)
            else:
                server.revoke(uuids[client_index])
                uuids[client_index] = server.register(now=now)
        now += 1.0
        for asn in (1, 2):
            # One final pull so both views see the terminal server state.
            pull(asn, now)


class TestStageCodec:
    def test_round_trips_every_block_type_in_both_orders(self):
        """Each stage is its 1-based index in BlockType definition order,
        and decoding restores the order the stages were encoded in."""
        types = list(BlockType)
        assert encode_stages([]) == 0 and decode_stages(0) == []
        for i, first in enumerate(types):
            assert encode_stages((first,)) == i + 1
            assert decode_stages(i + 1) == [first]
            for second in types[i + 1:]:
                assert decode_stages(encode_stages([first, second])) == \
                    [first, second]
                assert decode_stages(encode_stages((second, first))) == \
                    [second, first]
        assert decode_stages(encode_stages(types)) == types
        assert decode_stages(encode_stages(types[::-1])) == types[::-1]


class TestGroupedSweepProperties:
    """The version-run fleet pull sweep and grouped report posts against
    the per-client reference loops in ``tests/_reference_fleet.py``:
    hypothesis drives both through random cohort shapes, plane mixes,
    rolled waves, TTL evictions and wave/pull schedules and demands the
    same :class:`FleetMetrics` (including the per-plane views and the
    report window), the same per-client record arrays, the same
    server-side serve counters, and the same server write-side state.
    After every sweep the production layout must also hold the
    invariants the sweep relies on (DESIGN.md §15).
    """

    #: Plane mixes beside the single C-Saw plane.  The probe-list plane's
    #: low coverage often leaves an AS's shared list empty, a post that
    #: still moves the report window.  The adversaries post fabricated
    #: lists: the clique's due reporters share one grouped write, the
    #: flood's each post their own.
    MIXES = {
        "encore": ({"kind": "encore", "miss_rate": 0.25},),
        "problist": (
            {"kind": "encore", "miss_rate": 0.25},
            {"kind": "problist", "coverage": 0.2},
        ),
        "adversaries": (
            {"kind": "flood", "urls_each": 3},
            {"kind": "clique", "urls_each": 5},
        ),
    }

    @staticmethod
    def _check_layout(cohort):
        for shard in cohort.shards:
            counts = [count for count, _ in shard.runs]
            versions = [version for _, version in shard.runs]
            assert sum(counts) == shard.n
            assert versions == sorted(versions)
            deadlines = shard.next_pull_at
            start = shard.pull_ptr % shard.n
            in_order = deadlines[start:] + deadlines[:start]
            assert all(a <= b for a, b in zip(in_order, in_order[1:]))

    @staticmethod
    def _storm(cohort_type, seed, n_ases, clients, urls, frac, interval,
               tick_div, wave_frac, horizon_intervals, mix, stagger_frac,
               ttl_frac, after_sweep=None):
        from tests._reference_fleet import run_storm

        planes = [{"kind": "csaw", "fraction": frac}] + [
            {**plane, "fraction": frac}
            for plane in TestGroupedSweepProperties.MIXES.get(mix, ())
        ]
        wave_at = None if wave_frac is None else wave_frac * interval
        tick = interval / tick_div
        return run_storm(
            cohort_type,
            seed=seed,
            n_ases=n_ases,
            clients_per_as=clients,
            urls_per_as=urls,
            pull_interval=interval,
            wave_at=wave_at,
            horizon=(wave_at or 0.0) + horizon_intervals * interval + tick,
            asn_base=41000,
            planes=planes,
            wave_stagger=stagger_frac * interval,
            server=ServerDB(
                entry_ttl=None if ttl_frac is None else ttl_frac * interval
            ),
            tick=tick,
            after_sweep=after_sweep,
        )

    @staticmethod
    def _plane_state(shard):
        """Each plane group's pending counts and convergence state."""
        return [
            (group.name, list(group.pending), group.target_version,
             group.unconverged, group.converged_at)
            for group in shard.groups
        ]

    @staticmethod
    def _assert_same(got, want, path="metrics"):
        """Equal, except that NaN matches NaN (unconverged aggregates)."""
        if isinstance(want, dict):
            assert got.keys() == want.keys(), path
            for key in want:
                TestGroupedSweepProperties._assert_same(
                    got[key], want[key], f"{path}.{key}"
                )
        elif isinstance(want, float) and math.isnan(want):
            assert math.isnan(got), path
        else:
            assert got == want, path

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        n_ases=st.integers(min_value=1, max_value=3),
        clients=st.integers(min_value=1, max_value=60),
        urls=st.integers(min_value=1, max_value=6),
        frac=st.floats(min_value=0.05, max_value=1.0),
        interval=st.floats(min_value=60.0, max_value=900.0),
        # Whole divisors keep sweeps on interval boundaries; fractional
        # ones make the due range wrap past the last rank mid-sweep, and
        # below 1 more than the whole population comes due per sweep.
        tick_div=(
            st.integers(min_value=1, max_value=40)
            | st.floats(min_value=0.5, max_value=40.0)
        ),
        wave_frac=st.none() | st.floats(min_value=0.0, max_value=2.0),
        horizon_intervals=st.floats(min_value=0.25, max_value=6.0),
        mix=st.sampled_from([None, "encore", "problist", "adversaries"]),
        stagger_frac=st.just(0.0) | st.floats(min_value=0.0, max_value=2.0),
        ttl_frac=st.none() | st.floats(min_value=0.2, max_value=3.0),
    )
    # Runs that wrap past the last rank while rows change (TTL
    # evictions, a rolled wave, two planes).
    @example(
        seed=27, n_ases=3, clients=32, urls=2, frac=0.3, interval=450.0,
        tick_div=6.5, wave_frac=1.5, horizon_intervals=6.0, mix="encore",
        stagger_frac=1.0, ttl_frac=1.0,
    )
    # A single client: every sweep serves all or nothing.
    @example(
        seed=3, n_ases=1, clients=1, urls=2, frac=1.0, interval=600.0,
        tick_div=1, wave_frac=0.5, horizon_intervals=6.0, mix="encore",
        stagger_frac=0.5, ttl_frac=0.5,
    )
    # No wave: no shard ever exists, so every batch has version 0.
    @example(
        seed=5, n_ases=2, clients=20, urls=3, frac=0.1, interval=300.0,
        tick_div=7, wave_frac=None, horizon_intervals=4.0, mix=None,
        stagger_frac=0.0, ttl_frac=None,
    )
    # Both adversaries beside C-Saw, with a rolled wave and TTL evictions.
    @example(
        seed=19, n_ases=2, clients=30, urls=2, frac=0.2, interval=300.0,
        tick_div=8, wave_frac=0.5, horizon_intervals=3.0,
        mix="adversaries", stagger_frac=0.5, ttl_frac=1.0,
    )
    # Three planes, where a one-URL wave leaves most probe lists empty.
    @example(
        seed=11, n_ases=3, clients=40, urls=1, frac=0.5, interval=300.0,
        tick_div=10, wave_frac=0.5, horizon_intervals=3.0, mix="problist",
        stagger_frac=0.0, ttl_frac=0.5,
    )
    @settings(max_examples=100, deadline=None)
    def test_grouped_sweep_bit_identical_to_spec(
        self, seed, n_ases, clients, urls, frac, interval, tick_div,
        wave_frac, horizon_intervals, mix, stagger_frac, ttl_frac,
    ):
        from repro.core.fleet import ClientCohort
        from tests._reference_fleet import ReferenceClientCohort
        from tests.test_oracles import assert_convergence_bound

        args = (seed, n_ases, clients, urls, frac, interval, tick_div,
                wave_frac, horizon_intervals, mix, stagger_frac, ttl_frac)
        spec = self._storm(ReferenceClientCohort, *args)
        grouped = self._storm(
            ClientCohort, *args, after_sweep=self._check_layout
        )
        g_metrics, s_metrics = grouped.metrics, spec.metrics
        self._assert_same(g_metrics.summary(), s_metrics.summary())
        self._assert_same(g_metrics.plane_summary(), s_metrics.plane_summary())
        assert g_metrics.convergence_by_as == s_metrics.convergence_by_as
        assert g_metrics.pending_by_as == s_metrics.pending_by_as
        assert g_metrics.convergence_by_plane == s_metrics.convergence_by_plane
        assert g_metrics.curve_by_plane == s_metrics.curve_by_plane
        assert (g_metrics.first_report_at, g_metrics.last_report_at) == \
            (s_metrics.first_report_at, s_metrics.last_report_at)
        # Grouped posts leave the server as one-by-one posts do.
        state = TestRunBatchedWriteProperties._state
        assert state(grouped.server) == state(spec.server)
        # Server-side serve/build accounting must agree too.
        assert grouped.server.full_syncs_served == spec.server.full_syncs_served
        assert grouped.server.delta_syncs_served == \
            spec.server.delta_syncs_served
        # Per-client record arrays: same layout, same values, bit for bit
        # (the implied pull schedule repeats the reference's additions).
        for ga, sa in zip(grouped.shards, spec.shards):
            assert ga.versions == sa.versions
            assert ga.next_pull_at == sa.next_pull_at
            assert ga.bytes_received == sa.bytes_received
            assert ga.rows_received == sa.rows_received
            assert (ga.pulls, ga.pull_ptr) == (sa.pulls, sa.pull_ptr)
            # Per-plane convergence, counted from the version runs on one
            # side and from the per-client versions on the other.
            assert self._plane_state(ga) == self._plane_state(sa)
            if wave_frac is None:
                assert set(ga.versions) <= {-1, 0}
        assert_convergence_bound(grouped)
        assert_convergence_bound(spec)

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        clients=st.integers(min_value=1, max_value=40),
        interval=st.floats(min_value=0.1, max_value=5000.0),
        laps=st.integers(min_value=0, max_value=2000),
        start=st.integers(min_value=0, max_value=39),
        pos=st.integers(min_value=0, max_value=39),
        nudge=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_due_count_matches_exact_deadline_scan(
        self, seed, clients, interval, laps, start, pos, nudge,
    ):
        """``CohortAs.due`` against a scan of exact deadlines, with
        ``now`` on (or one ulp either side of) some client's deadline —
        where many laps of rounding put the bisect estimate off."""
        import random

        from repro.core.fleet import CohortAs

        shard = CohortAs(1, clients, interval, random.Random(seed))
        shard.pull_ptr = laps * clients + start % clients

        def deadline(p):
            turns, rank = divmod(shard.pull_ptr + p, clients)
            at = shard.offsets[rank]
            for _ in range(turns):
                at += interval
            return at

        deadlines = [deadline(p) for p in range(clients)]
        assert deadlines == sorted(deadlines)
        now = deadlines[pos % clients]
        if nudge:
            now = math.nextafter(now, nudge * math.inf)
        assert shard.due(now) == sum(1 for at in deadlines if at <= now)


def shared_by(*clients):
    """Group picks: each of ``clients`` posts the group's shared list."""
    return [(client, "shared") for client in clients]


class TestRunBatchedWriteProperties:
    """ServerDB's run-batched write path against the per-item reference
    in ``tests/_reference_globaldb.py``: hypothesis drives both through
    the same uploads, group uploads, dissents, revocations, pulls and TTL
    evictions and demands identical shards (entries, versions, logs,
    floors, expiry heaps), counters, ledger histograms, vouch sets and
    canonical key tables, and pulls from every live since-version.  A
    group upload is one ``post_updates`` call on the fast side and one
    ``post_update`` per UUID, in order, on the reference."""

    PLANES = ("csaw", "encore", "problist")
    STAGE_SETS = (
        (BlockType.BLOCK_PAGE,),
        (BlockType.DNS_TIMEOUT, BlockType.BLOCK_PAGE),
        (BlockType.DNS_TIMEOUT,),
    )
    ASN0 = 64500
    #: Pull criteria compared: accept-all and a reporter quorum.
    CRITERIA = ({}, {"min_reporters": 2})

    _dt = st.sampled_from([0.0, 1.0, 2.5])
    _client = st.integers(min_value=0, max_value=3)
    _asn = st.integers(min_value=0, max_value=2)
    _rows = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),  # url
            _asn,
            st.integers(min_value=0, max_value=2),  # stages
            st.sampled_from([0.0, 0.5, 3.0]),  # measured lag
        ),
        max_size=8,
    )
    _bulk_count = st.integers(min_value=1, max_value=80)
    # A group client's list: the group's shared list itself, a fresh list
    # of new items on the same rows, or a thinning of the shared list
    # (the same item objects, kept where the mask's bit i % 16 is set).
    _pick = st.sampled_from(["shared", "fresh"]) | st.integers(
        min_value=0, max_value=0xFFFF
    )
    # Each op ends with the sim-time step taken before it.  Small uploads
    # span ASes and repeat URLs.  A bulk upload posts the first `count`
    # URLs of one fixed list to the first AS: short ones fill its log to
    # the 256-row limit, and a longer one refreshes the stored prefix
    # before inserting past 64 entries, so the limit rises mid-upload
    # after rows were already trimmed.  A group is one write call for
    # 1-5 of eight clients, repeats allowed, each posting its pick of
    # one small or bulk shared list, which may hold its first item
    # twice.  Clients that vouch already or repeat within the group, and
    # lists with an item the call has not applied, take the one-client
    # step; the others are absorbed.  Clients 0-3 also post alone;
    # clients register under planes round-robin, so a block can hold two
    # fresh clients of a plane that already vouches for the list.
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("post"), _client, _rows, _dt),
            st.tuples(
                st.just("bulk"),
                _client,
                _bulk_count,
                _dt,
            ),
            st.tuples(
                st.just("dissent"),
                _client,
                st.integers(min_value=0, max_value=11),
                _asn,
                _dt,
            ),
            st.tuples(st.just("revoke"), _client, _dt),
            st.tuples(st.just("pull"), _asn, _dt),
            st.tuples(
                st.just("group"),
                st.lists(
                    st.tuples(st.integers(min_value=0, max_value=7), _pick),
                    min_size=1,
                    max_size=5,
                ),
                _rows | _bulk_count,
                st.booleans(),  # the shared list holds its first item twice
                _dt,
            ),
        ),
        min_size=4,
        max_size=24,
    )

    @staticmethod
    def _entry_row(entry):
        return (
            entry.url, entry.asn, tuple(entry.stages), entry.measured_at,
            entry.posted_at, entry.last_uuid, entry.first_measured_at,
        )

    @classmethod
    def _state(cls, db):
        ledger = db.voting
        return (
            [
                (
                    asn,
                    [cls._entry_row(e) for e in shard.entries.values()],
                    shard.version,
                    list(shard.log),
                    shard.floor,
                    list(shard.expiry),
                )
                for asn, shard in db._shards.items()
            ],
            db.update_count,
            ledger._plane_of,
            ledger._vote_hist,
            ledger._plane_histograms(),
            ledger._by_client,
            cls._key_table(ledger),
        )

    @staticmethod
    def _key_table(ledger):
        """The ledger's canonical key table, as sorted keys, after
        checking that it holds one tuple per owned key, the very object
        the histogram table holds, and that the owned keys are the
        union of the vouch sets (DESIGN.md §20)."""
        table = ledger._canonical
        assert table.keys() == ledger._vote_hist.keys()
        assert table.keys() == vouched_keys(ledger)
        for key in ledger._vote_hist:
            assert table[key] is key
        return sorted(table)

    @classmethod
    def _sync_rows(cls, result):
        return (
            result.version,
            result.full,
            [cls._entry_row(e) for e in result.entries],
            result.removed,
        )

    def _assert_same(self, ref, fast):
        assert self._state(fast) == self._state(ref)

    def _assert_same_pulls(self, ref, fast, now):
        for asn in list(fast._shards):
            for db in (ref, fast):
                db.blocked_for_as(asn, now)  # evict first, on both sides
            self._assert_same(ref, fast)
            shard = fast._shards[asn]
            sinces = [None, *range(shard.floor, shard.version + 2)]
            for i, since in enumerate(sinces):
                # Accept-all from every since-version; the other criteria
                # from every 8th, to bound the quadratic cost.
                criteria = self.CRITERIA if i % 8 == 0 else self.CRITERIA[:1]
                for criterion in criteria:
                    rows = [
                        self._sync_rows(
                            sync_for_as(db, asn, now, since_version=since,
                                        **criterion)
                        )
                        for db in (ref, fast)
                    ]
                    assert rows[0] == rows[1], (asn, since, criterion)
                    batches = [
                        db.sync_batch_for_as(asn, now, since_version=since,
                                             **criterion)
                        for db in (ref, fast)
                    ]
                    assert batches[0] == batches[1], (asn, since, criterion)

    @classmethod
    def _assert_ledger_matches_recompute(cls, ledger):
        for url, asn in sorted(vouched_keys(ledger)):
            assert ledger.stats(url, asn) == recompute_stats(ledger, url, asn)
            for plane in cls.PLANES:
                assert plane_stats_of(ledger, url, asn, plane) == \
                    recompute_plane_stats(ledger, url, asn, plane)

    @given(
        ttl=st.sampled_from([None, 5.0]),
        planes=st.booleans(),
        operations=ops,
    )
    # Always run the mid-upload limit rise, mixed with a second client's
    # growing list, a dissent, a revocation and TTL evictions.
    @example(
        ttl=5.0,
        planes=True,
        operations=[("bulk", 0, 60, 1.0)] * 5 + [
            ("post", 1, [(0, 0, 1, 0.5), (1, 1, 0, 0.0)], 1.0),
            ("bulk", 1, 80, 1.0),
            ("dissent", 1, 1, 1, 0.0),
            ("post", 2, [(2, 0, 0, 3.0), (2, 0, 2, 0.0)], 2.5),
            ("revoke", 0, 2.5),
            ("pull", 0, 2.5),
        ],
    )
    # A group of five fresh clients: the four repeats' run (4 x 67 rows)
    # is longer than the 256-row log limit; then a group of clients that
    # all vouch already.
    @example(
        ttl=None,
        planes=False,
        operations=[
            ("post", 0, [(0, 0, 0, 0.0), (1, 0, 1, 0.5)], 1.0),
            ("group", shared_by(1, 2, 3, 4, 5), 64, False, 1.0),
            ("group", shared_by(2, 2, 5), [(0, 0, 1, 0.5)], False, 1.0),
            ("pull", 0, 0.0),
        ],
    )
    # The log sits at its limit; the group's first upload inserts past
    # 64 entries, so the limit rises inside the group, and the repeats
    # run at the new limit.
    @example(
        ttl=5.0,
        planes=True,
        operations=[("bulk", 0, 60, 1.0)] * 5 + [
            ("group", shared_by(1, 2, 3, 4, 5), 80, False, 1.0),
            ("group", shared_by(0, 1, 4), 70, False, 0.0),
            ("pull", 0, 1.0),
        ],
    )
    # A group spanning two ASes, with a URL listed twice: a first
    # upload, a client that vouches already (its earlier keys are
    # re-marked), a block of one repeat, a client met earlier in the
    # group, and a client whose only vouch was dissented away.
    @example(
        ttl=None,
        planes=True,
        operations=[
            ("post", 0, [(0, 0, 0, 0.0), (1, 1, 1, 0.5)], 1.0),
            ("post", 3, [(5, 1, 0, 0.0)], 0.0),
            ("dissent", 3, 5, 1, 0.0),
            ("group", shared_by(1, 0, 2, 1, 3),
             [(0, 0, 1, 0.5), (1, 1, 0, 0.0), (2, 1, 2, 3.0), (0, 0, 2, 0.0)],
             False, 1.0),
            ("dissent", 2, 1, 1, 0.0),
            ("group", shared_by(2, 4), [(1, 1, 2, 0.0)], False, 0.0),
            ("pull", 1, 1.0),
        ],
    )
    # Two fresh C-Saw clients (3 and 6) in one block, on keys client 0
    # (C-Saw) vouches for: the ledger adds them by count, and the
    # per-plane snapshot built after the block holds them on one plane.
    # Then client 2, a repeat with 16 keys, is revoked: its vouch set
    # must iterate as a one-by-one upload's does, since revocation
    # marks in that order.
    @example(
        ttl=None,
        planes=True,
        operations=[
            ("post", 0, [(0, 0, 0, 0.0), (1, 1, 1, 0.0)], 1.0),
            ("group", shared_by(1, 3, 6), [(0, 0, 1, 0.0), (1, 1, 0, 0.5)],
             False, 1.0),
            ("group", shared_by(7, 2), 16, False, 1.0),
            ("revoke", 2, 0.0),
            ("pull", 0, 0.0),
        ],
    )
    # TTL eviction due at a group's `now`: its first upload evicts a row
    # and skips stale heap rows of relisted URLs before the repeats.
    @example(
        ttl=5.0,
        planes=True,
        operations=[
            ("post", 0, [(3, 0, 0, 0.0), (0, 0, 1, 0.0)], 1.0),
            ("post", 1, [(4, 1, 0, 0.0)], 2.5),
            ("group", shared_by(2, 3), [(0, 0, 0, 0.0), (4, 1, 1, 0.5)],
             False, 2.5),
            ("group", shared_by(4, 5, 1), [(0, 0, 2, 0.0), (5, 0, 0, 0.0)],
             False, 2.5),
            ("pull", 0, 0.0),
        ],
    )
    # A miss-free thinning (every item, in a list of its own) takes the
    # step; the thinnings after it, that list again under another object
    # and an empty thinning are absorbed, one run each.
    @example(
        ttl=5.0,
        planes=True,
        operations=[
            ("post", 0, [(0, 0, 0, 0.0)], 1.0),
            ("group",
             [(1, 0xFFFF), (2, 0b101101), (3, 0b010011), (4, 0xFFFF), (5, 0)],
             [(u, 0, u % 3, 0.5 * (u % 2)) for u in range(6)], False, 1.0),
            ("pull", 0, 0.0),
        ],
    )
    # Sparse thinnings: a later one lists an item no earlier upload of
    # the call applied, so its step inserts a URL between two blocks of
    # absorbed thinnings; a fresh list steps too.
    @example(
        ttl=5.0,
        planes=True,
        operations=[
            ("group",
             [(1, 0b0011), (2, 0b0001), (3, 0b0010), (4, 0b0111),
              (5, 0b0011), (6, 0b0101), (7, "fresh"), (0, 0b1000)],
             [(u, 0, u % 3, 0.0) for u in range(4)], False, 1.0),
            ("pull", 0, 1.0),
        ],
    )
    # A block spanning two ASes: the step lists both, the thinnings and
    # the shared list after it are absorbed.
    @example(
        ttl=5.0,
        planes=True,
        operations=[
            ("group", [(1, 0b1111), (2, 0b0110), (3, 0b1001), (4, "shared")],
             [(0, 0, 0, 0.0), (1, 1, 1, 0.5), (2, 0, 2, 0.0), (3, 1, 0, 0.0)],
             False, 1.0),
            ("pull", 1, 0.0),
        ],
    )
    # A list that holds one item twice: the shared list, a thinning
    # keeping both copies, and one keeping only them.
    @example(
        ttl=5.0,
        planes=True,
        operations=[
            ("group",
             [(1, "shared"), (2, "shared"), (3, 0b11111), (4, 0b1001)],
             [(0, 0, 0, 0.0), (1, 0, 1, 0.0), (2, 1, 2, 0.5)], True, 1.0),
            ("pull", 0, 0.0),
        ],
    )
    @settings(max_examples=50, deadline=None)
    def test_batched_writes_match_per_item_reference(
        self, ttl, planes, operations
    ):
        from tests._reference_globaldb import ReferenceServerDB

        ref, fast = ReferenceServerDB(entry_ttl=ttl), ServerDB(entry_ttl=ttl)
        dbs = (ref, fast)

        def both(call):
            results = [call(db) for db in dbs]
            assert results[0] == results[1]
            return results[1]

        plane_of = [
            self.PLANES[i % 3] if planes else self.PLANES[0] for i in range(8)
        ]
        uuids = [
            both(lambda db: db.register(now=float(i), plane=plane_of[i]))
            for i in range(8)
        ]

        def items(rows, now):
            """A small upload from rows, or a bulk one from a count."""
            if isinstance(rows, int):
                urls = [f"http://b{i}.example/" for i in range(rows)]
                urls += urls[:3]  # refreshes within the same upload
                rows = [(url, 0, 0, 0.0) for url in urls]
            else:
                rows = [(f"http://u{u}.example/", a, s, lag)
                        for u, a, s, lag in rows]
            return [
                ReportItem(
                    url=url,
                    asn=self.ASN0 + asn,
                    stages=self.STAGE_SETS[stages],
                    measured_at=now - lag,
                )
                for url, asn, stages, lag in rows
            ]

        now = 10.0
        for op in operations:
            kind = op[0]
            now += op[-1]
            if kind in ("post", "bulk"):
                _, client, rows, _ = op
                reports = items(rows, now)
                both(lambda db: db.post_update(uuids[client], reports, now))
            elif kind == "group":
                _, picks, rows, twice, _ = op
                shared = items(rows, now)
                if twice and shared:
                    shared.append(shared[0])
                uploads = []
                for client, pick in picks:
                    if pick == "shared":
                        posted = shared
                    elif pick == "fresh":
                        posted = items(rows, now)
                    else:
                        posted = [item for i, item in enumerate(shared)
                                  if pick >> (i % 16) & 1]
                    uploads.append((uuids[client], posted))
                one_by_one = sum(
                    ref.post_update(uuid, posted, now)
                    for uuid, posted in uploads
                )
                assert fast.post_updates(uploads, now) == one_by_one
            elif kind == "dissent":
                _, client, url, asn, _ = op
                both(lambda db: db.post_dissent(
                    uuids[client], f"http://u{url}.example/",
                    self.ASN0 + asn, now,
                ))
            elif kind == "revoke":
                client = op[1]
                for db in dbs:
                    db.revoke(uuids[client])
                uuids[client] = both(
                    lambda db: db.register(now=now, plane=plane_of[client])
                )
            else:
                asn = self.ASN0 + op[1]
                both(lambda db: db.sync_batch_for_as(asn, now))
            self._assert_same(ref, fast)
            # The fast side maps every upload's keys through the table,
            # so its vouch sets hold only the stored tuples.
            assert_keys_stored_once(fast.voting)
            # Contiguous log versions: what the run trim relies on.
            for db in dbs:
                for shard in db._shards.values():
                    assert shard.floor == shard.version - len(shard.log)
        self._assert_ledger_matches_recompute(fast.voting)
        self._assert_same_pulls(ref, fast, now + 1.0)

    def test_log_limit_rising_mid_upload(self):
        """A shard whose log sits at the 256-row limit takes an upload
        that alternates refreshes with inserts: every insert past 64
        entries ends a run and raises the limit, inside one upload, while
        a second client's growing list re-marks its earlier keys."""
        from tests._reference_globaldb import ReferenceServerDB

        ref, fast = ReferenceServerDB(entry_ttl=None), ServerDB(entry_ttl=None)
        for db in (ref, fast):
            first = db.register(now=0.0)
            second = db.register(now=0.0)

            def post(uuid, urls, now, db=db):
                return db.post_update(uuid, [
                    ReportItem(url=url, asn=self.ASN0,
                               stages=self.STAGE_SETS[0], measured_at=now)
                    for url in urls
                ], now)

            old = [f"http://b{i}.example/" for i in range(60)]
            for round_ in range(5):
                post(first, old, 1.0 + round_)
            post(second, old[:10], 7.0)
            mixed = []
            for i in range(60, 90):
                mixed += [f"http://b{i}.example/", old[i % 60]]
            post(first, mixed, 8.0)
            post(second, mixed[:20], 9.0)
        self._assert_same(ref, fast)
        shard = fast._shards[self.ASN0]
        assert len(shard.entries) == 90
        assert 256 < len(shard.log) <= 4 * 90 and shard.floor > 0
        self._assert_same_pulls(ref, fast, 10.0)

    @pytest.mark.parametrize("entries", [0, 70])
    def test_runs_around_the_log_limit_match_one_at_a_time(self, entries):
        """Runs one short of, at and past the log limit, onto logs of
        several lengths: one run leaves the version, log and floor that
        marking its URLs one at a time does, ``floor == version -
        len(log)`` holds, and the log holds URLs alone.  For every
        answerable ``v``, ``touched_since(v)`` lists each URL marked
        after version ``v`` once, ordered by its latest mark (URLs
        repeat within and across the runs)."""
        from repro.core.globaldb import _AsShard
        from tests._reference_globaldb import ReferenceShard

        limit = max(256, 4 * entries)
        for prior in (0, 1, limit - 1, limit):
            for count in (1, limit - 1, limit, limit + 1, 2 * limit + 3):
                marks = [f"u{i % 97}" for i in range(prior)]
                marks += [f"u{i % 13}" for i in range(count)]
                shards = (ReferenceShard(), _AsShard())
                for shard in shards:
                    # Only the entry count matters to the log limit.
                    shard.entries.update((f"e{i}", None) for i in range(entries))
                    shard.mark_changed(marks[:prior])
                    shard.mark_changed(marks[prior:])
                ref, fast = shards
                assert (fast.version, list(fast.log), fast.floor) == \
                    (ref.version, list(ref.log), ref.floor), (prior, count)
                assert fast.floor == fast.version - len(fast.log)
                assert all(type(row) is str for row in fast.log)
                # Mark k (0-based) carries version k + 1.
                latest = {url: k for k, url in enumerate(marks)}
                for v in range(fast.floor, fast.version + 1):
                    expected = sorted(set(marks[v:]), key=latest.__getitem__)
                    assert fast.touched_since(v) == expected, (prior, count, v)

    def test_group_with_unknown_uuid_changes_nothing(self):
        """Every UUID of a group is checked before anything is applied:
        an unknown one raises with the known ones ahead of it unposted."""
        db = ServerDB(entry_ttl=5.0)
        first, second = db.register(now=0.0), db.register(now=0.0)
        reports = [
            ReportItem(url=f"http://u{i}.example/", asn=self.ASN0 + i % 2,
                       stages=self.STAGE_SETS[i % 3], measured_at=1.0)
            for i in range(4)
        ]
        db.post_update(first, reports[:2], now=1.0)
        before = copy.deepcopy(self._state(db))
        with pytest.raises(RegistrationError):
            db.post_updates(
                [(second, reports), ("nope", reports), (first, reports)],
                now=2.0,
            )
        with pytest.raises(RegistrationError):
            db.post_updates([("nope", [])], now=2.0)
        assert db.post_updates([], now=2.0) == 0
        assert db.post_updates([(second, []), (first, [])], now=2.0) == 0
        assert self._state(db) == before
