"""Property-based tests (hypothesis) on kernel and core invariants."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregation import UrlPrefixIndex
from repro.core.globaldb import ReportItem, ServerDB
from repro.core.localdb import LocalDatabase
from repro.core.records import BlockStatus, BlockType
from repro.core.voting import VotingLedger
from repro.simnet.engine import Environment
from repro.simnet.latency import LatencyModel


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


class TestLatencyProperties:
    @given(
        st.floats(min_value=0.001, max_value=2.0),
        st.floats(min_value=0.001, max_value=2.0),
    )
    def test_combine_adds_rtts_commutatively(self, a, b):
        m1 = LatencyModel(base_rtt=a)
        m2 = LatencyModel(base_rtt=b)
        assert m1.combine(m2).base_rtt == pytest.approx(m2.combine(m1).base_rtt)
        assert m1.combine(m2).base_rtt == pytest.approx(a + b)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_combined_loss_in_unit_interval(self, la, lb):
        combined = LatencyModel(0.1, loss=la).combine(LatencyModel(0.1, loss=lb))
        assert 0.0 <= combined.loss < 1.0
        assert combined.loss >= max(la, lb) - 1e-12


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
            assert stats.reporters == len(ledger.reporters_for(url, 1))
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
    """The columnar batch path is an optimization of the row path —
    hypothesis drives both through the same random post/dissent/pull
    interleavings and demands bit-identical client state after every
    pull (acceptance for the delta-sync wire format)."""

    # (op, client index, url index, asn offset): op 0-2 posts, 3 dissents,
    # 4 pulls on both views.
    ops = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=1),
        ),
        max_size=40,
    )

    @staticmethod
    def _state(view):
        return (
            view.version,
            view.synced_asn,
            [
                (e.url, e.asn, tuple(e.stages), e.measured_at,
                 e.posted_at, e.first_measured_at, e.last_uuid)
                for e in view._entries.values()
            ],
        )

    @given(ops)
    @settings(max_examples=60)
    def test_batch_and_row_merges_identical(self, operations):
        from repro.core.reporting import GlobalView

        server = ServerDB(entry_ttl=None)
        uuids = [server.register(now=float(i)) for i in range(4)]
        row_views = {1: GlobalView(), 2: GlobalView()}
        batch_views = {1: GlobalView(), 2: GlobalView()}
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
            else:
                rows, batches = row_views[asn], batch_views[asn]
                result = server.sync_for_as(
                    asn, now, since_version=rows.since_version(asn)
                )
                rows.apply_sync(result, now)
                batch = server.sync_batch_for_as(
                    asn, now, since_version=batches.since_version(asn)
                )
                batch_views[asn].apply_batch(batch, now)
                assert batch.transferred == result.transferred
        now += 1.0
        for asn in (1, 2):
            # One final pull so both views see the terminal server state.
            rows, batches = row_views[asn], batch_views[asn]
            rows.apply_sync(
                server.sync_for_as(
                    asn, now, since_version=rows.since_version(asn)
                ),
                now,
            )
            batches.apply_batch(
                server.sync_batch_for_as(
                    asn, now, since_version=batches.since_version(asn)
                ),
                now,
            )
            assert self._state(batches) == self._state(rows)


class TestGroupedSweepProperties:
    """The group-applied fleet pull sweep is an optimization of the
    retained per-client spec loop — hypothesis drives both through
    random cohort shapes and wave/pull schedules and demands the same
    :class:`FleetMetrics`, the same per-client record arrays, and the
    same server-side serve counters (acceptance for hot-path round 4).
    """

    @staticmethod
    def _storm(sweep_mode, seed, n_ases, clients, urls, frac, interval,
               tick_div, wave_at, horizon_intervals):
        from repro.core.fleet import ClientCohort

        server = ServerDB(entry_ttl=None)
        env = Environment()
        cohort = ClientCohort(
            server,
            asns=[41000 + i for i in range(n_ases)],
            clients_per_as=clients,
            seed=seed,
            reporter_fraction=frac,
            pull_interval=interval,
            tick=interval / tick_div,
            sweep_mode=sweep_mode,
        )

        def driver():
            yield env.timeout(wave_at)
            cohort.start_wave(env.now, urls_per_as=urls)

        env.process(driver())
        stop_at = wave_at + horizon_intervals * interval + cohort.tick
        env.process(cohort.run(env, stop_at))
        env.run()
        cohort.finalize()
        return cohort

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        n_ases=st.integers(min_value=1, max_value=3),
        clients=st.integers(min_value=1, max_value=25),
        urls=st.integers(min_value=1, max_value=6),
        frac=st.floats(min_value=0.05, max_value=1.0),
        interval=st.floats(min_value=60.0, max_value=900.0),
        tick_div=st.integers(min_value=3, max_value=40),
        wave_frac=st.floats(min_value=0.0, max_value=2.0),
        horizon_intervals=st.floats(min_value=0.25, max_value=2.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_grouped_sweep_bit_identical_to_spec(
        self, seed, n_ases, clients, urls, frac, interval, tick_div,
        wave_frac, horizon_intervals,
    ):
        args = (seed, n_ases, clients, urls, frac, interval, tick_div,
                wave_frac * interval, horizon_intervals)
        spec = self._storm("spec", *args)
        grouped = self._storm("grouped", *args)
        g_summary, s_summary = grouped.metrics.summary(), spec.metrics.summary()
        assert g_summary.keys() == s_summary.keys()
        for name in s_summary:
            g_val, s_val = g_summary[name], s_summary[name]
            if isinstance(s_val, float) and math.isnan(s_val):
                # Unconverged cohorts report NaN aggregates on both sides.
                assert math.isnan(g_val), name
            else:
                assert g_val == s_val, name
        assert grouped.metrics.convergence_by_as == \
            spec.metrics.convergence_by_as
        assert grouped.metrics.pending_by_as == spec.metrics.pending_by_as
        # Server-side serve/build accounting must agree too.
        assert grouped.server.full_syncs_served == spec.server.full_syncs_served
        assert grouped.server.delta_syncs_served == \
            spec.server.delta_syncs_served
        # Per-client record arrays: same layout, same values, bit for bit
        # (the float pull schedule advances by the identical additions).
        for ga, sa in zip(grouped.shards, spec.shards):
            assert ga.versions == sa.versions
            assert ga.next_pull_at == sa.next_pull_at
            assert ga.bytes_received == sa.bytes_received
            assert ga.rows_received == sa.rows_received
            assert ga.pending == sa.pending
            assert (ga.pulls, ga.pull_ptr) == (sa.pulls, sa.pull_ptr)
            assert ga.unconverged == sa.unconverged
            assert ga.converged_at == sa.converged_at


class TestRunBatchedWriteProperties:
    """ServerDB's run-batched write path against the per-item reference
    in ``tests/_reference_globaldb.py``: hypothesis drives both through
    the same uploads, dissents, revocations, pulls and TTL evictions and
    demands identical shards (entries, versions, logs, floors, expiry
    heaps), counters, ledger histograms, and pulls from every live
    since-version."""

    PLANES = ("csaw", "encore", "problist")
    STAGE_SETS = (
        (BlockType.BLOCK_PAGE,),
        (BlockType.DNS_TIMEOUT, BlockType.BLOCK_PAGE),
        (BlockType.DNS_TIMEOUT,),
    )
    ASN0 = 64500
    #: Pull criteria compared: accept-all, a reporter quorum, and a
    #: plane-weighted criterion.
    CRITERIA = (
        {},
        {"min_reporters": 2},
        {"plane_weights": {"encore": 0.5}},
    )

    _dt = st.sampled_from([0.0, 1.0, 2.5])
    _client = st.integers(min_value=0, max_value=3)
    _asn = st.integers(min_value=0, max_value=2)
    # Each op ends with the sim-time step taken before it.  Small uploads
    # span ASes and repeat URLs.  A bulk upload posts the first `count`
    # URLs of one fixed list to the first AS: short ones fill its log to
    # the 256-row limit, and a longer one refreshes the stored prefix
    # before inserting past 64 entries, so the limit rises mid-upload
    # after rows were already trimmed.
    ops = st.lists(
        st.one_of(
            st.tuples(
                st.just("post"),
                _client,
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=11),  # url
                        _asn,
                        st.integers(min_value=0, max_value=2),  # stages
                        st.sampled_from([0.0, 0.5, 3.0]),  # measured lag
                    ),
                    max_size=8,
                ),
                _dt,
            ),
            st.tuples(
                st.just("bulk"),
                _client,
                st.integers(min_value=1, max_value=80),  # count
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
        ),
        min_size=4,
        max_size=24,
    )

    @staticmethod
    def _entry_row(entry):
        return (
            entry.url, entry.asn, tuple(entry.stages), entry.measured_at,
            entry.posted_at, entry.last_uuid, entry.first_measured_at,
            entry.last_plane,
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
            list(db.reports_by_plane.items()),
            list(db.clients_by_plane.items()),
            ledger._vote_hist,
            ledger._plane_hist,
            ledger._by_key,
            ledger._by_client,
        )

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
                            db.sync_for_as(asn, now, since_version=since,
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
        for url, asn in list(ledger._by_key):
            assert ledger.stats(url, asn) == ledger.recompute_stats(url, asn)
            for plane in cls.PLANES:
                assert ledger.stats_for_plane(url, asn, plane) == \
                    ledger.recompute_plane_stats(url, asn, plane)

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
            self.PLANES[i % 3] if planes else self.PLANES[0] for i in range(4)
        ]
        uuids = [
            both(lambda db: db.register(now=float(i), plane=plane_of[i]))
            for i in range(4)
        ]

        def items(client, rows, now):
            return [
                ReportItem(
                    url=url,
                    asn=self.ASN0 + asn,
                    stages=self.STAGE_SETS[stages],
                    measured_at=now - lag,
                    plane=plane_of[client],
                )
                for url, asn, stages, lag in rows
            ]

        now = 10.0
        for op in operations:
            kind = op[0]
            now += op[-1]
            if kind == "post":
                _, client, rows, _ = op
                reports = items(
                    client,
                    [(f"http://u{u}.example/", a, s, lag)
                     for u, a, s, lag in rows],
                    now,
                )
                both(lambda db: db.post_update(uuids[client], reports, now))
            elif kind == "bulk":
                _, client, count, _ = op
                urls = [f"http://b{i}.example/" for i in range(count)]
                urls += urls[:3]  # refreshes within the same upload
                reports = items(
                    client, [(url, 0, 0, 0.0) for url in urls], now
                )
                both(lambda db: db.post_update(uuids[client], reports, now))
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
