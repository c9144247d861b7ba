"""Tests for the voting ledger and the global database server."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.globaldb import RegistrationError, ReportItem, ServerDB
from repro.core.records import BlockType
from repro.core.voting import VotingLedger
from tests._reference_globaldb import recompute_stats


class TestVotingLedger:
    def test_single_client_single_url_full_vote(self):
        ledger = VotingLedger()
        ledger.set_client_reports("c1", [("http://a.com/", 1)])
        stats = ledger.stats("http://a.com/", 1)
        assert stats.votes == pytest.approx(1.0)
        assert stats.reporters == 1

    def test_vote_spread_over_d_urls(self):
        ledger = VotingLedger()
        keys = [(f"http://u{i}.com/", 1) for i in range(4)]
        ledger.set_client_reports("c1", keys)
        for url, asn in keys:
            assert ledger.stats(url, asn).votes == pytest.approx(0.25)

    def test_spammer_dilutes_own_votes(self):
        """A malicious client reporting many URLs gives each ~nothing,
        while two honest clients beat it on the contested URL."""
        ledger = VotingLedger()
        spam = [(f"http://spam{i}.com/", 1) for i in range(100)]
        ledger.set_client_reports("evil", spam + [("http://real.com/", 1)])
        ledger.set_client_reports("honest-1", [("http://real.com/", 1)])
        ledger.set_client_reports("honest-2", [("http://real.com/", 1)])
        real = ledger.stats("http://real.com/", 1)
        fake = ledger.stats("http://spam0.com/", 1)
        assert real.votes > 2.0
        assert fake.votes < 0.02
        assert fake.reporters == 1

    def test_adding_reports_renormalizes(self):
        ledger = VotingLedger()
        ledger.set_client_reports("c1", [("http://a.com/", 1)])
        assert ledger.stats("http://a.com/", 1).votes == pytest.approx(1.0)
        ledger.add_client_reports("c1", [("http://b.com/", 1)])
        assert ledger.stats("http://a.com/", 1).votes == pytest.approx(0.5)
        assert ledger.stats("http://b.com/", 1).votes == pytest.approx(0.5)

    def test_per_as_entries_are_distinct(self):
        ledger = VotingLedger()
        ledger.set_client_reports("c1", [("http://a.com/", 1)])
        assert ledger.stats("http://a.com/", 2).reporters == 0

    def test_revoke_removes_influence(self):
        ledger = VotingLedger()
        ledger.set_client_reports("c1", [("http://a.com/", 1)])
        ledger.revoke_client("c1")
        assert ledger.stats("http://a.com/", 1).reporters == 0
        assert ledger.client_count() == 0

    @given(
        st.dictionaries(
            st.sampled_from([f"c{i}" for i in range(6)]),
            st.lists(
                st.sampled_from([(f"http://u{i}.com/", 1) for i in range(5)]),
                max_size=5,
                unique=True,
            ),
            max_size=6,
        )
    )
    def test_total_vote_mass_bounded_by_client_count(self, assignments):
        ledger = VotingLedger()
        for client, keys in assignments.items():
            ledger.set_client_reports(client, keys)
        total = sum(
            ledger.stats(f"http://u{i}.com/", 1).votes for i in range(5)
        )
        active = sum(1 for keys in assignments.values() if keys)
        assert total == pytest.approx(active)


class TestServerDB:
    def make_reports(self, urls, asn=17557):
        return [
            ReportItem(
                url=url,
                asn=asn,
                stages=(BlockType.BLOCK_PAGE,),
                measured_at=1.0,
            )
            for url in urls
        ]

    def test_registration_issues_unique_uuids(self):
        server = ServerDB()
        uuids = {server.register(now=float(i)) for i in range(50)}
        assert len(uuids) == 50
        assert server.client_count == 50

    def test_failed_captcha_rejected(self):
        server = ServerDB()
        with pytest.raises(RegistrationError):
            server.register(now=0.0, captcha_passed=False)
        assert server.rejected_registrations == 1

    def test_unregistered_client_cannot_post(self):
        server = ServerDB()
        with pytest.raises(RegistrationError):
            server.post_update("nope", self.make_reports(["http://a.com/"]), 1.0)

    def test_post_and_download_roundtrip(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        accepted = server.post_update(
            uuid, self.make_reports(["http://a.com/", "http://b.com/"]), now=5.0
        )
        assert accepted == 2
        entries = server.blocked_for_as(17557, now=6.0)
        assert {e.url for e in entries} == {"http://a.com/", "http://b.com/"}
        assert all(e.posted_at == 5.0 for e in entries)
        assert server.blocked_for_as(999, now=6.0) == []

    def test_repeat_posts_merge_stages(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        server.post_update(
            uuid,
            [
                ReportItem(
                    url="http://a.com/",
                    asn=17557,
                    stages=(BlockType.DNS_SERVFAIL,),
                    measured_at=2.0,
                )
            ],
            now=2.0,
        )
        entry = server.entry("http://a.com/", 17557)
        assert BlockType.BLOCK_PAGE in entry.stages
        assert BlockType.DNS_SERVFAIL in entry.stages
        assert server.update_count == 2

    def test_confidence_filter_blocks_lone_spammer(self):
        server = ServerDB()
        evil = server.register(now=0.0)
        honest = [server.register(now=float(i + 1)) for i in range(3)]
        spam_urls = [f"http://spam{i}.com/" for i in range(50)]
        server.post_update(evil, self.make_reports(spam_urls), now=2.0)
        for uuid in honest:
            server.post_update(uuid, self.make_reports(["http://real.com/"]), now=3.0)

        trusting = server.blocked_for_as(17557, now=4.0)
        assert len(trusting) == 51  # no filter: spam included
        careful = server.blocked_for_as(17557, now=4.0, min_reporters=2)
        assert [e.url for e in careful] == ["http://real.com/"]
        by_votes = server.blocked_for_as(17557, now=4.0, min_votes=0.5)
        assert [e.url for e in by_votes] == ["http://real.com/"]

    def test_entry_ttl_expires_stale_reports(self):
        server = ServerDB(entry_ttl=100.0)
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        assert server.blocked_for_as(17557, now=50.0)
        assert server.blocked_for_as(17557, now=200.0) == []

    @pytest.mark.parametrize("ttl", [-1.0, float("nan")])
    def test_negative_or_nan_entry_ttl_rejected(self, ttl):
        # -1.0 would evict an entry in the write that stores it while
        # its vouch still counts; NaN would never expire anything.
        with pytest.raises(ValueError):
            ServerDB(entry_ttl=ttl)

    def test_zero_ttl_entry_outlives_writes_at_its_own_time(self):
        server = ServerDB(entry_ttl=0.0)
        first, second = server.register(now=0.0), server.register(now=0.0)
        server.post_update(first, self.make_reports(["http://a.com/"]), now=1.0)
        server.post_update(second, self.make_reports(["http://b.com/"]), now=1.0)
        assert server.entry("http://a.com/", 17557) is not None
        server.post_update(second, self.make_reports(["http://b.com/"]), now=1.5)
        assert server.entry("http://a.com/", 17557) is None
        assert [e.url for e in server.blocked_for_as(17557, now=1.5)] == [
            "http://b.com/"
        ]

    @pytest.mark.parametrize("criterion", ["min_reporters", "min_votes"])
    @pytest.mark.parametrize("pull", ["blocked_for_as", "sync_batch_for_as"])
    def test_nan_criterion_rejected_by_both_pulls(self, pull, criterion):
        # NaN failed every entry on the per-entry path but skipped the
        # accept-all shortcut, so the list pull served 0 entries and the
        # batch pull 1.
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"], asn=7), now=1.0)
        with pytest.raises(ValueError, match=f"{criterion} .*nan"):
            getattr(server, pull)(7, now=2.0, **{criterion: float("nan")})

    def test_revoke_drops_client_and_votes(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        server.revoke(uuid)
        with pytest.raises(RegistrationError):
            server.post_update(uuid, [], now=2.0)
        assert server.stats_for("http://a.com/", 17557).reporters == 0

    def test_post_update_normalizes_once_consistently(self):
        """The entry key and the vouch-set key must agree for denormalized
        input — a mismatch would store an entry nobody's vote backs."""
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(
            uuid, self.make_reports(["HTTP://A.com:80/Path"]), now=1.0
        )
        entry = server.entry("http://a.com/Path", 17557)
        assert entry is not None
        assert entry.url == "http://a.com/Path"
        stats = server.stats_for("http://a.com/Path", 17557)
        assert stats.reporters == 1
        assert stats.votes == pytest.approx(1.0)
        assert server.blocked_for_as(17557, now=2.0, min_reporters=1) == [entry]

    def test_every_stored_entry_has_a_reporter(self):
        """The no-orphan invariant the accept-all pull fast path relies on."""
        server = ServerDB()
        uuids = [server.register(now=float(i)) for i in range(3)]
        for uuid in uuids:
            server.post_update(
                uuid, self.make_reports(["http://a.com/", "http://b.com/"]),
                now=1.0,
            )
        server.post_dissent(uuids[0], "http://a.com/", 17557, now=2.0)
        server.revoke(uuids[1])
        for entry in server.all_entries():
            assert server.stats_for(entry.url, entry.asn).reporters >= 1

    def test_empty_upload_changes_nothing(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        version = server.version_for_as(17557)
        reports_of = server.voting.reports_of(uuid)
        stats = server.stats_for("http://a.com/", 17557)
        assert server.post_update(uuid, [], now=2.0) == 0
        assert server.version_for_as(17557) == version
        assert server.update_count == 1
        assert server.voting.reports_of(uuid) == reports_of
        assert server.stats_for("http://a.com/", 17557) == stats
        # A fresh client's empty upload registers no vouch set at all.
        fresh = server.register(now=3.0)
        assert server.post_update(fresh, [], now=4.0) == 0
        assert fresh not in server.voting.clients()

    def test_unknown_client_rejected_before_any_shard_changes(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        version = server.version_for_as(17557)
        reports = self.make_reports(["http://a.com/", "http://b.com/"])
        reports += self.make_reports(["http://c.com/"], asn=38193)
        with pytest.raises(RegistrationError):
            server.post_update("nope", reports, now=2.0)
        assert [(e.url, e.asn) for e in server.all_entries()] == [
            ("http://a.com/", 17557)
        ]
        assert server.version_for_as(17557) == version
        assert server.version_for_as(38193) == 0
        assert server.update_count == 1
        assert server.voting.client_count() == 1

    def test_two_as_upload_advances_each_shard_by_its_items(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        before = server.version_for_as(17557)
        fresh = server.register(now=2.0)
        # Three items on 17557 (one a repeat within the upload, one a
        # refresh of a stored entry) and two on 38193.
        reports = self.make_reports(
            ["http://a.com/", "http://b.com/", "http://b.com/"]
        )
        reports += self.make_reports(
            ["http://c.com/", "http://d.com/"], asn=38193
        )
        assert server.post_update(fresh, reports, now=3.0) == 5
        assert server.version_for_as(17557) == before + 3
        assert server.version_for_as(38193) == 2


class TestIncrementalVotingExactness:
    """The incremental s_{j,k} must match the from-scratch recompute in
    ``tests/_reference_globaldb.py`` *exactly* (bit-identical floats)."""

    URLS = [f"http://u{i}.example.com/" for i in range(5)]
    ASNS = [17557, 38193]
    CLIENTS = [f"c{i}" for i in range(5)]

    @staticmethod
    def assert_exact(ledger, urls, asns):
        for url in urls:
            for asn in asns:
                incremental = ledger.stats(url, asn)
                reference = recompute_stats(ledger, url, asn)
                assert incremental == reference  # exact, not approx

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("set"),
                    st.sampled_from(CLIENTS),
                    st.lists(
                        st.tuples(
                            st.sampled_from(URLS), st.sampled_from(ASNS)
                        ),
                        max_size=6,
                        unique=True,
                    ),
                ),
                st.tuples(
                    st.just("add"),
                    st.sampled_from(CLIENTS),
                    st.lists(
                        st.tuples(
                            st.sampled_from(URLS), st.sampled_from(ASNS)
                        ),
                        max_size=4,
                        unique=True,
                    ),
                ),
                st.tuples(
                    st.just("revoke"),
                    st.sampled_from(CLIENTS),
                    st.just([]),
                ),
            ),
            max_size=30,
        )
    )
    def test_ledger_sequences(self, ops):
        ledger = VotingLedger()
        for op, client, keys in ops:
            if op == "set":
                ledger.set_client_reports(client, keys)
            elif op == "add":
                ledger.add_client_reports(client, keys)
            else:
                ledger.revoke_client(client)
        self.assert_exact(ledger, self.URLS, self.ASNS)

    @settings(deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("post"),
                    st.integers(0, 3),
                    st.lists(st.integers(0, 4), min_size=1, max_size=4),
                ),
                st.tuples(
                    st.just("dissent"),
                    st.integers(0, 3),
                    st.integers(0, 4),
                ),
                st.tuples(st.just("revoke"), st.integers(0, 3), st.just(0)),
            ),
            max_size=25,
        )
    )
    def test_server_add_dissent_revoke_sequences(self, ops):
        """Randomized add/dissent/revoke through the ServerDB API keeps the
        incremental ledger in exact agreement with the recompute."""
        server = ServerDB(entry_ttl=None)
        uuids = [server.register(now=float(i)) for i in range(4)]
        revoked = set()
        asn = 17557
        for op, who, what in ops:
            uuid = uuids[who]
            if uuid in revoked:
                continue
            if op == "post":
                items = [
                    ReportItem(
                        url=self.URLS[i],
                        asn=asn,
                        stages=(BlockType.BLOCK_PAGE,),
                        measured_at=1.0,
                    )
                    for i in what
                ]
                server.post_update(uuid, items, now=2.0)
            elif op == "dissent":
                server.post_dissent(uuid, self.URLS[what], asn, now=3.0)
            else:
                server.revoke(uuid)
                revoked.add(uuid)
        self.assert_exact(server.voting, self.URLS, [asn])
        for entry in server.all_entries():
            assert server.voting.has_reporters(entry.url, entry.asn)

    def test_affected_keys_reported(self):
        """The keys whose statistics moved, in the documented order:
        the stored keys that left or stayed while d changed, in stored
        order, then the added keys in new order."""
        ledger = VotingLedger()
        a, b, c = [(f"http://k{i}.com/", 1) for i in range(3)]
        assert ledger.set_client_reports("c1", [a]) == (a,)
        # Growing the set dilutes the vote on *every* key: all affected.
        assert ledger.add_client_reports("c1", [b, c]) == (a, b, c)
        # d changes 3 -> 2, so even the staying keys' weights move.
        assert ledger.set_client_reports("c1", [a, b]) == (a, b, c)
        # Same-size swap: the staying key's weight is untouched.
        assert ledger.set_client_reports("c1", [a, c]) == (b, c)
        assert ledger.revoke_client("c1") == (a, c)
        # The stored order leads, whatever order the new keys come in.
        ledger.set_client_reports("c2", [c, a])
        assert ledger.set_client_reports("c2", [b, a]) == (c, b)
        assert ledger.set_client_reports("c2", [a, b]) == ()
        assert ledger.reports_of("c2") == (b, a)
        assert ledger.add_client_reports("c2", [c, a, c]) == (b, a, c)
        assert ledger.reports_of("c2") == (b, a, c)


class TestDeltaSync:
    ASN = 17557

    def make_reports(self, urls, asn=ASN):
        return [
            ReportItem(
                url=url,
                asn=asn,
                stages=(BlockType.BLOCK_PAGE,),
                measured_at=1.0,
            )
            for url in urls
        ]

    def test_first_pull_is_full_snapshot(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(
            uuid, self.make_reports(["http://a.com/", "http://b.com/"]), now=1.0
        )
        result = server.sync_batch_for_as(self.ASN, now=2.0)
        assert result.full
        assert set(result.urls) == {"http://a.com/", "http://b.com/"}
        assert result.removed == ()
        assert result.version == server.version_for_as(self.ASN)
        assert server.full_syncs_served == 1

    def test_unknown_as_pull_is_empty_full(self):
        server = ServerDB()
        result = server.sync_batch_for_as(999, now=1.0)
        assert result.full
        assert result.urls == () and result.removed == ()
        assert result.version == 0

    def test_delta_transfers_only_changed_entries(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(
            uuid,
            self.make_reports([f"http://u{i}.com/" for i in range(20)]),
            now=1.0,
        )
        first = server.sync_batch_for_as(self.ASN, now=2.0)
        # A *different* client posts the new URL — had the same client
        # posted it, every prior entry's vote mass would dilute and all
        # 20 would legitimately re-travel.
        other = server.register(now=2.5)
        server.post_update(other, self.make_reports(["http://new.com/"]), now=3.0)
        delta = server.sync_batch_for_as(self.ASN, now=4.0, since_version=first.version)
        assert not delta.full
        assert delta.urls == ("http://new.com/",)
        assert delta.removed == ()
        assert delta.transferred == 1
        assert server.delta_syncs_served == 1

    def test_current_version_yields_empty_delta(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        first = server.sync_batch_for_as(self.ASN, now=2.0)
        again = server.sync_batch_for_as(
            self.ASN, now=3.0, since_version=first.version
        )
        assert not again.full
        assert again.transferred == 0
        assert again.version == first.version

    def test_future_version_falls_back_to_full(self):
        """A version the shard never issued (e.g. client state from a
        different server incarnation) cannot be diffed against."""
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        result = server.sync_batch_for_as(
            self.ASN, now=2.0, since_version=server.version_for_as(self.ASN) + 10
        )
        assert result.full
        assert result.urls == ("http://a.com/",)

    def test_log_truncation_forces_full_snapshot(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        stale_version = server.version_for_as(self.ASN)
        # Churn the same entry until the bounded log forgets the old rows.
        for i in range(600):
            server.post_update(
                uuid, self.make_reports(["http://a.com/"]), now=2.0 + i
            )
        result = server.sync_batch_for_as(
            self.ASN, now=700.0, since_version=stale_version
        )
        assert result.full  # stale_version < shard.floor

    def test_ttl_eviction_appears_in_removal_diff(self):
        server = ServerDB(entry_ttl=100.0)
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://old.com/"]), now=1.0)
        first = server.sync_batch_for_as(self.ASN, now=2.0)
        assert first.urls == ("http://old.com/",)
        server.post_update(uuid, self.make_reports(["http://new.com/"]), now=500.0)
        delta = server.sync_batch_for_as(self.ASN, now=500.0, since_version=first.version)
        assert not delta.full
        assert delta.urls == ("http://new.com/",)
        assert delta.removed == ("http://old.com/",)

    def test_dissent_appears_in_removal_diff(self):
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(
            uuid, self.make_reports(["http://a.com/", "http://b.com/"]), now=1.0
        )
        first = server.sync_batch_for_as(self.ASN, now=2.0)
        assert server.post_dissent(uuid, "http://a.com/", self.ASN, now=3.0)
        delta = server.sync_batch_for_as(self.ASN, now=4.0, since_version=first.version)
        assert not delta.full
        assert delta.removed == ("http://a.com/",)
        # b's stats moved too (d shrank), so it may legitimately re-travel.
        assert all(url == "http://b.com/" for url in delta.urls)

    def test_vote_dilution_crosses_threshold_in_delta(self):
        """An entry can stop passing min_votes without ever being
        re-posted: its reporter spreading over more URLs dilutes the vote
        mass.  The delta must carry that as a removal."""
        server = ServerDB()
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://x.com/"]), now=1.0)
        first = server.sync_batch_for_as(self.ASN, now=2.0, min_votes=0.6)
        assert first.urls == ("http://x.com/",)
        # Same client reports four more URLs in a *different* AS: d goes
        # 1 -> 5, so x.com's vote mass drops to 0.2 < 0.6.
        server.post_update(
            uuid,
            self.make_reports(
                [f"http://other{i}.com/" for i in range(4)], asn=38193
            ),
            now=3.0,
        )
        delta = server.sync_batch_for_as(
            self.ASN, now=4.0, since_version=first.version, min_votes=0.6
        )
        assert not delta.full
        assert delta.urls == ()
        assert delta.removed == ("http://x.com/",)

    def test_revoked_client_entries_in_removal_diff(self):
        """Revocation erases the client's vote mass from the incremental
        stats; entries only it vouched for leave via the removal diff,
        co-reported entries survive."""
        server = ServerDB()
        bad = server.register(now=0.0)
        good = server.register(now=0.0)
        server.post_update(
            bad, self.make_reports(["http://solo.com/", "http://shared.com/"]),
            now=1.0,
        )
        server.post_update(good, self.make_reports(["http://shared.com/"]), now=1.0)
        first = server.sync_batch_for_as(self.ASN, now=2.0)
        assert set(first.urls) == {"http://solo.com/", "http://shared.com/"}
        server.revoke(bad)
        assert server.stats_for("http://solo.com/", self.ASN).reporters == 0
        shared = server.stats_for("http://shared.com/", self.ASN)
        assert shared.reporters == 1
        assert shared.votes == pytest.approx(1.0)
        delta = server.sync_batch_for_as(self.ASN, now=3.0, since_version=first.version)
        assert not delta.full
        assert delta.removed == ("http://solo.com/",)
        assert delta.urls == ("http://shared.com/",)


class TestBatchCache:
    """Built SyncBatches are cached per shard and invalidated by any
    shard change — serving a cohort between changes constructs each
    distinct batch once (the fleet sweep's server-side cost model)."""

    ASN = 17557

    def make_reports(self, urls, asn=ASN):
        return [
            ReportItem(url=url, asn=asn, stages=(BlockType.BLOCK_PAGE,),
                       measured_at=1.0)
            for url in urls
        ]

    def test_repeat_pulls_share_one_built_batch(self):
        server = ServerDB(entry_ttl=None)
        uuid = server.register(now=0.0)
        server.post_update(
            uuid, self.make_reports(["http://a.com/", "http://b.com/"]), now=1.0
        )
        first = server.sync_batch_for_as(self.ASN, now=2.0)
        again = server.sync_batch_for_as(self.ASN, now=3.0)
        assert again is first  # cache hit: the identical object
        # Serve counters still count every pull, cached or not.
        assert server.full_syncs_served == 2

    def test_any_change_invalidates_cached_batches(self):
        server = ServerDB(entry_ttl=None)
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        stale = server.sync_batch_for_as(self.ASN, now=2.0)
        other = server.register(now=2.5)
        server.post_update(other, self.make_reports(["http://b.com/"]), now=3.0)
        fresh = server.sync_batch_for_as(self.ASN, now=4.0)
        assert fresh is not stale
        assert set(fresh.urls) == {"http://a.com/", "http://b.com/"}
        # Dissent and revocation also funnel through mark_changed.
        delta = server.sync_batch_for_as(
            self.ASN, now=5.0, since_version=stale.version
        )
        assert server.sync_batch_for_as(
            self.ASN, now=5.5, since_version=stale.version
        ) is delta
        server.post_dissent(other, "http://b.com/", self.ASN, now=6.0)
        after = server.sync_batch_for_as(
            self.ASN, now=7.0, since_version=stale.version
        )
        assert after is not delta
        assert "http://b.com/" in after.removed

    def test_revoke_invalidates_cached_batches_per_shard(self):
        """revoke() must drop every shard's cached batches: the revoked
        client's entries leave the snapshot, and shards it never touched
        keep serving their (still valid, rebuilt-or-cached) batches."""
        server = ServerDB(entry_ttl=None)
        bad = server.register(now=0.0)
        good = server.register(now=0.0)
        server.post_update(
            bad, self.make_reports(["http://solo.com/", "http://shared.com/"]),
            now=1.0,
        )
        server.post_update(good, self.make_reports(["http://shared.com/"]), now=1.0)
        server.post_update(
            good, self.make_reports(["http://other.com/"], asn=38193), now=1.0
        )
        stale = server.sync_batch_for_as(self.ASN, now=2.0)
        stale_other = server.sync_batch_for_as(38193, now=2.0)
        assert set(stale.urls) == {"http://solo.com/", "http://shared.com/"}

        server.revoke(bad)
        fresh = server.sync_batch_for_as(self.ASN, now=3.0)
        assert fresh is not stale  # rebuilt, not served from cache
        assert set(fresh.urls) == {"http://shared.com/"}
        # Delta pulls against the pre-revocation version carry the removal.
        delta = server.sync_batch_for_as(
            self.ASN, now=3.5, since_version=stale.version
        )
        assert "http://solo.com/" in delta.removed
        # The untouched shard was invalidated too (revocation is global),
        # but rebuilding it yields the same rows.
        fresh_other = server.sync_batch_for_as(38193, now=4.0)
        assert list(fresh_other.urls) == list(stale_other.urls)
        # ... and the rebuilt batches are themselves cached again.
        assert server.sync_batch_for_as(self.ASN, now=5.0) is fresh

    def test_distinct_since_versions_cache_separately(self):
        server = ServerDB(entry_ttl=None)
        uuid = server.register(now=0.0)
        server.post_update(uuid, self.make_reports(["http://a.com/"]), now=1.0)
        v1 = server.version_for_as(self.ASN)
        other = server.register(now=1.5)
        server.post_update(other, self.make_reports(["http://b.com/"]), now=2.0)
        full = server.sync_batch_for_as(self.ASN, now=3.0)
        delta = server.sync_batch_for_as(self.ASN, now=3.0, since_version=v1)
        assert full.full and not delta.full
        assert [u for u in delta.urls] == ["http://b.com/"]
        assert server.sync_batch_for_as(self.ASN, now=4.0) is full
        assert server.sync_batch_for_as(
            self.ASN, now=4.0, since_version=v1
        ) is delta
