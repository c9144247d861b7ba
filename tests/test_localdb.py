"""Tests for the local database: aggregation, expiry, reporting state."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.aggregation import UrlPrefixIndex, storage_key
from repro.core.localdb import LocalDatabase
from repro.core.records import BlockStatus, BlockType


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def db(clock):
    return LocalDatabase(asn=17557, ttl=100.0, clock=clock)


class TestStorageKey:
    def test_not_blocked_collapses_to_base(self):
        key = storage_key(
            "http://www.foo.com/a.html", BlockStatus.NOT_BLOCKED, []
        )
        assert key == "http://www.foo.com/"

    def test_http_blocked_derived_keeps_derived_key(self):
        key = storage_key(
            "http://www.foo.com/a.html",
            BlockStatus.BLOCKED,
            [BlockType.BLOCK_PAGE],
        )
        assert key == "http://www.foo.com/a.html"

    def test_hostname_scoped_blocking_collapses_to_base(self):
        for block_type in (
            BlockType.DNS_SERVFAIL,
            BlockType.IP_TIMEOUT,
            BlockType.SNI_RST,
        ):
            key = storage_key(
                "http://www.foo.com/a.html", BlockStatus.BLOCKED, [block_type]
            )
            assert key == "http://www.foo.com/"


class TestPrefixIndex:
    def test_longest_prefix_semantics(self):
        index = UrlPrefixIndex()
        index.add("http://foo.com/")
        index.add("http://foo.com/a")
        index.add("http://foo.com/a/b")
        assert index.longest_prefix("http://foo.com/a/b/c") == "http://foo.com/a/b"
        assert index.longest_prefix("http://foo.com/a/x") == "http://foo.com/a"
        assert index.longest_prefix("http://foo.com/z") == "http://foo.com/"

    def test_segment_boundaries_respected(self):
        index = UrlPrefixIndex()
        index.add("http://foo.com/a")
        assert index.longest_prefix("http://foo.com/ab") is None
        assert index.longest_prefix("http://foo.com/a/b") == "http://foo.com/a"

    def test_origin_isolation(self):
        index = UrlPrefixIndex()
        index.add("http://foo.com/a")
        assert index.longest_prefix("http://bar.com/a/b") is None
        assert index.longest_prefix("https://foo.com/a/b") is None

    def test_remove(self):
        index = UrlPrefixIndex()
        index.add("http://foo.com/a")
        index.remove("http://foo.com/a")
        assert index.longest_prefix("http://foo.com/a") is None
        assert len(index) == 0


class TestLocalDatabase:
    def test_unknown_url_not_measured(self, db):
        status, record = db.lookup("http://unknown.example/")
        assert status is BlockStatus.NOT_MEASURED
        assert record is None

    def test_blocked_base_covers_derived(self, db):
        db.record_measurement(
            "http://foo.com/", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        status, record = db.lookup("http://foo.com/deep/page.html")
        assert status is BlockStatus.BLOCKED
        assert record.url == "http://foo.com/"

    def test_blocked_derived_does_not_block_siblings(self, db):
        db.record_measurement(
            "http://foo.com/secret", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        assert db.lookup("http://foo.com/secret")[0] is BlockStatus.BLOCKED
        assert db.lookup("http://foo.com/secret/page")[0] is BlockStatus.BLOCKED
        assert db.lookup("http://foo.com/other")[0] is BlockStatus.NOT_MEASURED

    def test_uncensored_urls_collapse_to_single_base_record(self, db):
        for path in ("/a", "/b", "/c/d"):
            db.record_measurement(
                f"http://foo.com{path}", BlockStatus.NOT_BLOCKED, []
            )
        assert db.record_count == 1
        status, record = db.lookup("http://foo.com/anything")
        assert status is BlockStatus.NOT_BLOCKED
        assert record.url == "http://foo.com/"

    def test_blocked_derived_survives_unblocked_base(self, db):
        db.record_measurement(
            "http://foo.com/secret", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        db.record_measurement("http://foo.com/open", BlockStatus.NOT_BLOCKED, [])
        # Longest-prefix: the specific blocked record wins over the base.
        assert db.lookup("http://foo.com/secret/x")[0] is BlockStatus.BLOCKED
        assert db.lookup("http://foo.com/other")[0] is BlockStatus.NOT_BLOCKED
        assert db.record_count == 2

    def test_dns_blocked_derived_collapses_and_covers_origin(self, db):
        db.record_measurement(
            "http://foo.com/a.html", BlockStatus.BLOCKED, [BlockType.DNS_SERVFAIL]
        )
        assert db.record_count == 1
        assert db.lookup("http://foo.com/zzz")[0] is BlockStatus.BLOCKED

    def test_base_block_purges_derived_records(self, db):
        db.record_measurement(
            "http://foo.com/a", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        db.record_measurement(
            "http://foo.com/b", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        assert db.record_count == 2
        db.record_measurement(
            "http://foo.com/", BlockStatus.BLOCKED, [BlockType.DNS_TIMEOUT]
        )
        assert db.record_count == 1

    def test_expiry_returns_not_measured(self, db, clock):
        db.record_measurement(
            "http://foo.com/", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        clock.now = 50.0
        assert db.lookup("http://foo.com/")[0] is BlockStatus.BLOCKED
        clock.now = 150.0
        assert db.lookup("http://foo.com/")[0] is BlockStatus.NOT_MEASURED
        assert db.record_count == 0  # expired record dropped on lookup

    def test_lookup_expires_only_stale_records(self, db, clock):
        db.record_measurement("http://a.com/", BlockStatus.NOT_BLOCKED, [])
        clock.now = 60.0
        db.record_measurement("http://b.com/", BlockStatus.NOT_BLOCKED, [])
        clock.now = 130.0
        assert db.lookup("http://a.com/")[0] is BlockStatus.NOT_MEASURED
        assert db.lookup("http://b.com/")[0] is BlockStatus.NOT_BLOCKED
        assert db.record_count == 1  # only a.com expired

    def test_status_change_replaces_record(self, db):
        db.record_measurement(
            "http://foo.com/", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        db.record_measurement("http://foo.com/", BlockStatus.NOT_BLOCKED, [])
        status, record = db.lookup("http://foo.com/x")
        assert status is BlockStatus.NOT_BLOCKED
        assert record.stages == []

    def test_same_status_merges_stages_and_resets_posted(self, db):
        record = db.record_measurement(
            "http://foo.com/", BlockStatus.BLOCKED, [BlockType.DNS_SERVFAIL]
        )
        record.global_posted = True
        db.record_measurement(
            "http://foo.com/", BlockStatus.BLOCKED, [BlockType.IP_TIMEOUT]
        )
        status, merged = db.lookup("http://foo.com/")
        assert merged.stages == [BlockType.DNS_SERVFAIL, BlockType.IP_TIMEOUT]
        assert not merged.global_posted

    def test_pending_reports_and_mark_posted(self, db):
        db.record_measurement(
            "http://a.com/", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        db.record_measurement("http://b.com/", BlockStatus.NOT_BLOCKED, [])
        pending = db.pending_reports()
        assert [r.url for r in pending] == ["http://a.com/"]
        db.mark_posted(["http://a.com/"])
        assert db.pending_reports() == []

    def test_not_measured_cannot_be_recorded(self, db):
        with pytest.raises(ValueError):
            db.record_measurement("http://a.com/", BlockStatus.NOT_MEASURED, [])

    def test_aggregation_disabled_keeps_every_url(self, clock):
        db = LocalDatabase(ttl=100, aggregation=False, clock=clock)
        for path in ("/a", "/b", "/c"):
            db.record_measurement(
                f"http://foo.com{path}", BlockStatus.NOT_BLOCKED, []
            )
        assert db.record_count == 3
        # Exact-match only: the base was never measured.
        assert db.lookup("http://foo.com/")[0] is BlockStatus.NOT_MEASURED
        assert db.lookup("http://foo.com/a")[0] is BlockStatus.NOT_BLOCKED

    def test_aggregation_reduces_records(self, clock):
        """The Figure-6b effect in miniature."""
        with_agg = LocalDatabase(ttl=1e9, aggregation=True, clock=clock)
        without = LocalDatabase(ttl=1e9, aggregation=False, clock=clock)
        urls = [f"http://site{s}.com/page/{p}" for s in range(5) for p in range(6)]
        for url in urls:
            with_agg.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
            without.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
        assert with_agg.record_count == 5  # one per origin
        assert without.record_count == 30

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from(["/", "/a", "/a/b", "/c"]),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    def test_lookup_never_crashes_and_statuses_valid(self, operations):
        clock = FakeClock()
        db = LocalDatabase(ttl=100, clock=clock)
        for site, path, blocked in operations:
            url = f"http://site{site}.com{path}"
            if blocked:
                db.record_measurement(
                    url, BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
                )
            else:
                db.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
            status, _record = db.lookup(url)
            assert status in (BlockStatus.BLOCKED, BlockStatus.NOT_BLOCKED)


class TestDirtyKeySets:
    """pending_reports/blocked_records are served from write-maintained
    key sets; these tests pin the sets to what a full scan would say."""

    @staticmethod
    def naive_pending(db):
        return {
            r.url
            for r in db.records()
            if r.status is BlockStatus.BLOCKED and not r.global_posted
        }

    @staticmethod
    def naive_blocked(db):
        return {r.url for r in db.records() if r.status is BlockStatus.BLOCKED}

    def test_stage_merge_re_dirties_posted_record(self, db):
        db.record_measurement(
            "http://a.com/", BlockStatus.BLOCKED, [BlockType.DNS_SERVFAIL]
        )
        db.mark_posted(["http://a.com/"])
        assert db.pending_reports() == []
        db.record_measurement(
            "http://a.com/", BlockStatus.BLOCKED, [BlockType.IP_TIMEOUT]
        )
        assert [r.url for r in db.pending_reports()] == ["http://a.com/"]
        # A repeat with no new stage stays clean once posted again.
        db.mark_posted(["http://a.com/"])
        db.record_measurement(
            "http://a.com/", BlockStatus.BLOCKED, [BlockType.IP_TIMEOUT]
        )
        assert db.pending_reports() == []

    def test_status_flip_clears_both_sets(self, db):
        db.record_measurement(
            "http://a.com/", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        assert len(db.blocked_records()) == 1
        db.record_measurement("http://a.com/", BlockStatus.NOT_BLOCKED, [])
        assert db.blocked_records() == []
        assert db.pending_reports() == []

    def test_expiry_cleans_key_sets(self, db, clock):
        db.record_measurement(
            "http://a.com/", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        clock.now = 150.0
        db.lookup("http://a.com/")  # drops the expired record
        assert db.blocked_records() == []
        assert db.pending_reports() == []

    def test_restore_rebuilds_key_sets(self, db):
        db.record_measurement(
            "http://a.com/", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        db.record_measurement(
            "http://b.com/", BlockStatus.BLOCKED, [BlockType.BLOCK_PAGE]
        )
        db.record_measurement("http://c.com/", BlockStatus.NOT_BLOCKED, [])
        db.mark_posted(["http://a.com/"])
        snapshot = db.snapshot()

        fresh = LocalDatabase(asn=17557, ttl=100.0, clock=FakeClock())
        fresh.restore(snapshot)
        assert self.naive_blocked(fresh) == {"http://a.com/", "http://b.com/"}
        assert {r.url for r in fresh.blocked_records()} == self.naive_blocked(
            fresh
        )
        assert [r.url for r in fresh.pending_reports()] == ["http://b.com/"]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["record", "post", "flip", "expire"]),
                st.integers(min_value=0, max_value=3),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_key_sets_match_naive_scan(self, operations):
        clock = FakeClock()
        db = LocalDatabase(ttl=100, clock=clock)
        for op, site, blocked in operations:
            url = f"http://site{site}.com/"
            if op == "record":
                status = (
                    BlockStatus.BLOCKED if blocked else BlockStatus.NOT_BLOCKED
                )
                stages = [BlockType.BLOCK_PAGE] if blocked else []
                db.record_measurement(url, status, stages)
            elif op == "post":
                db.mark_posted([url])
            elif op == "flip":
                db.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
            else:
                clock.now += 40.0
                db.lookup(url)  # drops the record if it has expired
            assert {
                r.url for r in db.pending_reports()
            } == self.naive_pending(db)
            assert {
                r.url for r in db.blocked_records()
            } == self.naive_blocked(db)
