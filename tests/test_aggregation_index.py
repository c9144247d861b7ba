"""UrlPrefixIndex invariants that any index optimization must preserve."""

from __future__ import annotations

from repro.core.aggregation import UrlPrefixIndex


def test_segment_boundary_a_vs_ab():
    # "/a" prefixes "/a/b" but NOT "/ab": matching is whole-segment.
    index = UrlPrefixIndex()
    index.add("http://site.example/a")
    assert index.longest_prefix("http://site.example/a/b") == \
        "http://site.example/a"
    assert index.longest_prefix("http://site.example/a") == \
        "http://site.example/a"
    assert index.longest_prefix("http://site.example/ab") is None
    assert index.longest_prefix("http://site.example/ab/c") is None


def test_longest_prefix_prefers_deepest_key():
    index = UrlPrefixIndex()
    index.add("http://site.example/")
    index.add("http://site.example/a")
    index.add("http://site.example/a/b")
    assert index.longest_prefix("http://site.example/a/b/c") == \
        "http://site.example/a/b"
    assert index.longest_prefix("http://site.example/a/x") == \
        "http://site.example/a"
    assert index.longest_prefix("http://site.example/zzz") == \
        "http://site.example/"


def test_origin_cleanup_after_last_remove():
    index = UrlPrefixIndex()
    index.add("http://one.example/x")
    index.add("http://one.example/y")
    index.add("http://two.example/z")
    assert len(index) == 3

    index.remove("http://one.example/x")
    assert len(index) == 2
    assert index.longest_prefix("http://one.example/y") is not None

    index.remove("http://one.example/y")
    # Last key for the origin: the origin bucket itself must be dropped,
    # not left as an empty dict that lookups keep probing.
    assert "http://one.example" not in index._by_origin
    assert len(index) == 1
    assert index.longest_prefix("http://one.example/y") is None
    assert index.keys_for_origin("http://one.example/y") == []

    # Removing an absent key (or from an absent origin) is a no-op.
    index.remove("http://one.example/x")
    index.remove("http://never.example/q")
    assert len(index) == 1


def test_empty_index_lookups():
    index = UrlPrefixIndex()
    assert len(index) == 0
    assert index.longest_prefix("http://site.example/a") is None
    assert index.keys_for_origin("http://site.example/a") == []


def test_exact_vs_prefix_and_origin_isolation():
    index = UrlPrefixIndex()
    index.add("http://a.example/p")
    # The stored key answers for itself and, as a prefix, for a deeper
    # path; the deeper path is not a key of its own.
    assert index.longest_prefix("http://a.example/p") == "http://a.example/p"
    assert index.longest_prefix("http://a.example/p/q") == "http://a.example/p"
    assert index.keys_for_origin("http://a.example/p/q") == ["http://a.example/p"]
    # Same path under another origin must not leak across buckets.
    assert index.longest_prefix("http://b.example/p/q") is None
