"""UrlPrefixIndex invariants that any index optimization must preserve."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import UrlPrefixIndex
from repro.urlkit import parse_url
from tests._reference_urls import is_derived_of


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


_origins = st.sampled_from([
    "http://site.example",
    "https://site.example",
    "http://site.example:8080",
    "http://other.example",
])
# Whole segments only; "a" and "ab" share a first letter, so a match
# that is not on a segment boundary shows.
_paths = st.lists(st.sampled_from(["a", "ab", "b"]), max_size=3).map(
    lambda segments: "/" + "/".join(segments)
)
_urls = st.builds(lambda origin, path: origin + path, _origins, _paths)


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(st.tuples(st.booleans(), _urls), max_size=20),
    queries=st.lists(_urls, min_size=1, max_size=6),
)
def test_longest_prefix_is_the_deepest_key_the_url_derives_from(ops, queries):
    """After every add or remove, ``longest_prefix(u)`` is the stored
    key with the longest path among those ``u`` derives from (the
    whole-segment reference), or ``None`` when there is none."""
    index = UrlPrefixIndex()
    stored = {}  # key -> None, in insertion order
    for add, key in ops:
        if add:
            index.add(key)
            stored[key] = None
        else:
            index.remove(key)
            stored.pop(key, None)
        for url in queries:
            covering = [k for k in stored if is_derived_of(url, k)]
            expected = max(
                covering, key=lambda k: len(parse_url(k).path), default=None
            )
            assert index.longest_prefix(url) == expected, (url, list(stored))
    assert len(index) == len(stored)
