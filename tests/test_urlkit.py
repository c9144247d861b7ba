"""Unit + property tests for URL parsing and base/derived semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.urlkit import base_url, normalize_url, parse_url, registered_domain
from tests._reference_urls import is_derived_of


def test_parse_basic():
    parsed = parse_url("http://www.foo.com/a.html")
    assert parsed.scheme == "http"
    assert parsed.host == "www.foo.com"
    assert parsed.port == 80
    assert parsed.path == "/a.html"
    assert parsed.url == "http://www.foo.com/a.html"


def test_parse_defaults_path_to_root():
    assert parse_url("https://example.com").path == "/"


def test_parse_explicit_port():
    parsed = parse_url("http://example.com:8080/x")
    assert parsed.port == 8080
    assert parsed.origin == "http://example.com:8080"


def test_default_port_elided_in_origin():
    assert parse_url("https://example.com:443/x").origin == "https://example.com"


def test_host_lowercased():
    assert parse_url("http://WWW.Foo.COM/Path").host == "www.foo.com"
    assert parse_url("http://WWW.Foo.COM/Path").path == "/Path"  # path case kept


@pytest.mark.parametrize(
    "bad",
    ["ftp://x.com/", "no-scheme.com/x", "http:///path", "http://h:0/","http://h:70000/"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_url(bad)


def test_base_url_and_is_base():
    assert base_url("http://www.foo.com/a/b.html") == "http://www.foo.com/"
    assert parse_url("http://www.foo.com/").is_base
    assert not parse_url("http://www.foo.com/a").is_base


def test_with_scheme_switches_default_port():
    parsed = parse_url("http://foo.com/x").with_scheme("https")
    assert parsed.scheme == "https"
    assert parsed.port == 443


def test_with_scheme_keeps_custom_port():
    parsed = parse_url("http://foo.com:8080/x").with_scheme("https")
    assert parsed.port == 8080


def test_is_derived_of_root_base():
    assert is_derived_of("http://foo.com/a.html", "http://foo.com/")
    assert is_derived_of("http://foo.com/", "http://foo.com/")
    assert not is_derived_of("http://bar.com/a", "http://foo.com/")
    assert not is_derived_of("https://foo.com/a", "http://foo.com/")


def test_is_derived_of_path_prefix():
    assert is_derived_of("http://foo.com/a/b", "http://foo.com/a")
    assert is_derived_of("http://foo.com/a", "http://foo.com/a")
    assert not is_derived_of("http://foo.com/ab", "http://foo.com/a")


def test_registered_domain():
    assert registered_domain("www.foo.com") == "foo.com"
    assert registered_domain("a.b.c.example.org") == "example.org"
    assert registered_domain("foo.com") == "foo.com"
    assert registered_domain("localhost") == "localhost"


_hosts = st.from_regex(r"[a-z][a-z0-9]{0,8}(\.[a-z][a-z0-9]{0,8}){1,3}", fullmatch=True)
_paths = st.from_regex(r"(/[a-z0-9]{1,6}){0,4}/?", fullmatch=True)
_schemes = st.sampled_from(["http", "https"])


@given(_schemes, _hosts, _paths)
def test_parse_roundtrip_is_idempotent(scheme, host, path):
    url = f"{scheme}://{host}{path or '/'}"
    normalized = normalize_url(url)
    assert normalize_url(normalized) == normalized
    parsed = parse_url(normalized)
    assert parsed.host == host
    assert parsed.scheme == scheme


@given(_schemes, _hosts, _paths)
def test_every_url_derives_from_its_base(scheme, host, path):
    url = f"{scheme}://{host}{path or '/'}"
    assert is_derived_of(url, base_url(url))


@given(_schemes, _hosts, _paths, _paths)
def test_derivation_requires_same_origin(scheme, host, path_a, path_b):
    url_a = f"{scheme}://{host}{path_a or '/'}"
    url_b = f"{scheme}://x{host}{path_b or '/'}"
    assert not is_derived_of(url_a, url_b)
