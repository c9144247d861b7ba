"""Last-mile API edge tests: small public surfaces not hit elsewhere."""

import pytest

from repro.core import BlockType, CSawConfig
from repro.core.records import URLRecord, BlockStatus
from repro.core.reporting import GlobalView
from repro.core.globaldb import GlobalEntry
from repro.core.localdb import LocalDatabase
from repro.urlkit import parse_url


class TestParsedUrlHelpers:
    def test_str_is_url(self):
        assert str(parse_url("http://a.example/x")) == "http://a.example/x"

    def test_with_scheme_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_url("http://a.example/").with_scheme("gopher")

    def test_base_of_base_is_itself(self):
        base = parse_url("http://a.example/").base()
        assert base.url == "http://a.example/"
        assert base.is_base


class TestRecordHelpers:
    def test_merge_stages_is_stable_and_deduplicating(self):
        record = URLRecord(
            url="http://x.example/", asn=1, measured_at=0.0,
            status=BlockStatus.BLOCKED, stages=[BlockType.DNS_SERVFAIL],
        )
        record.merge_stages([BlockType.DNS_SERVFAIL, BlockType.IP_TIMEOUT])
        assert record.stages == [BlockType.DNS_SERVFAIL, BlockType.IP_TIMEOUT]

    def test_repr_is_informative(self):
        record = URLRecord(
            url="http://x.example/", asn=1, measured_at=3.5,
            status=BlockStatus.BLOCKED, stages=[BlockType.BLOCK_PAGE],
        )
        text = repr(record)
        assert "http://x.example/" in text
        assert "block-page" in text

    def test_server_filtering_stage_and_scope(self):
        assert BlockType.SERVER_FILTERING.stage == "server"
        assert BlockType.SERVER_FILTERING.hostname_scoped


class TestGlobalViewSurface:
    def make_entry(self, url):
        return GlobalEntry(
            url=url, asn=1, stages=[BlockType.BLOCK_PAGE],
            measured_at=0.0, posted_at=0.0, last_uuid="u",
        )

    def test_urls_listing(self):
        view = GlobalView()
        view.replace([self.make_entry("http://a.example/"),
                      self.make_entry("http://b.example/x")], now=1.0)
        assert sorted(view.urls()) == [
            "http://a.example/", "http://b.example/x"
        ]

    def test_exact_beats_base(self):
        view = GlobalView()
        base = self.make_entry("http://a.example/")
        deep = self.make_entry("http://a.example/deep")
        view.replace([base, deep], now=1.0)
        assert view.lookup("http://a.example/deep") is deep
        assert view.lookup("http://a.example/other") is base


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(probe_probability=1.5),
            dict(redundancy_mode="zigzag"),
            dict(max_redundant_requests=0),
            dict(explore_every_n=1),
            dict(min_reporters=0),
            dict(report_interval=0.0),
            dict(report_interval=-600.0),
            dict(report_interval=float("nan")),
            dict(download_interval=0.0),
            dict(download_interval=-600.0),
            dict(download_interval=float("nan")),
            dict(record_ttl=0.0),
            dict(record_ttl=-1.0),
            dict(record_ttl=float("nan")),
            dict(min_votes=float("nan")),
            dict(redundant_delay=-1.0),
            dict(redundant_delay=float("nan")),
            dict(min_reporters=float("nan")),
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CSawConfig(**kwargs)

    def test_infinite_record_ttl_allowed(self):
        assert CSawConfig(record_ttl=float("inf")).record_ttl == float("inf")

    def test_local_database_rejects_nan_ttl(self):
        # NaN passed a `ttl <= 0` check, and its records never expired.
        with pytest.raises(ValueError, match="ttl"):
            LocalDatabase(ttl=float("nan"))

    def test_defaults_follow_paper(self):
        config = CSawConfig()
        assert config.probe_probability <= 0.25  # §7.1 recommendation
        assert config.max_redundant_requests == 2  # Figure 6a sweet spot
        assert config.explore_every_n == 5  # §4.3.2
