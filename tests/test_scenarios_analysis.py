"""Tests for scenario builders, analysis helpers, and memory accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import mean, median, percentile, summarize
from repro.analysis.robustness import claim_holds
from repro.analysis.tables import format_seconds, render_table
from repro.core import BlockStatus, BlockType, CSawClient, LocalDatabase
from repro.workloads.scenarios import pakistan_case_study
from tests._centralized import centralized_country


class TestStats:
    def test_percentile_interpolation(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 4.0
        assert percentile(data, 50) == pytest.approx(2.5)

    def test_median_and_mean(self):
        assert median([3, 1, 2]) == 2
        assert mean([1, 2, 3]) == 2

    def test_empty_rejected(self):
        for fn in (median, mean, summarize):
            with pytest.raises(ValueError):
                fn([])
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summary_fields(self):
        s = summarize(range(1, 101))
        assert s.count == 100
        assert s.minimum == 1 and s.maximum == 100
        assert s.p50 == pytest.approx(50.5)
        assert s.p99 > s.p95 > s.p90 > s.p50

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_subnormal=False), min_size=1, max_size=50))
    def test_percentile_within_range(self, values):
        for q in (0, 25, 50, 75, 100):
            p = percentile(values, q)
            assert min(values) <= p <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_subnormal=False), min_size=2, max_size=50))
    def test_percentiles_monotone_in_q(self, values):
        previous = None
        for q in (0, 10, 50, 90, 100):
            current = percentile(values, q)
            if previous is not None:
                # Allow float rounding slop from the interpolation.
                assert current >= previous - 1e-9 * max(1.0, abs(previous))
            previous = current


class TestTables:
    def test_render_alignment_and_title(self):
        text = render_table(["a", "bbb"], [["x", 1], ["yy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        # All data lines equal width.
        assert len(lines[3]) == len(lines[4])

    def test_format_seconds(self):
        assert format_seconds(0.0123) == "12.3ms"
        assert format_seconds(2.5) == "2.50s"


class TestRobustnessHarness:
    def test_claim_holds_reports_failures(self):
        result = claim_holds(lambda s: s, lambda v: v % 2 == 0, [2, 3, 4])
        assert result["fraction"] == pytest.approx(2 / 3)
        assert result["failures"] == [3]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            claim_holds(lambda s: s, lambda v: True, [])


class TestCentralizedScenario:
    def test_all_isps_share_one_policy(self):
        scenario = centralized_country(seed=9, n_isps=4)
        boxes = [isp.censor for isp in scenario.isps]
        assert all(box.policy is scenario.policy for box in boxes)

    def test_same_blocking_seen_from_every_isp(self):
        scenario = centralized_country(seed=9, n_isps=3)
        world = scenario.world
        from repro.core.detection import measure_direct_path

        stage_sets = []
        for isp in scenario.isps:
            client, access = world.add_client(f"cz-{isp.asn}", [isp])
            ctx = world.new_ctx(client, access, stream=f"cz/{isp.asn}")
            outcome = world.run_process(
                measure_direct_path(world, ctx, scenario.urls["youtube"])
            )
            stage_sets.append(tuple(s.value for s in outcome.stages))
        # Centralized censorship: identical symptoms everywhere.
        assert len(set(stage_sets)) == 1
        assert stage_sets[0] == ("block-page",)

    def test_csaw_converges_to_same_fix_on_every_isp(self):
        scenario = centralized_country(seed=10, n_isps=2)
        world = scenario.world
        paths = []
        for isp in scenario.isps:
            client = CSawClient(
                world, f"cz-user-{isp.asn}", [isp],
                transports=scenario.make_transports(f"cz-user-{isp.asn}"),
            )

            def flow(c=client):
                last = None
                for _ in range(3):
                    response = yield from c.request(scenario.urls["youtube"])
                    yield response.measurement_process
                    last = response
                return last

            paths.append(world.run_process(flow()).path)
        assert paths == ["https", "https"]

    def test_policy_change_affects_all_isps_at_once(self):
        scenario = centralized_country(seed=11, n_isps=3)
        removed = scenario.policy.remove_rules("national-youtube")
        assert removed == 1
        world = scenario.world
        from repro.core.detection import measure_direct_path

        for isp in scenario.isps:
            client, access = world.add_client(f"cz2-{isp.asn}", [isp])
            ctx = world.new_ctx(client, access, stream=f"cz2/{isp.asn}")
            outcome = world.run_process(
                measure_direct_path(world, ctx, scenario.urls["youtube"])
            )
            assert outcome.status is BlockStatus.NOT_BLOCKED


class TestMemoryAccounting:
    def test_aggregation_shrinks_footprint(self):
        with_agg = LocalDatabase(ttl=1e9, aggregation=True)
        without = LocalDatabase(ttl=1e9, aggregation=False)
        for s in range(10):
            for p in range(8):
                url = f"http://site{s}.example.com/articles/2017/{p}"
                with_agg.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
                without.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
        assert with_agg.approx_bytes() < 0.25 * without.approx_bytes()

    def test_footprint_counts_stage_lists(self):
        db = LocalDatabase(ttl=1e9)
        db.record_measurement(
            "http://a.example/", BlockStatus.BLOCKED, [BlockType.DNS_SERVFAIL]
        )
        small = db.approx_bytes()
        db.record_measurement(
            "http://a.example/", BlockStatus.BLOCKED,
            [BlockType.IP_TIMEOUT, BlockType.HTTP_TIMEOUT],
        )
        assert db.approx_bytes() > small

    def test_empty_db_zero_bytes(self):
        assert LocalDatabase(ttl=1e9).approx_bytes() == 0
