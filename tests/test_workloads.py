"""Tests for the workload generators: corpus, pilot, the §7.5 wave, ONI sweep."""

import random

import pytest

from tests._golden import check, oni_construction, pilot_construction
from repro.scenarios import ScenarioRunner, wave_spec
from repro.urlkit import parse_url
from repro.workloads.corpus import ZIPF_EXPONENT, build_corpus
from repro.workloads.oni import FIG2_CATEGORIES, OniSweep
from repro.workloads.pilot import PilotConfig, PilotStudy
from repro.simnet.world import World


class TestCorpus:
    def test_deterministic_in_seed(self):
        a = build_corpus(n_sites=50, seed=3)
        b = build_corpus(n_sites=50, seed=3)
        assert [s.hostname for s in a.sites] == [s.hostname for s in b.sites]
        c = build_corpus(n_sites=50, seed=4)
        assert [s.hostname for s in a.sites] != [s.hostname for s in c.sites]

    def test_category_mix_roughly_respected(self):
        corpus = build_corpus(n_sites=400, seed=1)
        porn = len(corpus.domains_in_categories(["porn"]))
        assert 0.04 * 400 <= porn <= 0.2 * 400

    def test_zipf_sampling_prefers_top_ranks(self):
        corpus = build_corpus(n_sites=200, seed=2)
        rng = random.Random(9)
        top = sum(
            1 for _ in range(2000) if corpus.sample_site(rng).rank <= 20
        )
        assert top > 400  # far more than the uniform 10 %

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    def test_site_draws_match_weights_reference(self, seed):
        """Drawing from the prebuilt cumulative weights is exact: the
        same sites as ``choices(weights=...)`` draw for draw, and the
        same RNG state after."""
        corpus = build_corpus(n_sites=300, seed=seed)
        weights = [
            1 / site.rank ** ZIPF_EXPONENT for site in corpus.sites
        ]
        fast, reference = random.Random(seed), random.Random(seed)
        for _ in range(500):
            assert corpus.sample_site(fast) is reference.choices(
                corpus.sites, weights=weights
            )[0]
        assert fast.getstate() == reference.getstate()

    def test_materialize_creates_sites_and_cdns(self):
        corpus = build_corpus(n_sites=30, seed=5)
        world = World(seed=5)
        corpus.materialize(world)
        for site in corpus.sites[:5]:
            assert world.web.site_for(site.hostname) is not None
        for cdn in corpus.cdn_hostnames:
            cdn_site = world.web.site_for(cdn)
            assert cdn_site is not None
            assert cdn_site.page("/whatever/object.jpg") is not None

    def test_materialize_idempotent(self):
        corpus = build_corpus(n_sites=10, seed=5)
        world = World(seed=5)
        corpus.materialize(world)
        corpus.materialize(world)  # must not raise on duplicates

    def test_domains_in_categories(self):
        corpus = build_corpus(n_sites=100, seed=6)
        blocked = corpus.domains_in_categories(("porn", "political"))
        assert blocked
        assert all(
            any(cat in d for cat in ("porn", "political")) for d in blocked
        )


class TestPilotSmall:
    @pytest.fixture(scope="class")
    def report_and_study(self):
        study = PilotStudy(
            PilotConfig(
                seed=11,
                n_users=12,
                n_sites=200,
                requests_per_user=25,
                duration_days=20,
                n_ases=6,
            )
        )
        report = study.run()
        return report, study

    def test_all_users_registered(self, report_and_study):
        report, _study = report_and_study
        assert report.users == 12

    def test_blocked_urls_discovered(self, report_and_study):
        report, _study = report_and_study
        assert report.unique_blocked_urls > 10
        assert report.unique_blocked_domains > 5
        assert report.unique_ases == 6

    def test_blockpage_most_common_then_dns(self, report_and_study):
        """§7.4: block pages are the majority mechanism, DNS second."""
        report, _study = report_and_study
        assert report.urls_blockpage > report.urls_dns_blocked
        assert report.urls_dns_blocked > report.urls_tcp_timeout

    def test_multiple_block_types_observed(self, report_and_study):
        report, _study = report_and_study
        assert report.distinct_block_types >= 4

    def test_cdn_blocking_discovered_via_embedded_objects(self, report_and_study):
        report, _study = report_and_study
        assert report.cdn_domains_detected >= 1

    def test_updates_flow_to_server(self, report_and_study):
        report, study = report_and_study
        assert report.unique_updates >= report.unique_blocked_urls
        assert study.server.update_count == report.unique_updates


class TestBlockingWave:
    """The §7.5 wave, run through the scenario runner."""

    @pytest.fixture(scope="class")
    def outcome(self):
        return ScenarioRunner(workers=1).run(wave_spec(seed=6, users_per_as=3))

    @staticmethod
    def services(outcome):
        """(AS, service label) -> observation; labels are the spec's own."""
        label = {url: name for name, url in outcome.spec.urls.items()}
        return {(o.asn, label[o.url]): o for o in outcome.observations}

    def test_wave_detects_all_five_events(self, outcome):
        assert len(outcome.observations) == 5
        services = self.services(outcome)
        assert (38193, "twitter") in services
        assert (17557, "twitter") in services
        assert sum(1 for _asn, name in services if name == "instagram") == 3

    def test_detection_lags_blocking_onset(self, outcome):
        onsets = {(e.asn, e.domain): e.time for e in outcome.spec.events}
        for obs in outcome.observations:
            onset = onsets[(obs.asn, parse_url(obs.url).host)]
            assert obs.detected_at >= onset
            # Users browse every ~30 min: detection within a few hours.
            assert obs.detected_at - onset < 6 * 3600.0

    def test_mechanism_labels_match_paper_vocabulary(self, outcome):
        by_asn = {key: o.symptom for key, o in self.services(outcome).items()}
        assert by_asn[(38193, "twitter")] == "HTTP_GET_TIMEOUT"
        assert by_asn[(17557, "twitter")] == "HTTP_GET_BLOCKPAGE"
        for asn in (38193, 59257, 45773):
            assert by_asn[(asn, "instagram")] == "DNS blocking"


class TestOniSweep:
    @pytest.fixture(scope="class")
    def sweep_results(self):
        sweep = OniSweep(seed=17, domains_per_as=40)
        measured = sweep.run()
        return measured, sweep.ground_truth()

    def test_all_ases_measured(self, sweep_results):
        measured, truth = sweep_results
        assert set(measured) == set(truth)

    def test_fractions_sum_to_one(self, sweep_results):
        measured, _truth = sweep_results
        for asn, mix in measured.items():
            assert sum(mix.values()) == pytest.approx(1.0, abs=1e-6)

    def test_dominant_category_matches_ground_truth(self, sweep_results):
        measured, truth = sweep_results
        for asn in truth:
            expected = max(truth[asn], key=truth[asn].get)
            observed = max(measured[asn], key=measured[asn].get)
            assert observed == expected, f"AS{asn}: {measured[asn]}"

    def test_heterogeneity_across_ases(self, sweep_results):
        """The figure's point: mixes differ across ASes/countries."""
        measured, _truth = sweep_results
        dominants = {
            max(mix, key=mix.get) for mix in measured.values()
        }
        assert len(dominants) >= 3

    def test_bad_mix_rejected(self):
        from repro.workloads.oni import OniAsSpec

        with pytest.raises(ValueError):
            OniAsSpec(1, "X", (0.5, 0.5, 0.5, 0.0, 0.0))

    @pytest.mark.parametrize("domains_per_as", [0, -3])
    def test_empty_domain_list_rejected(self, domains_per_as):
        with pytest.raises(ValueError, match="domains_per_as"):
            OniSweep(domains_per_as=domains_per_as)


class TestPilotConfig:
    @pytest.mark.parametrize("field,value", [
        ("n_users", 0),
        ("n_users", -2),
        ("n_ases", 0),
        ("n_sites", 0),
        ("duration_days", 0.0),
        ("duration_days", -1.0),
        ("duration_days", float("nan")),
    ])
    def test_bad_size_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            PilotConfig(**{field: value})


class TestConstructionGolden:
    """The pilot and the ONI sweep still build the rules, block page,
    transports and fractions they built before they used the scenario
    compiler's pieces (``tests/data/construction_golden.json``)."""

    def test_pilot_world_matches_golden(self):
        check("construction_golden", pilot_construction(), at="pilot")

    def test_oni_world_matches_golden(self):
        check("construction_golden", oni_construction(), at="oni")


class TestStaggeredRollout:
    """A national directive enforced with per-ISP lag: a ``[rolling]``
    section compiled into per-AS events."""

    @staticmethod
    def compiled_events(domains, asns, start, lag, seed):
        from repro.scenarios import ScenarioCompiler, ScenarioSpec

        spec = ScenarioSpec.from_dict({
            "name": "rollout",
            "seed": seed,
            "policies": [{"name": "p"}],
            "ases": [{"asn": asn, "policy": "p"} for asn in asns],
            "rolling": {"domains": domains, "asns": asns, "start": start,
                        "lag": lag, "mechanisms": ["http-drop"]},
        })
        return ScenarioCompiler().compile(spec).events

    def test_events_cover_all_pairs(self):
        events = self.compiled_events(
            ["a.example", "b.example"], [1, 2, 3], start=100.0, lag=3600.0,
            seed=4,
        )
        assert len(events) == 6
        assert {(e.asn, e.domain) for e in events} == {
            (asn, d) for asn in (1, 2, 3) for d in ("a.example", "b.example")
        }

    def test_per_as_lag_within_bounds_and_uneven(self):
        events = self.compiled_events(
            ["a.example"], list(range(1, 9)), start=0.0, lag=7200.0, seed=9,
        )
        times = sorted(e.time for e in events)
        assert all(0.0 <= t <= 7200.0 for t in times)
        assert len(set(times)) > 1  # genuinely staggered

    def test_rollout_drives_blocking_wave(self):
        """A staggered directive replayed through the wave world: the
        global DB's first-detection times reflect the per-AS lag order."""
        import dataclasses

        from repro.scenarios import ScenarioRunner
        from repro.scenarios.library import TWITTER, WAVE_ASNS, wave_spec
        from repro.scenarios.spec import RollingSpec

        spec = dataclasses.replace(
            wave_spec(seed=12, users_per_as=3, duration=30 * 3600.0,
                      events=()),
            rolling=RollingSpec(domains=(TWITTER,), asns=WAVE_ASNS,
                                start=8 * 3600.0, lag=6 * 3600.0),
        )
        outcome = ScenarioRunner().run(spec)
        observations = outcome.observations
        assert len(observations) == len(WAVE_ASNS)
        onset = {e.asn: e.time for e in outcome.events}
        for obs in observations:
            assert obs.detected_at >= onset[obs.asn]
            assert obs.symptom == "HTTP_GET_BLOCKPAGE"
