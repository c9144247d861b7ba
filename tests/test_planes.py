"""Measurement planes: refactor bit-identity, plane mixes, per-plane voting.

Four layers under test (ISSUE 10):

- the golden fingerprint: the plane-backed fleet reporter path is
  bit-identical to the pre-refactor pipeline for the single-C-Saw-plane
  case, for the sweep and its per-client reference
  (``tests/data/plane_golden.json``);
- the plane abstraction itself: profiles, the registry, reporter
  sampling, per-plane wave items;
- mixed-plane storms: provenance counters, per-plane convergence,
  sweep/reference equivalence, sharding-style metric merges;
- per-plane voting: a ledger with every client on the default plane is
  the pre-plane ledger, the per-plane snapshot partitions the aggregate
  and matches the from-scratch reference after every operation, and the
  weighted criterion degenerates to today's unweighted one.
"""

import random
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests._golden import capture_planes, check, freeze, golden_storm
from tests._reference_fleet import run_reference_storm
from tests._reference_globaldb import (
    plane_stats_of,
    recompute_plane_stats,
    recompute_stats,
)
from repro.core.fleet import WAVE_STAGES, ClientCohort, run_fleet_storm
from repro.core.globaldb import ReportItem, ServerDB
from repro.core.records import BlockType
from repro.core.voting import DEFAULT_PLANE, VotingLedger
from repro.planes import (
    CSawBrowserPlane,
    EncoreProbePlane,
    GeneratedProbeListPlane,
    PLANE_KINDS,
    SybilPlane,
    build_plane,
)

MIX = (
    {"kind": "csaw", "fraction": 0.04},
    {"kind": "encore", "fraction": 0.06, "miss_rate": 0.25},
    {"kind": "problist", "fraction": 0.02, "coverage": 0.8},
)


def mixed_storm(seed=11, server=None, run=run_fleet_storm, **overrides):
    kwargs = dict(
        seed=seed,
        n_ases=4,
        clients_per_as=120,
        urls_per_as=6,
        pull_interval=600.0,
        wave_at=300.0,
        asn_base=52000,
        planes=[dict(spec) for spec in MIX],
        server=server,
    )
    kwargs.update(overrides)
    return run(**kwargs)


class TestGoldenFingerprint:
    """The single-plane path through the plane abstraction reproduces
    the pre-refactor pipeline bit for bit (floats compared as reprs)."""

    def test_sweep_and_reference_match_pre_refactor_golden(self):
        check("plane_golden", capture_planes())

    def test_explicit_default_plane_matches_golden_too(self):
        """Passing the C-Saw plane as an instance is the same storm as
        passing its spec mapping, as the golden storm does."""

        def run(planes):
            _, _, metrics = golden_storm(ClientCohort, planes=planes)
            return metrics.summary()

        explicit = run([CSawBrowserPlane(fraction=0.05)])
        assert explicit == run([{"kind": "csaw", "fraction": 0.05}])
        check("plane_golden", freeze(explicit), at="grouped.summary")

    def test_default_mix_is_one_csaw_plane_at_one_percent(self):
        """No ``planes`` is one C-Saw plane at 1%, bit for bit: every
        metric and every server row."""

        def run(**kwargs):
            server = ServerDB(entry_ttl=None)
            metrics = run_fleet_storm(server=server, **kwargs)
            rows = sorted(
                [e.url, e.asn, [s.value for s in e.stages],
                 repr(e.posted_at), e.last_uuid]
                for e in server.all_entries()
            )
            return freeze(asdict(metrics)), rows

        default = run()
        assert default[0]["n_reporters"] == 50 * 20
        assert default == run(planes=[{"kind": "csaw", "fraction": 0.01}])


class TestPlaneAbstraction:
    def test_profiles_encode_the_fidelity_volume_tradeoff(self):
        csaw = CSawBrowserPlane(fraction=0.01)
        encore = EncoreProbePlane(fraction=0.1)
        problist = GeneratedProbeListPlane(fraction=0.01, coverage=0.7)
        assert csaw.profile.fidelity == 1.0 and csaw.profile.registered
        assert encore.profile.fidelity < csaw.profile.fidelity
        assert not encore.profile.registered  # no CAPTCHA, no identity
        assert encore.profile.cost_per_report < csaw.profile.cost_per_report
        assert problist.profile.false_signal == pytest.approx(0.3)

    def test_registry_builds_each_kind(self):
        for kind in PLANE_KINDS:
            plane = build_plane({"kind": kind, "fraction": 0.05})
            assert plane.profile.kind == kind
            assert plane.reporter_count(100) == 5
        with pytest.raises(ValueError):
            build_plane({"kind": "satellite", "fraction": 0.1})

    def test_a_knob_the_kind_does_not_read_is_rejected(self):
        # A typo used to be dropped silently and the storm ran on the
        # default coverage.
        with pytest.raises(ValueError, match=r"'encore' does not read \['covrage'\]"):
            run_fleet_storm(
                n_ases=1, clients_per_as=20, urls_per_as=1,
                planes=[{"kind": "encore", "fraction": 0.05, "covrage": 0.9}],
            )

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            CSawBrowserPlane(fraction=0.0)
        with pytest.raises(ValueError):
            EncoreProbePlane(fraction=1.5)
        with pytest.raises(ValueError):
            EncoreProbePlane(fraction=0.1, miss_rate=1.0)
        with pytest.raises(ValueError):
            GeneratedProbeListPlane(fraction=0.1, coverage=0.0)

    def test_reporter_count_floors_at_one(self):
        assert CSawBrowserPlane(fraction=0.001).reporter_count(100) == 1

    def test_encore_registers_without_captcha_gate(self):
        server = ServerDB(entry_ttl=None)
        plane = EncoreProbePlane(fraction=0.1)
        uuids = plane.register_reporters(server, now=1.0, count=3)
        assert len(uuids) == len(set(uuids)) == 3
        assert [server.voting.plane_of(uuid) for uuid in uuids] == [
            "encore"
        ] * 3

    def test_encore_reporters_drop_items_independently(self):
        plane = EncoreProbePlane(fraction=0.1, miss_rate=0.5)
        shared = plane.wave_items(
            ["http://u0.com/", "http://u1.com/", "http://u2.com/"],
            asn=1, onset=0.0, rng=random.Random(3),
        )
        assert len(shared) == 3  # the wave itself is complete ...
        rng = random.Random(5)
        kept = [len(plane.reporter_items(shared, rng)) for _ in range(50)]
        assert min(kept) < 3  # ... but individual probes miss

    def test_problist_coverage_filters_wave_urls(self):
        plane = GeneratedProbeListPlane(fraction=0.1, coverage=0.5)
        urls = [f"http://u{i}.com/" for i in range(40)]
        items = plane.wave_items(urls, asn=1, onset=10.0, rng=random.Random(9))
        assert 0 < len(items) < len(urls)


class TestSybilPlanes:
    """The §5 adversaries as reporter planes: what they fabricate (the
    vote mass the ledger grants it is an oracle in
    ``tests/test_oracles.py``)."""

    WAVE = [f"http://wave-as7-{k}.example.com/" for k in range(3)]

    def test_fabricated_items_look_like_csaw_reports(self):
        for kind in ("flood", "clique"):
            plane = build_plane({"kind": kind, "fraction": 0.1, "urls_each": 5})
            assert plane.profile.registered  # passes the CAPTCHA
            rng = random.Random(1)
            items = plane.wave_items(self.WAVE, asn=7, onset=9.0, rng=rng)
            if plane.per_reporter_items:
                items = plane.reporter_items(items, rng)
            assert len({item.url for item in items}) == 5
            assert not {item.url for item in items} & set(self.WAVE)
            assert {(i.asn, i.stages, i.measured_at) for i in items} \
                == {(7, WAVE_STAGES, 9.0)}
            server = ServerDB(entry_ttl=None)
            (uuid,) = plane.register_reporters(server, now=0.0, count=1)
            assert server.voting.plane_of(uuid) == kind

    def test_bad_kind_and_volume_rejected(self):
        with pytest.raises(ValueError):
            SybilPlane("ring", fraction=0.1)
        with pytest.raises(ValueError):
            SybilPlane("flood", fraction=0.1, urls_each=0)


class TestMixedPlaneStorm:
    def test_provenance_counters_partition_the_storm(self):
        metrics = mixed_storm()
        assert set(metrics.reporters_by_plane) == {"csaw", "encore", "problist"}
        # 120 clients/AS x 4 ASes: round(120 * 0.04) = 5 csaw reporters/AS.
        assert metrics.reporters_by_plane["csaw"] == 4 * 5
        assert sum(metrics.reporters_by_plane.values()) == metrics.n_reporters
        assert sum(metrics.reports_by_plane.values()) == metrics.reports_absorbed
        # Encore's volume leads despite its misses; problist trails.
        assert metrics.reports_by_plane["encore"] > metrics.reports_by_plane["csaw"]
        assert metrics.reports_by_plane["problist"] > 0

    def test_per_plane_convergence_covers_every_as(self):
        metrics = mixed_storm()
        for plane, by_as in metrics.convergence_by_plane.items():
            assert len(by_as) == 4, plane
            assert all(value >= 0 for value in by_as.values()), plane
        # Every client eventually pulls every plane's target: each curve
        # accumulates to the full fleet population.
        deltas = {
            plane: sum(d for _, d in events)
            for plane, events in metrics.curve_by_plane.items()
        }
        assert deltas == {
            plane: metrics.n_clients for plane in metrics.reporters_by_plane
        }

    def test_each_reporters_list_is_freed_once_it_posts(self):
        """A per-reporter plane's list is read once, when its reporter
        posts; the sweep must not keep it for the rest of the run."""
        cohort, _, metrics = golden_storm(
            ClientCohort, planes=[EncoreProbePlane(fraction=0.1, miss_rate=0.25)]
        )
        assert metrics.reports_by_plane["encore"] > 0
        posted = 0
        for shard in cohort.shards:
            for group in shard.groups:
                for r in group.report_order[:group.report_ptr]:
                    assert not group.items_by_r[r]
                    posted += 1
        assert posted == metrics.n_reporters

    def test_grouped_and_spec_sweeps_agree_on_mixed_storms(self):
        grouped = mixed_storm()
        spec = mixed_storm(run=run_reference_storm)
        assert grouped.summary() == spec.summary()
        assert grouped.reports_by_plane == spec.reports_by_plane
        assert grouped.convergence_by_plane == spec.convergence_by_plane
        assert {k: sorted(v) for k, v in grouped.curve_by_plane.items()} == {
            k: sorted(v) for k, v in spec.curve_by_plane.items()
        }

    def test_wave_stagger_rolls_the_block_across_ases(self):
        rolled = mixed_storm(wave_stagger=200.0, seed=13)
        onsets = set()
        for by_as in rolled.convergence_by_plane.values():
            assert all(value >= 0 for value in by_as.values())
        flat = mixed_storm(seed=13)
        assert flat.convergence_by_as != rolled.convergence_by_as
        onsets = {at for at, _ in rolled.curve_by_plane["csaw"]}
        assert len(onsets) > 1

    def test_server_keeps_per_plane_vote_statistics(self):
        server = ServerDB(entry_ttl=None)
        metrics = mixed_storm(server=server)
        voting = server.voting
        planes = {"csaw", "encore", "problist"}
        assert {voting.plane_of(c) for c in voting.clients()} == planes
        assert set(metrics.reports_by_plane) == planes
        entry = next(iter(server.all_entries()))
        by_plane = server.voting.plane_stats(entry.url, entry.asn)
        assert by_plane  # provenance survives into the voting ledger
        aggregate = server.stats_for(entry.url, entry.asn)
        assert sum(s.reporters for s in by_plane.values()) == aggregate.reporters
        assert sum(s.votes for s in by_plane.values()) == pytest.approx(
            aggregate.votes
        )

    def test_plane_summary_scalars(self):
        metrics = mixed_storm()
        summary = metrics.plane_summary()
        for plane, scalars in summary.items():
            assert scalars["reporters"] == metrics.reporters_by_plane[plane]
            assert scalars["reports"] == metrics.reports_by_plane[plane]
            assert scalars["converged_ases"] == 4
            assert scalars["mean_convergence_sim_s"] > 0

    def test_metrics_merge_folds_plane_fields(self):
        left = mixed_storm(n_ases=2, asn_base=52000)
        right = mixed_storm(n_ases=2, asn_base=52002)
        whole = mixed_storm(n_ases=4, asn_base=52000)
        merged = left.merge(right)
        assert merged.reports_by_plane == whole.reports_by_plane
        assert merged.convergence_by_plane == whole.convergence_by_plane
        assert {k: sorted(v) for k, v in merged.curve_by_plane.items()} == {
            k: sorted(v) for k, v in whole.curve_by_plane.items()
        }


class TestPerPlaneVoting:
    def seeded_ledger(self):
        ledger = VotingLedger()
        ledger.set_client_reports("c1", [("http://a.com/", 1), ("http://b.com/", 1)])
        ledger.set_client_reports("c2", [("http://a.com/", 1)])
        ledger.set_client_reports("e1", [("http://a.com/", 1), ("http://c.com/", 1)])
        ledger.set_client_plane("e1", "encore")
        return ledger

    def test_dormant_ledger_answers_default_plane_queries(self):
        ledger = VotingLedger()
        ledger.set_client_reports("c1", [("http://a.com/", 1)])
        assert ledger.plane_of("c1") == DEFAULT_PLANE
        assert plane_stats_of(ledger, "http://a.com/", 1, DEFAULT_PLANE) == (
            ledger.stats("http://a.com/", 1)
        )
        assert plane_stats_of(ledger, "http://a.com/", 1, "encore").reporters == 0
        assert ledger.plane_stats("http://a.com/", 1) == {
            DEFAULT_PLANE: ledger.stats("http://a.com/", 1)
        }

    def test_activation_rebuilds_then_partitions(self):
        ledger = self.seeded_ledger()
        csaw = plane_stats_of(ledger, "http://a.com/", 1, DEFAULT_PLANE)
        encore = plane_stats_of(ledger, "http://a.com/", 1, "encore")
        assert csaw.reporters == 2 and encore.reporters == 1
        assert csaw.votes == pytest.approx(0.5 + 1.0)
        assert encore.votes == pytest.approx(0.5)
        total = ledger.stats("http://a.com/", 1)
        assert csaw.reporters + encore.reporters == total.reporters
        assert csaw.votes + encore.votes == pytest.approx(total.votes)

    def test_weighted_stats_all_ones_is_unweighted(self):
        ledger = self.seeded_ledger()
        weighted = ledger.weighted_stats(
            "http://a.com/", 1, {"csaw": 1.0, "encore": 1.0}
        )
        plain = ledger.stats("http://a.com/", 1)
        assert weighted.votes == pytest.approx(plain.votes)
        assert weighted.reporters == pytest.approx(plain.reporters)

    def test_weighted_stats_downweights_coarse_planes(self):
        ledger = self.seeded_ledger()
        weighted = ledger.weighted_stats(
            "http://a.com/", 1, {"encore": 0.5}
        )
        assert weighted.votes == pytest.approx(1.5 + 0.5 * 0.5)
        assert weighted.reporters == pytest.approx(2 + 0.5)

    def test_revoke_clears_plane_assignment(self):
        ledger = self.seeded_ledger()
        ledger.revoke_client("e1")
        assert plane_stats_of(ledger, "http://a.com/", 1, "encore").reporters == 0
        assert ledger.plane_of("e1") == DEFAULT_PLANE
        assert ledger.stats("http://a.com/", 1).reporters == 2

    def test_reassignment_rebuckets_existing_reports(self):
        ledger = self.seeded_ledger()
        ledger.set_client_plane("c2", "problist")
        assert plane_stats_of(ledger, "http://a.com/", 1, "problist").reporters == 1
        assert plane_stats_of(ledger, "http://a.com/", 1, DEFAULT_PLANE).reporters == 1
        ledger.set_client_plane("c2", DEFAULT_PLANE)
        assert plane_stats_of(ledger, "http://a.com/", 1, "problist").reporters == 0
        assert plane_stats_of(ledger, "http://a.com/", 1, DEFAULT_PLANE).reporters == 2

    def test_server_weighted_filter_gates_coarse_only_entries(self):
        server = ServerDB(entry_ttl=None)
        probe = server.register(now=0.0, plane="encore", captcha_gated=False)
        human = server.register(now=0.0)
        server.post_update(
            probe,
            [ReportItem(url="http://coarse.com/", asn=9,
                        stages=(BlockType.HTTP_TIMEOUT,), measured_at=1.0)],
            now=1.0,
        )
        server.post_update(
            human,
            [ReportItem(url="http://firm.com/", asn=9,
                        stages=(BlockType.BLOCK_PAGE,), measured_at=1.0)],
            now=1.0,
        )
        unweighted = server.blocked_for_as(9, now=2.0, min_votes=0.6)
        assert {e.url for e in unweighted} == {
            "http://coarse.com/", "http://firm.com/"
        }
        weighted = server.blocked_for_as(
            9, now=2.0, min_reporters=0, min_votes=0.6,
            plane_weights={"encore": 0.5},
        )
        assert {e.url for e in weighted} == {"http://firm.com/"}


PLANE_NAMES = (DEFAULT_PLANE, "encore", "problist")
URLS = tuple(f"http://u{i}.com/" for i in range(4))
CLIENTS = ("c0", "c1", "c2", "c3")
_keys = st.lists(
    st.sampled_from([(url, 1) for url in URLS]), max_size=4, unique=True
)

ledger_ops = st.lists(
    st.one_of(
        st.tuples(st.just("reports"), st.sampled_from(CLIENTS), _keys),
        # One vouch set for the fresh ones among 1-4 clients, counted as
        # a block of absorbed uploads counts it.
        st.tuples(
            st.just("first"),
            st.lists(
                st.sampled_from(CLIENTS), min_size=1, max_size=4, unique=True
            ),
            _keys,
        ),
        st.tuples(
            st.just("plane"),
            st.sampled_from(CLIENTS),
            st.sampled_from(PLANE_NAMES),
        ),
        st.tuples(st.just("revoke"), st.sampled_from(CLIENTS), st.none()),
    ),
    max_size=24,
)


class TestPlaneLedgerProperties:
    """The per-plane histograms are a *partition* of the aggregate, and
    the snapshot agrees with the from-scratch reference after every
    operation: a per-plane read between two writes sees the second."""

    @staticmethod
    def apply(ledger, op, with_planes=True):
        kind, client, arg = op
        if kind == "reports":
            ledger.set_client_reports(client, arg)
        elif kind == "first":
            fresh = [c for c in client if not ledger.vouches(c)]
            ledger.add_first_vouches([(tuple(arg), fresh)])
        elif kind == "plane":
            if with_planes:
                ledger.set_client_plane(client, arg)
        else:
            ledger.revoke_client(client)

    @given(ops=ledger_ops)
    @settings(max_examples=60, deadline=None)
    def test_plane_tracking_never_disturbs_aggregate_stats(self, ops):
        tracked = VotingLedger()
        plain = VotingLedger()
        for op in ops:
            self.apply(tracked, op)
            self.apply(plain, op, with_planes=False)
        for url in URLS:
            assert tracked.stats(url, 1) == plain.stats(url, 1)
            assert recompute_stats(tracked, url, 1) == tracked.stats(url, 1)

    @given(ops=ledger_ops)
    @settings(max_examples=60, deadline=None)
    def test_plane_histograms_partition_the_aggregate(self, ops):
        ledger = VotingLedger()
        for op in ops:
            self.apply(ledger, op)
        for url in URLS:
            total = ledger.stats(url, 1)
            by_plane = ledger.plane_stats(url, 1)
            assert sum(s.reporters for s in by_plane.values()) == total.reporters
            assert sum(s.votes for s in by_plane.values()) == pytest.approx(
                total.votes
            )
            all_ones = ledger.weighted_stats(
                url, 1, {name: 1.0 for name in PLANE_NAMES}
            )
            assert all_ones.reporters == pytest.approx(total.reporters)
            assert all_ones.votes == pytest.approx(total.votes)

    # Each mutator after a per-plane read: a first vouch block, a first
    # vouch, a re-bucketing one, a plane change and a revocation.
    @example(ops=[
        ("plane", "c0", "encore"),
        ("first", ["c0", "c1"], [(URLS[0], 1), (URLS[1], 1)]),
        ("reports", "c2", [(URLS[0], 1)]),
        ("reports", "c2", [(URLS[1], 1), (URLS[2], 1)]),
        ("plane", "c1", "problist"),
        ("revoke", "c0", None),
    ])
    @given(ops=ledger_ops)
    @settings(max_examples=60, deadline=None)
    def test_plane_stats_match_recompute_after_every_op(self, ops):
        ledger = VotingLedger()
        for op in ops:
            self.apply(ledger, op)
            for url in URLS:
                for plane in PLANE_NAMES:
                    assert plane_stats_of(ledger, url, 1, plane) == (
                        recompute_plane_stats(ledger, url, 1, plane)
                    ), (op, url, plane)


class TestPlaneSpecDsl:
    def toml_for(self, planes_block="", expect_block=""):
        return f"""
name = "mix"
description = "plane mix under test"
seed = 3

[execution]
mode = "cohort"

[cohort]
n_ases = 2
clients_per_as = 100
urls_per_as = 3
{planes_block}
{expect_block}
"""

    def load(self, text, tmp_path):
        from repro.scenarios import ScenarioSpec

        path = tmp_path / "mix.toml"
        path.write_text(text)
        spec = ScenarioSpec.from_toml(str(path))
        spec.validate()
        return spec

    def test_planes_section_parses_and_compiles(self, tmp_path):
        from repro.scenarios import ScenarioCompiler

        spec = self.load(
            self.toml_for(
                planes_block="""
[[planes]]
kind = "csaw"
fraction = 0.02

[[planes]]
kind = "encore"
fraction = 0.05
miss_rate = 0.1
""",
                expect_block="""
[[expect.plane]]
name = "encore"
min_reports = 1
""",
            ),
            tmp_path,
        )
        assert [p.name for p in spec.planes] == ["csaw", "encore"]
        planes = ScenarioCompiler.compile_planes(spec)
        assert isinstance(planes[0], CSawBrowserPlane)
        assert isinstance(planes[1], EncoreProbePlane)
        assert planes[1].miss_rate == pytest.approx(0.1)

    def test_no_planes_section_compiles_to_none(self, tmp_path):
        from repro.scenarios import ScenarioCompiler

        spec = self.load(self.toml_for(), tmp_path)
        assert ScenarioCompiler.compile_planes(spec) is None

    def test_unknown_kind_names_the_key(self, tmp_path):
        from repro.scenarios import SpecError

        with pytest.raises(SpecError, match=r"^planes\[0\]\.kind: 'laser'"):
            self.load(
                self.toml_for(planes_block='[[planes]]\nkind = "laser"\n'),
                tmp_path,
            )

    def test_duplicate_plane_names_rejected(self, tmp_path):
        from repro.scenarios import SpecError

        with pytest.raises(SpecError, match="duplicate plane names"):
            self.load(
                self.toml_for(
                    planes_block="""
[[planes]]
kind = "encore"
fraction = 0.05

[[planes]]
kind = "encore"
fraction = 0.01
"""
                ),
                tmp_path,
            )

    def test_knob_the_kind_does_not_read_names_the_key(self, tmp_path):
        from repro.scenarios import SpecError

        with pytest.raises(
            SpecError,
            match=r"^planes\[0\]\.coverage: plane kind 'encore' does not read it",
        ):
            self.load(
                self.toml_for(
                    planes_block="""
[[planes]]
kind = "encore"
fraction = 0.05
coverage = 0.3
"""
                ),
                tmp_path,
            )

    def test_expect_plane_name_must_be_declared(self, tmp_path):
        from repro.scenarios import SpecError

        with pytest.raises(SpecError, match="unknown plane 'laser'"):
            self.load(
                self.toml_for(
                    expect_block="""
[[expect.plane]]
name = "laser"
"""
                ),
                tmp_path,
            )

    def test_expect_plane_defaults_to_csaw_when_no_mix(self, tmp_path):
        spec = self.load(
            self.toml_for(
                expect_block="""
[[expect.plane]]
name = "csaw"
min_reports = 1
"""
            ),
            tmp_path,
        )
        assert spec.expect.planes[0].name == "csaw"

    def test_planes_require_cohort_mode(self, tmp_path):
        from repro.scenarios import ScenarioSpec, SpecError

        path = tmp_path / "bad.toml"
        path.write_text(
            """
name = "bad"
description = "planes outside cohort mode"

[[sites]]
hostname = "a.example.com"

[[ases]]
asn = 64000

[[planes]]
kind = "csaw"
fraction = 0.01
"""
        )
        with pytest.raises(SpecError, match="requires cohort mode"):
            ScenarioSpec.from_toml(str(path)).validate()

    def test_hybrid_planes_pack_is_green(self):
        from repro.scenarios import ScenarioRunner, load_spec

        outcome = ScenarioRunner().run(load_spec("hybrid-planes"))
        assert outcome.report.ok, outcome.report.render()
        kinds = {check.kind for check in outcome.report.checks}
        assert "plane" in kinds
        assert set(outcome.fleet.reports_by_plane) == {
            "csaw", "encore", "problist"
        }


class TestPlaneAnalysis:
    def test_convergence_curves_are_monotone_fractions(self):
        from repro.analysis import plane_convergence_curves

        metrics = mixed_storm()
        curves = plane_convergence_curves(metrics)
        assert set(curves) == {"csaw", "encore", "problist"}
        for plane, points in curves.items():
            fractions = [f for _, f in points]
            assert fractions == sorted(fractions), plane
            assert 0.0 < fractions[-1] <= 1.0

    def test_plane_mix_table_renders_one_row_per_plane(self):
        from repro.analysis import plane_mix_rows, render_plane_mix

        metrics = mixed_storm()
        rows = plane_mix_rows(metrics)
        assert {row["plane"] for row in rows} == {"csaw", "encore", "problist"}
        table = render_plane_mix(metrics)
        for plane in ("csaw", "encore", "problist"):
            assert plane in table

    def test_voting_robustness_degenerate_sweep_matches_unweighted(self):
        from repro.analysis import voting_robustness

        server = ServerDB(entry_ttl=None)
        mixed_storm(server=server)
        asns = [52000 + i for i in range(4)]
        rows = voting_robustness(
            server, asns,
            weight_grids={"encore": (1.0, 0.5), "problist": (1.0,)},
            min_reporters=(1, 2),
        )
        assert len(rows) == 2 * 1 * 2
        baseline = {
            asn: len(server.blocked_for_as(asn, now=0.0, min_reporters=1))
            for asn in asns
        }
        uniform = next(
            row for row in rows
            if row["weights"] == {"encore": 1.0, "problist": 1.0}
            and row["min_reporters"] == 1
        )
        assert uniform["listed_by_as"] == baseline
        downweighted = next(
            row for row in rows
            if row["weights"] == {"encore": 0.5, "problist": 1.0}
            and row["min_reporters"] == 2
        )
        assert downweighted["listed"] <= uniform["listed"]
