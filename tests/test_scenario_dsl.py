"""The scenario DSL: spec validation, the TOML subset parser, the
compiler, and — the redesign's contract — golden equivalence: the
spec-backed legacy wrappers must rebuild the pre-redesign worlds
bit-for-bit under the same seed (``tests/data/scenario_golden.json``
was captured from the imperative builders before the refactor)."""

import copy
import dataclasses
import functools
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests._golden import (
    case_study_fingerprint,
    centralized_fingerprint,
    check,
    wave_fingerprint,
)
from repro.scenarios import (
    ScenarioCompiler,
    ScenarioRunner,
    ScenarioSpec,
    SpecError,
    load_spec,
    pakistan_spec,
    shipped_packs,
)
from repro.devtools import toml_subset
from repro.scenarios.spec import (
    AsSpec,
    CohortSpec,
    FleetExpect,
    load_toml_file,
)
from repro.workloads.scenarios import pakistan_case_study
from tests._centralized import centralized_spec


MINIMAL = {
    "name": "minimal",
    "description": "one open site, one AS",
    "sites": [{"hostname": "open.example.com"}],
    "ases": [{"asn": 64900}],
}


def minimal(**overrides):
    data = {key: value for key, value in MINIMAL.items()}
    data.update(overrides)
    return data


# -- golden equivalence (satellite: legacy entrypoints are spec-backed) --------


class TestGoldenEquivalence:
    """Same seed, same world: wrappers vs the pre-redesign builders."""

    @pytest.fixture(autouse=True)
    def _no_warnings(self):
        # The compatibility wrappers must be silent — no
        # DeprecationWarning, no FutureWarning, nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_pakistan_case_study_bit_identical(self):
        check("scenario_golden", case_study_fingerprint(), at="case_study")

    def test_centralized_country_bit_identical(self):
        check("scenario_golden", centralized_fingerprint(), at="centralized")

    def test_blocking_wave_bit_identical(self):
        check("scenario_golden", wave_fingerprint(), at="wave")

    def test_case_study_transports_come_from_the_one_catalogue(self):
        scenario = pakistan_case_study(seed=1, with_proxy_fleet=False)
        with pytest.raises(
            SpecError,
            match=r"unknown transport\(s\) \['bogus'\] \(known: domain-fronting, "
            r"hold-on, https, ip-as-hostname, lantern, public-dns, tor\)",
        ):
            scenario.make_transports("x", include=["bogus"])


# -- spec validation -----------------------------------------------------------


class TestSpecValidation:
    def test_minimal_spec_loads(self):
        spec = ScenarioSpec.from_dict(minimal())
        assert spec.name == "minimal"
        assert spec.resolved_mode() == "probe"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            ScenarioSpec.from_dict(minimal(sites_typo=[]))

    def test_unknown_site_key_names_the_section(self):
        with pytest.raises(SpecError, match=r"sites\[0\]"):
            ScenarioSpec.from_dict(
                minimal(sites=[{"hostname": "x.example", "sizebytes": 1}])
            )

    def test_duplicate_asn_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            ScenarioSpec.from_dict(minimal(ases=[{"asn": 1}, {"asn": 1}]))

    def test_dangling_policy_reference_rejected(self):
        with pytest.raises(SpecError, match="unknown policy"):
            ScenarioSpec.from_dict(
                minimal(ases=[{"asn": 1, "policy": "missing"}])
            )

    def test_rule_requires_mechanism_and_matcher(self):
        with pytest.raises(SpecError, match="mechanism"):
            ScenarioSpec.from_dict(minimal(policies=[
                {"name": "p", "rules": [{"domains": ["x.example"]}]},
            ]))
        with pytest.raises(SpecError, match="matcher|criterion"):
            ScenarioSpec.from_dict(minimal(policies=[
                {"name": "p", "rules": [{"mechanisms": ["http-drop"]}]},
            ]))

    def test_unknown_mechanism_lists_vocabulary(self):
        spec = ScenarioSpec.from_dict(minimal(policies=[
            {"name": "p", "rules": [
                {"mechanisms": ["quic-drop"], "domains": ["x.example"]},
            ]},
        ]))
        with pytest.raises(SpecError, match="quic-drop.*dns-redirect"):
            ScenarioCompiler().compile(spec)

    def test_unknown_client_config_key_rejected(self):
        for config in ({"not_a_knob": 1}, {"trace_sample_rate": 0.5}):
            with pytest.raises(SpecError, match="config"):
                ScenarioSpec.from_dict(minimal(
                    populations=[{"per_as": 1, "config": config}],
                ))

    def test_zero_client_sync_interval_names_the_path(self):
        with pytest.raises(
            SpecError, match=r"^populations\[0\]\.config: download_interval"
        ):
            ScenarioSpec.from_dict(minimal(
                populations=[{"per_as": 1,
                              "config": {"download_interval": 0.0}}],
            ))

    def test_nan_record_ttl_names_the_config(self):
        with pytest.raises(
            SpecError, match=r"^populations\[0\]\.config: record_ttl"
        ):
            ScenarioSpec.from_dict(minimal(
                populations=[{"per_as": 1,
                              "config": {"record_ttl": float("nan")}}],
            ))

    def test_fleet_expectation_requires_cohort_mode(self):
        with pytest.raises(SpecError, match="cohort"):
            ScenarioSpec.from_dict(minimal(
                expect={"fleet": {"all_converge": True}},
            ))

    @pytest.mark.parametrize("key, value", [
        ("pull_interval", 0),
        ("clients_per_as", 0),
        ("n_ases", -1),
        ("urls_per_as", -2),
        ("wave_at", -1.0),
        ("wave_at", float("nan")),
        ("horizon", -5.0),
        ("horizon", float("nan")),
    ])
    def test_degenerate_cohort_value_names_the_key(self, key, value):
        with pytest.raises(SpecError, match=rf"cohort\.{key}"):
            ScenarioSpec.from_dict(minimal(cohort={key: value}))

    def test_stale_reporter_fraction_names_the_key(self):
        """Reporters are sized by ``[[planes]]`` alone: a spec that
        still sets ``cohort.reporter_fraction`` fails instead of running
        with another reporter mix."""
        with pytest.raises(
            SpecError, match=r"^cohort: unknown key\(s\) \['reporter_fraction'\]"
        ):
            ScenarioSpec.from_dict(minimal(cohort={"reporter_fraction": 0.005}))

    @pytest.mark.parametrize("kind, key, value", [
        ("problist", "probe_interval", 0.0),
        ("problist", "probe_interval", float("nan")),
        ("flood", "urls_each", 0),
        ("csaw", "fraction", 0),
        ("encore", "miss_rate", 1.0),
        ("problist", "coverage", 0),
        ("problist", "coverage", float("nan")),
    ])
    def test_degenerate_plane_value_names_the_key(self, kind, key, value):
        with pytest.raises(SpecError, match=rf"^planes\[0\]\.{key}: "):
            ScenarioSpec.from_dict({
                "name": "mix",
                "cohort": {},
                "planes": [{"kind": kind, key: value}],
            })

    def test_reputation_expectation_checks_plane_names(self):
        with pytest.raises(SpecError, match="unknown plane 'ghost'"):
            ScenarioSpec.from_dict({
                "name": "sybil",
                "description": "bad plane ref",
                "cohort": {},
                "planes": [{"kind": "flood", "urls_each": 3}],
                "expect": {"reputation": {"flagged_planes": ["ghost"]}},
            })

    @pytest.mark.parametrize("data, message", [
        ({"name": "x", "execution": {"mode": "attack"}},
         r"^execution\.mode: 'attack' not in auto\|clients\|probe\|cohort$"),
        ({"name": "x", "expect": {"reputation": {}}},
         r"^expect\.reputation: requires cohort mode$"),
        ({"name": "x", "cohort": {"sharded": True},
          "expect": {"reputation": {}}},
         r"^expect\.reputation: .* cohort\.sharded must be false$"),
    ], ids=["attack-mode", "outside-cohort", "sharded"])
    def test_reputation_pass_needs_an_unsharded_cohort(self, data, message):
        with pytest.raises(SpecError, match=message):
            ScenarioSpec.from_dict(data)

    def test_with_seed_rerolls_only_the_seed(self):
        spec = ScenarioSpec.from_dict(minimal())
        reseeded = spec.with_seed(99)
        assert reseeded.seed == 99
        assert dataclasses.replace(reseeded, seed=spec.seed) == spec

    def test_constructed_specs_get_the_decoder_checks(self):
        with pytest.raises(SpecError, match=r"^pull_interval: must be > 0"):
            CohortSpec(pull_interval=0.0)
        with pytest.raises(SpecError, match="unknown policy 'ghost'"):
            ScenarioSpec(name="built", ases=(AsSpec(1, policy="ghost"),))
        assert AsSpec(7).name == "AS7"


# -- the field-driven decoder --------------------------------------------------


WORLD = {
    "name": "world",
    "sites": [{"hostname": "open.example.com"}],
    "blockpages": [{"hostname": "block.example"}],
    "policies": [{"name": "p"}],
    "ases": [{"asn": 64900, "policy": "p"}],
    "events": [{"time": 10.0, "asn": 64900, "domain": "open.example.com"}],
    "expect": {
        "verdict": [{
            "url": "http://open.example.com/",
            "asn": 64900,
            "status": "not-blocked",
        }],
        "classification": [
            {"url": "http://open.example.com/", "verdict": "open"},
        ],
        "detection": [{"domain": "open.example.com", "asn": 64900}],
    },
}
FLEET = {
    "name": "fleet",
    "cohort": {},
    "planes": [{"kind": "csaw"}],
    "expect": {"plane": [{"name": "csaw"}]},
}

# (base spec, steps to a required string field)
REQUIRED_STRINGS = [
    (WORLD, ("name",)),
    (WORLD, ("sites", 0, "hostname")),
    (WORLD, ("blockpages", 0, "hostname")),
    (WORLD, ("policies", 0, "name")),
    (WORLD, ("events", 0, "domain")),
    (WORLD, ("expect", "verdict", 0, "url")),
    (WORLD, ("expect", "verdict", 0, "status")),
    (WORLD, ("expect", "classification", 0, "url")),
    (WORLD, ("expect", "classification", 0, "verdict")),
    (WORLD, ("expect", "detection", 0, "domain")),
    (FLEET, ("planes", 0, "kind")),
    (FLEET, ("expect", "plane", 0, "name")),
]


def key_path(steps):
    """The decoder's name for a location: ``expect.verdict[0].url``."""
    path = ""
    for step in steps:
        if isinstance(step, int):
            path += f"[{step}]"
        else:
            path += f".{step}" if path else step
    return path


def parent_of(data, steps):
    for step in steps[:-1]:
        data = data[step]
    return data


def mutation_targets(value, decoded, steps=()):
    """Every place one mutation can break a spec dict, as (kind, steps):
    ``replace`` a leaf, list or table; add an ``unknown`` key to a table;
    ``delete`` a required key.  ``decoded`` is the spec value the dict
    decoded to, whose fields say which keys are required."""
    if isinstance(value, dict):
        if steps:
            yield "replace", steps
        if steps != ("urls",):  # the free-form label map takes any key
            yield "unknown", steps
        if not dataclasses.is_dataclass(decoded):
            for key, item in value.items():
                yield from mutation_targets(item, item, steps + (key,))
            return
        for spec_field in dataclasses.fields(decoded):
            key = spec_field.metadata.get("key", spec_field.name)
            if key not in value:
                continue
            if (spec_field.default is dataclasses.MISSING
                    and spec_field.default_factory is dataclasses.MISSING):
                yield "delete", steps + (key,)
            yield from mutation_targets(
                value[key], getattr(decoded, spec_field.name), steps + (key,)
            )
    else:
        yield "replace", steps
        if isinstance(value, list):
            for i, item in enumerate(value):
                yield from mutation_targets(item, decoded[i], steps + (i,))


@functools.lru_cache(maxsize=None)
def pack_mutation_targets():
    targets = []
    for _, path in shipped_packs():
        data = load_toml_file(path)
        decoded = ScenarioSpec.from_dict(copy.deepcopy(data))
        targets.extend(
            (path, kind, steps) for kind, steps in mutation_targets(data, decoded)
        )
    return targets


def rejected_values(value):
    """Values the field that holds ``value`` must reject."""
    if isinstance(value, bool):
        return [1, "yes"]
    if isinstance(value, (int, float)):
        return ["12", True]
    if isinstance(value, str):
        return [3, [value]]
    if isinstance(value, list):
        return [7, "x"]
    return [7, "x", True]  # a table


class TestDecoderContract:
    @pytest.mark.parametrize("base", [WORLD, FLEET])
    def test_bases_decode(self, base):
        ScenarioSpec.from_dict(copy.deepcopy(base))

    @pytest.mark.parametrize("mutation", ["missing", "empty"])
    @pytest.mark.parametrize(
        "base, steps", REQUIRED_STRINGS,
        ids=[key_path(steps) for _, steps in REQUIRED_STRINGS],
    )
    def test_required_string_names_its_key(self, base, steps, mutation):
        data = copy.deepcopy(base)
        if mutation == "missing":
            del parent_of(data, steps)[steps[-1]]
        else:
            parent_of(data, steps)[steps[-1]] = ""
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_dict(data)
        assert str(err.value).startswith(f"{key_path(steps)}: ")

    @pytest.mark.parametrize("overrides, path", [
        ({"sites": [{"hostname": "x.example", "size_bytes": "abc"}]},
         "sites[0].size_bytes"),
        ({"sites": [{"hostname": "x.example", "size_bytes": [1]}]},
         "sites[0].size_bytes"),
        ({"sites": [{"hostname": "x.example", "size_bytes": True}]},
         "sites[0].size_bytes"),
        ({"sites": [{"hostname": "x.example", "size_bytes": 2.7}]},
         "sites[0].size_bytes"),
        ({"sites": [{"hostname": ["a", "b"]}]}, "sites[0].hostname"),
        ({"ases": [{"asn": "AS1"}]}, "ases[0].asn"),
        ({"populations": [{"ases": ["x"]}]}, "populations[0].ases[0]"),
        ({"populations": [{"ases": 5}]}, "populations[0].ases"),
        ({"infra": 5}, "infra"),
        ({"urls": {"home": 5}}, "urls.home"),
        ({"populations": [{"config": {"probe_probability": "high"}}]},
         "populations[0].config.probe_probability"),
        ({"populations": [{"config": {"probe_probability": 2.0}}]},
         "populations[0].config"),
    ], ids=lambda value: value if isinstance(value, str) else None)
    def test_wrong_typed_value_names_its_path(self, overrides, path):
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_dict(minimal(**overrides))
        assert str(err.value).startswith(f"{path}: ")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_pack_mutation_fails_naming_its_path(self, data):
        path, kind, steps = data.draw(st.sampled_from(pack_mutation_targets()))
        pack = load_toml_file(path)
        if kind == "unknown":
            (parent_of(pack, steps)[steps[-1]] if steps else pack)["zz_unknown"] = 1
            expected = f"{key_path(steps) or 'scenario'}: unknown"
        elif kind == "delete":
            del parent_of(pack, steps)[steps[-1]]
            expected = f"{key_path(steps)}: "
        else:
            parent = parent_of(pack, steps)
            parent[steps[-1]] = data.draw(
                st.sampled_from(rejected_values(parent[steps[-1]]))
            )
            expected = f"{key_path(steps)}: "
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_dict(pack)
        assert str(err.value).startswith(expected), str(err.value)
        if kind == "unknown":
            assert "zz_unknown" in str(err.value)

    def test_empty_cohort_table_is_the_default_cohort(self):
        data = toml_subset.parse(
            'name = "c"\n[execution]\nmode = "cohort"\n[cohort]\n'
        )
        assert ScenarioSpec.from_dict(data).cohort == CohortSpec()

    def test_empty_fleet_expectation_keeps_its_default_check(self):
        data = toml_subset.parse('name = "c"\n[cohort]\n[expect.fleet]\n')
        fleet = ScenarioSpec.from_dict(data).expect.fleet
        assert fleet == FleetExpect() and fleet.all_converge

    def test_empty_rolling_table_names_the_missing_key(self):
        data = minimal()
        data["rolling"] = {}
        with pytest.raises(SpecError, match=r"^rolling\.domains: "):
            ScenarioSpec.from_dict(data)


# -- TOML subset parser --------------------------------------------------------


class TestTomlSubset:
    @pytest.mark.parametrize(
        "name", [name for name, _ in shipped_packs()]
    )
    def test_agrees_with_tomllib_on_shipped_packs(self, name):
        tomllib = pytest.importorskip("tomllib")
        path = dict(shipped_packs())[name]
        with open(path, "rb") as fh:
            reference = tomllib.load(fh)
        with open(path, "r", encoding="utf-8") as fh:
            ours = toml_subset.parse(fh.read(), path)
        assert ours == reference

    def test_value_types(self, tmp_path):
        path = tmp_path / "types.toml"
        path.write_text(
            'name = "x"\n'
            "n = 42\n"
            "big = 100_000\n"
            "rate = 2.5e-3\n"
            "on = true\n"
            "off = false\n"
            'tags = ["a", "b"]\n'
            "nums = [1, 2,\n"
            "        3]\n"
            'comment = "kept # inside"  # stripped outside\n'
        )
        data = toml_subset.parse(path.read_text(), str(path))
        assert data == {
            "name": "x", "n": 42, "big": 100000, "rate": 2.5e-3,
            "on": True, "off": False, "tags": ["a", "b"],
            "nums": [1, 2, 3], "comment": "kept # inside",
        }

    def test_array_of_tables_and_nested_sections(self, tmp_path):
        text = (
            "[[sites]]\n"
            'hostname = "a.example"\n'
            "[[sites]]\n"
            'hostname = "b.example"\n'
            "[sites.extra]\n"
            "flag = true\n"
            "[workload]\n"
            "interval = 10.0\n"
        )
        data = toml_subset.parse(text, "<test>")
        assert [s["hostname"] for s in data["sites"]] == ["a.example", "b.example"]
        # dotted [section] after [[sites]] attaches to the *last* element
        assert data["sites"][1]["extra"] == {"flag": True}
        assert data["workload"] == {"interval": 10.0}

    def test_unparseable_line_raises(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "tomllib", None)
        path = tmp_path / "inline.toml"
        path.write_text('a = 1\nb = {inline = "tables"}\n')
        with pytest.raises(SpecError, match="line 2"):
            load_toml_file(str(path))


# -- compiler ------------------------------------------------------------------


class TestCompiler:
    def test_centralized_policy_object_is_shared(self):
        compiled = ScenarioCompiler().compile(
            centralized_spec(seed=2, n_isps=3)
        )
        policies = {
            id(isp.censor.policy) for isp in compiled.isps.values()
        }
        assert len(policies) == 1

    def test_ips_of_resolves_to_site_addresses(self):
        compiled = ScenarioCompiler().compile(pakistan_spec(seed=2))
        world = compiled.world
        rule = next(
            r for r in compiled.policies["ISP-A"].rules
            if r.label == "table5-tcpip"
        )
        site = world.network.hosts_by_name["www.blocked-tcpip.example.com"]
        assert site.ip in rule.matcher.ips

    def test_ips_of_unknown_host_errors(self):
        spec = ScenarioSpec.from_dict(minimal(policies=[
            {"name": "p", "rules": [
                {"mechanisms": ["ip-drop"], "ips_of": ["ghost.example"]},
            ]},
        ]))
        with pytest.raises(SpecError, match="ghost.example"):
            ScenarioCompiler().compile(spec)

    def test_rolling_events_require_a_policy(self):
        spec = ScenarioSpec.from_dict(minimal(
            rolling={
                "domains": ["open.example.com"],
                "asns": [64900],
                "lag": 100.0,
            },
        ))
        with pytest.raises(SpecError, match="policy"):
            ScenarioCompiler().compile(spec)

    def test_rolling_events_are_seed_deterministic(self):
        def events(seed):
            spec = ScenarioSpec.from_dict(minimal(
                seed=seed,
                policies=[{"name": "p"}],
                ases=[{"asn": 64900, "policy": "p"}],
                rolling={
                    "domains": ["open.example.com"],
                    "asns": [64900],
                    "start": 50.0,
                    "lag": 100.0,
                    "mechanisms": ["http-drop"],
                },
            ))
            return [
                (e.time, e.asn, e.domain)
                for e in ScenarioCompiler().compile(spec).events
            ]

        first = events(7)
        assert events(7) == first
        assert events(8) != first
        assert all(50.0 <= t <= 150.0 for t, _, _ in first)

    def test_geo_blocked_site_serves_server_filtering(self):
        spec = ScenarioSpec.from_dict(minimal(
            sites=[{"hostname": "geo.example", "geo_blocked": ["pakistan"]}],
            expect={"verdict": [{
                "url": "http://geo.example/",
                "asn": 64900,
                "status": "blocked",
                "stages": ["server-filtering"],
            }]},
        ))
        outcome = ScenarioRunner().run(spec)
        assert outcome.report.ok, outcome.report.render()


# -- runner --------------------------------------------------------------------


class TestRunner:
    def test_cohort_sharded_matches_serial(self):
        base = load_toml_file(dict(shipped_packs())["low-penetration-country"])
        serial_spec = ScenarioSpec.from_dict(base)
        base["cohort"]["sharded"] = True
        sharded_spec = ScenarioSpec.from_dict(base)

        serial = ScenarioRunner().run(serial_spec).fleet
        sharded = ScenarioRunner(workers=2).run(sharded_spec).fleet
        assert serial.convergence_by_as == sharded.convergence_by_as
        assert serial.reports_absorbed == sharded.reports_absorbed

    def test_probe_mode_report_names_missing_probes(self):
        spec = ScenarioSpec.from_dict(minimal(
            expect={"verdict": [{
                "url": "http://open.example.com/",
                "asn": 64900,
                "status": "not-blocked",
            }]},
        ))
        outcome = ScenarioRunner().run(spec)
        assert outcome.report.ok
        (check,) = outcome.report.checks
        assert check.kind == "verdict"
