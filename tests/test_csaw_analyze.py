"""Tests for csaw-analyze's whole-program side.

Covers the project index, the conservative call graph (worker-dispatcher
edges, attribute-name method resolution, cycle tolerance), every CSA
rule against its fixture package under ``tests/data/analyze_fixtures/``
(positive, negative, suppression), the one suppression marker across
both rule families, the baseline round-trip, the ``graph`` subcommand,
CLI behavior and its rejection of bad paths and config — and the two
repo-level contracts: the shipped tree is analyzer-clean at the
committed empty baseline, and planted bugs of both rule families are
caught in one run.
"""

import json
import shutil
import textwrap
import time
from pathlib import Path

import pytest

from repro.devtools.analyze.callgraph import build_call_graph
from repro.devtools.analyze.index import ProjectIndex, module_name_for
from repro.devtools.analyze.main import (
    analyze_paths,
    analyze_project,
    analyze_source,
    build_project,
    main,
)
from repro.devtools import config as devconfig
from repro.devtools.config import ToolConfig, load_tool_config
from repro.devtools.framework import suppressed_lines

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "analyze_fixtures"


def run_fixture(name, **kwargs):
    """Analyze one fixture package with its directory as project root."""
    root = str(FIXTURES / name)
    config = ToolConfig(root=root, **kwargs)
    return analyze_paths([root], config)


def build_index(sources):
    """Index in-memory modules keyed by project-relative path."""
    index = ProjectIndex(root="/proj")
    for relpath, source in sources.items():
        index.add_source(textwrap.dedent(source), "/proj/" + relpath)
    index.finalize()
    return index


def by_file(violations):
    mapping = {}
    for violation in violations:
        mapping.setdefault(Path(violation.path).name, []).append(violation)
    return mapping


@pytest.fixture(scope="module")
def real_project():
    """The shipped tree, indexed once for all repo-level assertions."""
    config = load_tool_config(str(REPO / "pyproject.toml"), str(REPO / "src"))
    return build_project([str(REPO / "src")], config)


# -- project index -------------------------------------------------------------


class TestProjectIndex:
    def test_module_names_strip_src_and_init(self):
        assert module_name_for("src/repro/core/fleet.py") == "repro.core.fleet"
        assert module_name_for("src/repro/runner/__init__.py") == "repro.runner"
        assert module_name_for("tool.py") == "tool"

    def test_relative_imports_resolve_against_package(self):
        index = build_index(
            {
                "src/pkg/__init__.py": "",
                "src/pkg/core/__init__.py": "",
                "src/pkg/core/deep.py": """
                from ..runner import run
                """,
                "src/pkg/runner.py": """
                def run():
                    return 1
                """,
            }
        )
        deep = index.modules["pkg.core.deep"]
        assert deep.imports["run"] == "pkg.runner.run"
        assert index.resolve(deep, ["run"]) == "pkg.runner.run"

    def test_reexport_facade_followed(self):
        index = build_index(
            {
                "src/pkg/__init__.py": """
                from .core import run
                """,
                "src/pkg/core.py": """
                def run():
                    return 1
                """,
                "src/other.py": """
                import pkg

                def use():
                    return pkg.run()
                """,
            }
        )
        other = index.modules["other"]
        assert index.resolve(other, ["pkg", "run"]) == "pkg.core.run"

    def test_mutable_globals_marked(self):
        index = build_index(
            {
                "m.py": """
                CACHE = {}
                LIMIT = 3
                NAMES = ["a"]
                """
            }
        )
        assert index.module_globals["m.CACHE"].mutable
        assert index.module_globals["m.NAMES"].mutable
        assert not index.module_globals["m.LIMIT"].mutable


# -- call graph ----------------------------------------------------------------


class TestCallGraph:
    def test_trialspec_callable_becomes_worker_entrypoint(self):
        root = str(FIXTURES / "csa101")
        index = ProjectIndex.build([root], root)
        graph = build_call_graph(index)
        assert "work.entry" in graph.worker_entrypoints
        assert graph.worker_reachable["work.helper"] == "work.entry"
        assert "work.middle" in graph.callees("work.entry")
        assert "work.launch" not in graph.worker_reachable

    def test_run_seed_sweep_dispatcher(self):
        index = build_index(
            {
                "w.py": """
                def trial(seed):
                    return seed

                def launch():
                    return run_seed_sweep(trial, 7, 3)
                """
            }
        )
        graph = build_call_graph(index)
        assert "w.trial" in graph.worker_entrypoints

    def test_executor_map_dispatcher(self):
        index = build_index(
            {
                "w.py": """
                def job(x):
                    return x

                def launch(pool, xs):
                    return list(pool.map(job, xs))
                """
            }
        )
        graph = build_call_graph(index)
        assert "w.job" in graph.worker_entrypoints

    def test_builtin_map_is_not_a_dispatcher(self):
        index = build_index(
            {
                "w.py": """
                def job(x):
                    return x

                def launch(xs):
                    return list(map(job, xs))
                """
            }
        )
        graph = build_call_graph(index)
        assert "w.job" not in graph.worker_entrypoints

    def test_method_calls_resolve_by_attribute_name(self):
        index = build_index(
            {
                "a.py": """
                class Runner:
                    def step(self):
                        return 1

                def drive(obj):
                    return obj.step()
                """
            }
        )
        graph = build_call_graph(index)
        assert "a.Runner.step" in graph.callees("a.drive")

    def test_cycles_are_tolerated(self):
        index = build_index(
            {
                "c.py": """
                def ping(n):
                    return pong(n - 1)

                def pong(n):
                    return ping(n - 1) if n else 0

                def launch():
                    return TrialSpec("t", ping)
                """
            }
        )
        graph = build_call_graph(index)
        assert graph.worker_reachable["c.ping"] == "c.ping"
        assert graph.worker_reachable["c.pong"] == "c.ping"

    def test_external_module_chains_add_no_edges(self):
        index = build_index(
            {
                "e.py": """
                import os

                def f(p):
                    return os.path.join(p, "x")
                """
            }
        )
        graph = build_call_graph(index)
        assert graph.callees("e.f") == {}

    def test_extra_dispatchers_option(self):
        index = build_index(
            {
                "x.py": """
                def job(x):
                    return x

                def launch(xs):
                    return fan_out(job, xs)
                """
            }
        )
        assert "x.job" not in build_call_graph(index).worker_entrypoints
        graph = build_call_graph(index, extra_dispatchers=("fan_out",))
        assert "x.job" in graph.worker_entrypoints


# -- CSA rules over the fixture packages ---------------------------------------


class TestCSA101:
    def test_worker_reachable_writes_flagged(self):
        files = by_file(run_fixture("csa101"))
        helper_hits = [
            v for v in files.get("work.py", []) if v.code == "CSA101"
        ]
        assert len(helper_hits) == 2
        messages = " | ".join(v.message for v in helper_hits)
        assert "work.CACHE" in messages
        assert "work.TALLY" in messages
        assert "worker-reachable from work.entry" in messages

    def test_threaded_state_is_clean(self):
        files = by_file(run_fixture("csa101"))
        assert "clean.py" not in files

    def test_inline_suppression_honored(self):
        files = by_file(run_fixture("csa101"))
        assert "suppressed.py" not in files


class TestCSA102:
    def test_cross_module_collision_flagged_at_both_sites(self):
        files = by_file(run_fixture("csa102"))
        a = [v for v in files.get("collide_a.py", []) if v.code == "CSA102"]
        b = [v for v in files.get("collide_b.py", []) if v.code == "CSA102"]
        assert len(a) == 1 and len(b) == 1
        assert "shared-pool" in a[0].message
        assert "collide_b" in a[0].message

    def test_dynamic_stream_name_flagged(self):
        files = by_file(run_fixture("csa102"))
        dyn = [v for v in files.get("dynamic.py", []) if v.code == "CSA102"]
        assert len(dyn) == 1
        assert "dynamically computed" in dyn[0].message

    def test_constant_seed_in_worker_code_flagged(self):
        files = by_file(run_fixture("csa102"))
        seeded = [v for v in files.get("seeded.py", []) if v.code == "CSA102"]
        assert len(seeded) == 1
        assert "derive_seed" in seeded[0].message

    def test_threaded_forked_and_prefixed_names_clean(self):
        files = by_file(run_fixture("csa102"))
        assert "clean.py" not in files

    def test_plane_group_seeding_audited(self):
        """The fleet plane-group shape: ``random.Random(derive_seed(...))``
        is sanctioned in worker code, a constant-seeded plane group is
        the hazard."""
        files = by_file(run_fixture("csa102"))
        planes = [v for v in files.get("planes.py", []) if v.code == "CSA102"]
        assert len(planes) == 1
        assert "stale_plane_group" in planes[0].message
        assert "derive_seed" in planes[0].message


class TestCSA103:
    def test_escape_through_helper_layers_flagged(self):
        files = by_file(run_fixture("csa103"))
        mid = [v for v in files.get("mid.py", []) if v.code == "CSA103"]
        assert len(mid) == 2
        messages = " | ".join(v.message for v in mid)
        assert "wall-clock sink time.time()" in messages
        assert "mid.caller -> mid.helper -> sinks.now" in messages

    def test_direct_sink_site_is_lints_finding_not_ours(self):
        files = by_file(run_fixture("csa103"))
        assert [v.code for v in files["sinks.py"]] == ["CSL002"]

    def test_sinks_are_the_per_file_rules_sinks(self):
        """CSA103 follows every sink CSL002 flags, including a
        ``datetime.now()`` read through ``from datetime import datetime``."""
        src = textwrap.dedent(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()

            def caller():
                return stamp()
            """
        )
        found = analyze_source(
            src, "/proj/src/repro/core/m.py", ToolConfig(root="/proj")
        )
        assert [(v.code, v.line) for v in found] == [("CSL002", 5), ("CSA103", 8)]
        assert "wall-clock sink datetime.now()" in found[1].message

    def test_allow_glob_sanctions_a_file(self):
        """CSL002's allowlist is CSA103's set of sanctioned sources: an
        allowed sink neither gets flagged nor taints its callers."""
        violations = run_fixture("csa103", allow={"CSL002": ["sinks.py"]})
        assert violations == []


class TestCSA104:
    def test_spec_parameter_mutations_flagged(self):
        files = by_file(run_fixture("csa104"))
        hits = [v for v in files.get("mutate.py", []) if v.code == "CSA104"]
        assert len(hits) == 2
        messages = " | ".join(v.message for v in hits)
        assert "attribute assignment" in messages
        assert ".append() mutation" in messages
        assert "custom.py" not in files  # MySpec not a spec class by default

    def test_spec_modules_option_extends_the_class_set(self):
        files = by_file(
            run_fixture("csa104", options={"spec-modules": ["myspec"]})
        )
        hits = [v for v in files.get("custom.py", []) if v.code == "CSA104"]
        assert len(hits) == 1


class TestCSA105:
    def test_call_sourced_set_order_escapes_flagged(self):
        files = by_file(run_fixture("csa105"))
        hits = [
            v for v in files.get("public_api.py", []) if v.code == "CSA105"
        ]
        flagged_lines = {v.line for v in hits}
        source = (FIXTURES / "csa105" / "public_api.py").read_text()
        lines = {
            name: next(
                i
                for i, text in enumerate(source.splitlines(), 1)
                if f"def {name}(" in text
            )
            for name in ("report", "digest", "listing")
        }
        assert len(hits) == 3
        for name, def_line in lines.items():
            assert any(
                def_line < line < def_line + 3 for line in flagged_lines
            ), name

    def test_returning_the_set_itself_is_fine(self):
        files = by_file(run_fixture("csa105"))
        messages = " | ".join(
            v.message for v in files.get("public_api.py", [])
        )
        assert "layered" in messages  # named as the *source*...
        flagged = {v.line for v in files.get("public_api.py", [])}
        source = (FIXTURES / "csa105" / "public_api.py").read_text()
        layered_line = next(
            i
            for i, text in enumerate(source.splitlines(), 1)
            if "def layered(" in text
        )
        assert layered_line + 1 not in flagged  # ...but not flagged itself

    def test_sorted_and_private_functions_clean(self):
        files = by_file(run_fixture("csa105"))
        assert "clean.py" not in files


# -- one suppression marker for both rule families ----------------------------


class TestMarkers:
    def test_one_marker_covers_both_rule_families(self):
        src = textwrap.dedent(
            """
            import time

            def stamp():
                return time.time()

            def fresh(entry):
                return entry.posted_at == stamp()
            """
        )
        config = ToolConfig(root="/proj")
        path = "/proj/src/repro/core/clock.py"
        line = src.splitlines().index("    return entry.posted_at == stamp()") + 1
        found = analyze_source(src, path, config)
        assert sorted(v.code for v in found if v.line == line) == [
            "CSA103",
            "CSL006",
        ]
        marked = src.replace(
            "== stamp()\n", "== stamp()  # csaw-analyze: disable=CSL006,CSA103\n"
        )
        assert [(v.code, v.line) for v in analyze_source(marked, path, config)] == [
            ("CSL002", line - 3)
        ]

    def test_lint_marker_does_not_hide_from_analyze(self):
        # The retired marker is inert: a stale comment leaves its findings.
        src = textwrap.dedent(
            """
            import time

            def stamp():
                return time.time()  # csaw-lint: disable=CSL002

            def fresh(entry):
                return entry.posted_at == stamp()  # csaw-lint: disable=CSA103
            """
        )
        config = ToolConfig(root="/proj")
        path = "/proj/src/repro/core/clock.py"
        assert suppressed_lines(src) == {}
        assert sorted(v.code for v in analyze_source(src, path, config)) == [
            "CSA103",
            "CSL002",
            "CSL006",
        ]


# -- baseline round-trip -------------------------------------------------------


class TestBaseline:
    def test_round_trip_grandfathers_existing_findings(self, tmp_path):
        root = str(FIXTURES / "csa101")
        config = ToolConfig(root=root)
        violations = analyze_paths([root], config)
        assert violations
        baseline_path = tmp_path / "baseline.json"
        devconfig.write_baseline(violations, str(baseline_path), root)
        baseline = devconfig.load_baseline(str(baseline_path))
        fresh, grandfathered = devconfig.apply_baseline(
            violations, baseline, root
        )
        assert fresh == []
        assert grandfathered == len(violations)


# -- repo-level contracts ------------------------------------------------------


class TestRepoEnforcement:
    def test_src_tree_is_analyzer_clean(self, real_project):
        violations = analyze_project(real_project)
        assert violations == [], [v.render() for v in violations]

    def test_worker_reachable_covers_fleet_and_pilot(self, real_project):
        reachable = real_project.graph.worker_reachable
        assert "repro.core.fleet._fleet_partition" in reachable
        assert "repro.core.fleet.run_fleet_storm" in reachable
        assert "repro.workloads.pilot._pilot_trial" in reachable
        entrypoints = real_project.graph.worker_entrypoints
        assert "repro.core.fleet._fleet_partition" in entrypoints
        assert "repro.workloads.pilot._pilot_trial" in entrypoints

    def test_full_run_is_fast_enough(self):
        config = load_tool_config(str(REPO / "pyproject.toml"), str(REPO / "src"))
        started = time.perf_counter()
        project = build_project([str(REPO / "src")], config)
        analyze_project(project)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"full analyzer run took {elapsed:.1f}s"

    def test_planted_worker_global_write_is_caught(self, tmp_path):
        """Regression harness for the whole pipeline: copy the real tree,
        wrap the fleet worker entrypoint so it calls a planted helper
        that bumps a module-global counter, and plant a ``core/`` helper
        that reads the host clock plus a simulation function calling it.
        One run must catch all three: CSL002 at the clock read, CSA103
        naming the escape path, and CSA101 via the
        ``run_fleet_storm_sharded`` worker path."""
        srcdir = tmp_path / "src"
        shutil.copytree(
            REPO / "src" / "repro",
            srcdir / "repro",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        fleet = srcdir / "repro" / "core" / "fleet.py"
        text = fleet.read_text()
        marker = "def _fleet_partition("
        assert marker in text
        text = text.replace(
            marker,
            "def _fleet_partition(*__planted_args, **__planted_kwargs):\n"
            "    _planted_probe(0)\n"
            "    return __orig_fleet_partition("
            "*__planted_args, **__planted_kwargs)\n"
            "\n\n"
            "def __orig_fleet_partition(",
            1,
        )
        text += (
            "\n\n_PLANTED_COUNTS = {}\n\n\n"
            "def _planted_probe(part):\n"
            "    _PLANTED_COUNTS[part] = _PLANTED_COUNTS.get(part, 0) + 1\n"
            "    return part\n"
        )
        fleet.write_text(text)
        clock = srcdir / "repro" / "core" / "planted_clock.py"
        clock.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
        (srcdir / "repro" / "simnet" / "planted_step.py").write_text(
            "from ..core.planted_clock import stamp\n\n\n"
            "def advance(env):\n"
            "    return env.now + stamp()\n"
        )
        config = ToolConfig(root=str(tmp_path))
        violations = analyze_paths([str(srcdir)], config)
        rendered = [v.render() for v in violations]
        planted = [
            v
            for v in violations
            if v.code == "CSA101" and "_planted_probe" in v.message
        ]
        assert planted, rendered
        assert any("_PLANTED_COUNTS" in v.message for v in planted)
        assert any(
            "repro.core.fleet._fleet_partition" in v.message for v in planted
        )
        sink = [v for v in violations if v.path == str(clock)]
        assert [(v.code, v.line) for v in sink] == [("CSL002", 5)], rendered
        escape = [
            v
            for v in violations
            if v.code == "CSA103" and v.path.endswith("planted_step.py")
        ]
        assert len(escape) == 1, rendered
        assert "wall-clock sink time.time()" in escape[0].message
        assert (
            "repro.simnet.planted_step.advance -> "
            "repro.core.planted_clock.stamp" in escape[0].message
        )


# -- CLI -----------------------------------------------------------------------


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("CSA101", "CSA102", "CSA103", "CSA104", "CSA105"):
            assert code in out

    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(REPO / "src")]) == 0

    def test_findings_exit_nonzero(self, capsys):
        assert main([str(FIXTURES / "csa101")]) == 1
        out = capsys.readouterr().out
        assert "CSA101" in out

    def test_select_filters_rules(self, capsys):
        assert main([str(FIXTURES / "csa101"), "--select", "CSA102"]) == 0

    def test_json_format(self, capsys):
        code = main([str(FIXTURES / "csa101"), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"]
        assert all(
            v["code"] == "CSA101" for v in payload["violations"]
        )

    def test_graph_subcommand_emits_worker_set(self, capsys, tmp_path):
        out_path = tmp_path / "graph.json"
        assert (
            main(["graph", str(REPO / "src"), "--output", str(out_path)]) == 0
        )
        payload = json.loads(out_path.read_text())
        for key in (
            "edges",
            "modules",
            "n_edges",
            "n_functions",
            "worker_entrypoints",
            "worker_reachable",
        ):
            assert key in payload
        assert "repro.core.fleet._fleet_partition" in payload["worker_reachable"]
        assert "repro.core.fleet.run_fleet_storm" in payload["worker_reachable"]
        assert (
            "repro.workloads.pilot._pilot_trial" in payload["worker_reachable"]
        )

    def test_write_baseline_then_clean(self, capsys, tmp_path):
        baseline = tmp_path / "b.json"
        fixture = str(FIXTURES / "csa101")
        assert main([fixture, "--write-baseline", str(baseline)]) == 0
        assert main([fixture, "--baseline", str(baseline)]) == 0
        assert main([fixture]) == 1

    def test_unknown_select_code_exits_2(self, capsys):
        assert main([str(FIXTURES / "csa101"), "--select", "CSA11"]) == 2
        assert "CSA11" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, bad",
        [
            ('select = "CSL001"', "'CSL001'"),
            ('select = ["CSL01"]', "CSL01"),
            ('[tool.csawanalyze.allow]\nCSL02 = ["x.py"]', "CSL02"),
            ('[tool.csawanalyze.scope]\nCSL04 = ["x.py"]', "CSL04"),
        ],
        ids=["select-not-a-list", "select", "allow", "scope"],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, table, bad):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.csawanalyze]\n" + table + "\n"
        )
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path / "ok.py")]) == 2
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["srcc", "gone.py"])
    def test_missing_path_exits_2(self, tmp_path, capsys, missing):
        assert main([str(tmp_path / missing)]) == 2
        assert missing in capsys.readouterr().err
