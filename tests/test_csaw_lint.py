"""csaw-analyze's per-file CSL rules: paired trigger/clean fixtures per
rule, plus the suppression, allowlist, scope-override, baseline, and CLI
behaviours — and the enforcement test that keeps the real tree at zero
findings."""

import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.devtools import config as devconfig
from repro.devtools.analyze.main import analyze_paths, analyze_source, main
from repro.devtools.config import ToolConfig, load_tool_config
from repro.devtools.framework import all_rules, suppressed_lines

REPO = Path(__file__).resolve().parents[1]

#: synthetic project root for fixture paths (scope/allow matching)
ROOT = "/proj"
SIMNET = f"{ROOT}/src/repro/simnet/mod.py"
CORE = f"{ROOT}/src/repro/core/mod.py"
ANALYSIS = f"{ROOT}/src/repro/analysis/mod.py"


def analyze(source, path=ANALYSIS, config=None):
    source = textwrap.dedent(source)
    config = config or ToolConfig(root=ROOT)
    return analyze_source(source, path, config)


def codes(source, path=ANALYSIS, config=None):
    return [v.code for v in analyze(source, path, config)]


# -- per-rule fixtures ---------------------------------------------------------


class TestCSL001AmbientRandomness:
    def test_trigger_module_level_draw(self):
        src = """
        import random

        def jitter():
            return random.random() + random.uniform(0, 1)
        """
        assert codes(src) == ["CSL001", "CSL001"]

    def test_trigger_from_import(self):
        src = """
        from random import choice

        def pick(xs):
            return choice(xs)
        """
        assert codes(src) == ["CSL001"]

    def test_trigger_unseeded_random(self):
        src = """
        import random

        rng = random.Random()
        """
        assert codes(src) == ["CSL001"]

    def test_clean_threaded_stream(self):
        src = """
        import random

        def jitter(rng: random.Random) -> float:
            return rng.random()

        seeded = random.Random(7)
        """
        assert codes(src) == []

    def test_clean_from_import_random_class(self):
        assert codes("from random import Random\nrng = Random(3)\n") == []


class TestCSL002WallClock:
    def test_trigger_time_calls(self):
        src = """
        import time

        def stamp():
            return time.time(), time.perf_counter()
        """
        assert codes(src) == ["CSL002", "CSL002"]

    def test_trigger_datetime_now(self):
        src = """
        from datetime import datetime

        def when():
            return datetime.now()
        """
        assert codes(src) == ["CSL002"]

    def test_trigger_from_time_import(self):
        assert codes("from time import monotonic\n") == ["CSL002"]

    def test_clean_simulated_time(self):
        src = """
        def stamp(env):
            return env.now

        def fmt(t: float) -> str:
            import time
            return time.strftime("%H:%M", time.gmtime(t))
        """
        assert codes(src) == []

    def test_default_allowlist_covers_trial_runner(self):
        src = "import time\nstart = time.perf_counter()\n"
        runner = f"{ROOT}/src/repro/runner/core.py"
        assert codes(src, path=runner) == []
        assert codes(src, path=CORE) == ["CSL002"]


class TestCSL003UnorderedIteration:
    def test_trigger_for_over_set(self):
        src = """
        def run(items):
            seen = set(items)
            out = []
            for item in seen:
                out.append(item)
            return out
        """
        assert codes(src) == ["CSL003"]

    def test_trigger_comprehension_over_set_literal(self):
        assert codes("names = [n for n in {'a', 'b'}]\n") == ["CSL003"]

    def test_trigger_list_materializes_set(self):
        src = """
        def order(pending):
            live = {p for p in pending}
            return list(live)
        """
        assert codes(src) == ["CSL003"]

    def test_trigger_join_over_set(self):
        src = """
        def fmt(tags):
            uniq = set(tags)
            return ",".join(uniq)
        """
        assert codes(src) == ["CSL003"]

    def test_trigger_set_algebra_tracked(self):
        src = """
        def diff(a, b):
            extra = set(a) - set(b)
            for item in extra:
                print(item)
        """
        assert codes(src) == ["CSL003"]

    def test_clean_sorted_iteration(self):
        src = """
        def run(items):
            seen = set(items)
            return [x for x in sorted(seen)]
        """
        assert codes(src) == []

    def test_clean_order_free_reducers(self):
        src = """
        def stats(items):
            seen = set(items)
            total = sum(1 for x in seen)
            return total, len(seen), min(seen), max(seen), any(x for x in seen)
        """
        assert codes(src) == []

    def test_clean_set_comprehension_over_set(self):
        src = """
        def hosts(urls):
            uniq = set(urls)
            return {u.lower() for u in uniq}
        """
        assert codes(src) == []

    def test_clean_ordered_dict_as_set(self):
        src = """
        def run(items):
            seen = {x: None for x in items}
            return list(seen)
        """
        assert codes(src) == []

    def test_rebinding_clears_tracking(self):
        src = """
        def run(items):
            seen = set(items)
            seen = sorted(seen)
            return [x for x in seen]
        """
        assert codes(src) == []

    def test_fleet_no_longer_allowlisted_for_csl003(self):
        """The grouped-sweep rewrite dropped the id-set bookkeeping that
        needed the ``core/fleet.py`` CSL003 exemption, so the repo config
        no longer carries it: the set-iteration shape trips in fleet.py
        like everywhere else (and the shipped fleet.py stays clean, per
        the whole-tree enforcement test)."""
        config = load_tool_config(str(REPO / "pyproject.toml"), str(REPO))
        assert "CSL003" not in config.allow
        src = """
        def sweep(due, versions, target):
            ids = set(due)
            for i in ids:
                versions[i] = target
        """
        fleet = str(REPO / "src" / "repro" / "core" / "fleet.py")
        other = str(REPO / "src" / "repro" / "core" / "localdb.py")
        assert codes(src, path=fleet, config=config) == ["CSL003"]
        assert codes(src, path=other, config=config) == ["CSL003"]

    def test_grouped_sweep_grouping_dicts_clean_everywhere(self):
        """Hot-path round 4's grouped sweep keys per-sweep groups and
        batch caches on plain dicts (insertion-ordered), not sets —
        the grouping shape must be CSL003-clean *without* relying on
        the ``core/fleet.py`` allowlist entry, so the fast path stays
        portable to unexempted modules."""
        config = load_tool_config(str(REPO / "pyproject.toml"), str(REPO))
        src = """
        def sweep(due, versions, build):
            groups = {}
            for i in due:
                members = groups.get(versions[i])
                if members is None:
                    groups[versions[i]] = [i]
                else:
                    members.append(i)
            built = {}
            for since, members in groups.items():
                if since not in built:
                    built[since] = build(since)
            return built
        """
        other = str(REPO / "src" / "repro" / "core" / "localdb.py")
        assert codes(src, path=other, config=config) == []


class TestCSL004RealIo:
    def test_trigger_socket_import_in_simnet(self):
        assert codes("import socket\n", path=SIMNET) == ["CSL004"]

    def test_trigger_urllib_and_subprocess_in_core(self):
        src = "from urllib import request\nimport subprocess\n"
        assert codes(src, path=CORE) == ["CSL004", "CSL004"]

    def test_trigger_file_write_in_simnet(self):
        src = """
        def dump(path, data):
            with open(path, "w") as fh:
                fh.write(data)
        """
        assert codes(src, path=SIMNET) == ["CSL004"]

    def test_trigger_os_side_effects(self):
        src = """
        import os

        def clean(path):
            os.remove(path)
        """
        assert codes(src, path=SIMNET) == ["CSL004"]

    def test_clean_read_only_open(self):
        src = """
        def load(path):
            with open(path) as fh:
                return fh.read()
        """
        assert codes(src, path=SIMNET) == []

    def test_out_of_scope_path_is_exempt(self):
        assert codes("import socket\n", path=ANALYSIS) == []


class TestCSL005SlotsRequired:
    def test_trigger_event_class_without_slots(self):
        src = """
        class RetryEvent:
            def __init__(self, delay):
                self.delay = delay
        """
        assert codes(src, path=SIMNET) == ["CSL005"]

    def test_trigger_subclass_of_event_base(self):
        src = """
        class Retry(Event):
            pass
        """
        assert codes(src, path=SIMNET) == ["CSL005"]

    def test_clean_with_slots(self):
        src = """
        class RetryEvent:
            __slots__ = ("delay",)

            def __init__(self, delay):
                self.delay = delay

        class Empty(RetryEvent):
            __slots__ = ()
        """
        assert codes(src, path=SIMNET) == []

    def test_clean_dataclass_slots(self):
        src = """
        from dataclasses import dataclass

        @dataclass(frozen=True, slots=True)
        class FlowRecord:
            t: float
        """
        assert codes(src, path=SIMNET) == []

    def test_non_event_class_and_non_simnet_path_exempt(self):
        src = """
        class Helper:
            def __init__(self):
                self.x = 1
        """
        assert codes(src, path=SIMNET) == []
        assert codes("class LooseEvent:\n    pass\n", path=ANALYSIS) == []


class TestCSL006SimTimeEquality:
    def test_trigger_env_now_equality(self):
        assert codes("done = env.now == deadline\n") == ["CSL006"]

    def test_trigger_timestamp_attribute(self):
        assert codes("fresh = entry.posted_at != row.posted_at\n") == ["CSL006"]

    def test_clean_tolerance_helper_and_ordering(self):
        src = """
        from repro.simnet.simtime import time_eq

        done = time_eq(env.now, deadline)
        late = env.now >= deadline
        """
        assert codes(src) == []

    def test_clean_none_and_string_comparisons(self):
        src = """
        missing = entry.first_measured_at == None
        named = stage.value == "block-page"
        """
        assert codes(src) == []

    def test_config_extends_time_identifiers(self):
        config = ToolConfig(root=ROOT, options={"time-identifiers": ["epoch"]})
        assert codes("hit = epoch == 3\n", config=config) == ["CSL006"]
        assert codes("hit = epoch == 3\n") == []


class TestCSL007MutableDefault:
    def test_trigger_literal_defaults(self):
        src = """
        def f(xs=[], opts={}):
            return xs, opts
        """
        assert codes(src) == ["CSL007", "CSL007"]

    def test_trigger_constructor_and_kwonly(self):
        src = """
        def g(s=set(), *, cache=dict()):
            return s, cache
        """
        assert codes(src) == ["CSL007", "CSL007"]

    def test_clean_none_and_immutable_defaults(self):
        src = """
        def f(xs=None, pair=(), name="x"):
            xs = list(xs or ())
            return xs, pair, name
        """
        assert codes(src) == []


class TestCSL008InlineBlockTypeMap:
    def test_trigger_dict_map(self):
        src = """
        from repro.core.records import BlockType
        from repro.simnet.dns import DnsTimeout, NxDomain

        _TYPES = {
            DnsTimeout: BlockType.DNS_TIMEOUT,
            NxDomain: BlockType.DNS_NXDOMAIN,
        }
        """
        assert codes(src, path=CORE) == ["CSL008"]

    def test_trigger_pair_list_and_reversed_dict(self):
        src = """
        from repro.core import records
        from repro.simnet.tcp import ConnectTimeout
        from repro.simnet.tls import TlsReset

        PAIRS = [
            (ConnectTimeout, records.BlockType.IP_TIMEOUT),
        ]
        BY_TYPE = {records.BlockType.SNI_RST: TlsReset}
        """
        assert codes(src, path=CORE) == ["CSL008", "CSL008"]

    def test_allowed_in_taxonomy(self):
        src = """
        from repro.core.records import BlockType
        from repro.simnet.http import HttpTimeout

        TABLE = ((HttpTimeout, BlockType.HTTP_TIMEOUT),)
        """
        assert codes(src, path=f"{ROOT}/src/repro/core/taxonomy.py") == []

    def test_clean_unrelated_dicts(self):
        src = """
        from repro.core.records import BlockType

        WEIGHTS = {"dns": 0.5, "tcp": 0.5}
        STAGES = {BlockType.DNS_TIMEOUT: "dns"}
        NAMES = [("DnsTimeout", "dns-timeout")]
        """
        assert codes(src, path=CORE) == []


class TestCSL009SpecBackedScenarios:
    SCENARIOS = f"{ROOT}/src/repro/workloads/scenarios.py"
    LIBRARY = f"{ROOT}/src/repro/scenarios/library.py"

    def test_trigger_direct_world_and_policy(self):
        src = """
        from repro.censor.policy import CensorPolicy
        from repro.simnet.world import World

        def build(seed):
            world = World(seed=seed)
            policy = CensorPolicy(name="national")
            return world, policy
        """
        assert codes(src, path=self.SCENARIOS) == ["CSL009", "CSL009"]

    def test_trigger_attribute_chain(self):
        src = """
        from repro import simnet

        def build(seed):
            return simnet.world.World(seed=seed)
        """
        assert codes(src, path=self.LIBRARY) == ["CSL009"]

    def test_clean_spec_backed_wrapper(self):
        src = """
        from repro.scenarios.compiler import ScenarioCompiler
        from repro.scenarios.library import pakistan_spec

        def build(seed):
            return ScenarioCompiler().compile(pakistan_spec(seed=seed))
        """
        assert codes(src, path=self.SCENARIOS) == []

    def test_out_of_scope_modules_unaffected(self):
        src = """
        from repro.simnet.world import World

        def build(seed):
            return World(seed=seed)
        """
        assert codes(src, path=CORE) == []
        assert codes(src, path=f"{ROOT}/src/repro/scenarios/compiler.py") == []


# -- suppressions --------------------------------------------------------------


class TestInlineSuppression:
    def test_same_line_disable_single_code(self):
        src = "import random\nx = random.random()  # csaw-analyze: disable=CSL001\n"
        assert codes(src) == []

    def test_disable_all_codes(self):
        src = "import random\nx = random.random()  # csaw-analyze: disable\n"
        assert codes(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = "import random\nx = random.random()  # csaw-analyze: disable=CSL002\n"
        assert codes(src) == ["CSL001"]

    def test_standalone_comment_covers_next_line(self):
        src = (
            "import random\n"
            "# csaw-analyze: disable=CSL001\n"
            "x = random.random()\n"
        )
        assert codes(src) == []

    @pytest.mark.parametrize(
        "comment",
        [
            "# csaw-analyze: disable=csl002",
            "# csaw-analyze: disable = CSL001",
            "# csaw-analyze: disabled until the rewrite lands",
        ],
        ids=["lower-case-code", "spaced-equals", "disabled-prose"],
    )
    def test_malformed_marker_suppresses_nothing(self, comment):
        src = f"import random\nx = random.random()  {comment}\n"
        assert suppressed_lines(src) == {}
        assert codes(src) == ["CSL001"]

    def test_reason_may_follow_the_codes(self):
        supp = suppressed_lines("x = 1  # csaw-analyze: disable=CSL003 reason…\n")
        assert supp == {1: {"CSL003"}}

    def test_parser_maps_lines(self):
        supp = suppressed_lines("a = 1\n# csaw-analyze: disable=CSL003,CSL006\nb = 2\n")
        assert supp[2] == {"CSL003", "CSL006"}
        assert supp[3] == {"CSL003", "CSL006"}


# -- config: allowlists, scope overrides, select -------------------------------


class TestConfig:
    def test_allowlist_extends_rule(self):
        config = ToolConfig(root=ROOT, allow={"CSL001": ("src/repro/legacy/*",)})
        src = "import random\nx = random.random()\n"
        assert codes(src, path=f"{ROOT}/src/repro/legacy/old.py", config=config) == []
        assert codes(src, path=ANALYSIS, config=config) == ["CSL001"]

    def test_scope_override_replaces_rule_scope(self):
        config = ToolConfig(root=ROOT, scope={"CSL004": ("src/repro/censor/*",)})
        src = "import socket\n"
        assert codes(src, path=SIMNET, config=config) == []
        assert codes(src, path=f"{ROOT}/src/repro/censor/mb.py", config=config) == [
            "CSL004"
        ]

    def test_select_restricts_rules(self):
        config = ToolConfig(root=ROOT, select=("CSL007",))
        src = "import random\ndef f(xs=[]):\n    return random.random()\n"
        assert codes(src, config=config) == ["CSL007"]

    def test_load_config_reads_pyproject_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """
                [tool.csawanalyze]
                select = ["CSL001", "CSL007"]
                baseline = "lint-baseline.json"

                [tool.csawanalyze.allow]
                CSL001 = ["src/gen/*"]

                [tool.csawanalyze.options]
                time-identifiers = ["epoch"]
                """
            )
        )
        config = load_tool_config(None, str(tmp_path / "x.py"))
        assert config.root == str(tmp_path)
        assert config.select == ("CSL001", "CSL007")
        assert config.baseline == "lint-baseline.json"
        assert config.allow == {"CSL001": ("src/gen/*",)}
        assert config.options["time-identifiers"] == ["epoch"]

    def test_repo_pyproject_parses(self):
        config = load_tool_config(str(REPO / "pyproject.toml"), str(REPO))
        assert "CSL002" in config.allow


# -- baseline mode -------------------------------------------------------------


class TestBaseline:
    @staticmethod
    def _violating_file(tmp_path, name="old.py", extra=""):
        path = tmp_path / "src" / name
        path.parent.mkdir(exist_ok=True)
        path.write_text("def f(xs=[]):\n    return xs\n" + extra)
        return path

    def test_round_trip_grandfathers_existing(self, tmp_path):
        self._violating_file(tmp_path)
        config = ToolConfig(root=str(tmp_path))
        violations = analyze_paths([str(tmp_path / "src")], config)
        assert [v.code for v in violations] == ["CSL007"]

        baseline_path = tmp_path / "baseline.json"
        devconfig.write_baseline(violations, str(baseline_path), config.root)
        baseline = devconfig.load_baseline(str(baseline_path))
        assert baseline == {"src/old.py:CSL007": 1}

        fresh, grandfathered = devconfig.apply_baseline(violations, baseline, config.root)
        assert fresh == [] and grandfathered == 1

    def test_new_violation_not_masked(self, tmp_path):
        path = self._violating_file(tmp_path)
        config = ToolConfig(root=str(tmp_path))
        violations = analyze_paths([str(tmp_path / "src")], config)
        baseline_path = tmp_path / "baseline.json"
        devconfig.write_baseline(violations, str(baseline_path), config.root)

        path.write_text(path.read_text() + "def g(ys=[]):\n    return ys\n")
        violations = analyze_paths([str(tmp_path / "src")], config)
        fresh, grandfathered = devconfig.apply_baseline(
            violations, devconfig.load_baseline(str(baseline_path)), config.root
        )
        assert grandfathered == 1
        assert [v.code for v in fresh] == ["CSL007"]

    def test_missing_baseline_is_empty(self):
        assert devconfig.load_baseline(None) == {}
        assert devconfig.load_baseline("/nonexistent/baseline.json") == {}


# -- CLI -----------------------------------------------------------------------


class TestCli:
    def test_exit_codes_and_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "CSL007" in out and "bad.py" in out

        good = tmp_path / "good.py"
        good.write_text("def f(xs=None):\n    return xs\n")
        assert main([str(good)]) == 0

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--write-baseline", str(baseline)]) == 0
        assert json.loads(baseline.read_text())["entries"]
        assert main([str(bad), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"][0]["code"] == "CSL001"

    def test_select_flag(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\ndef f(xs=[]):\n    pass\n")
        assert main([str(bad), "--select", "CSL005"]) == 0

    def test_list_rules_prints_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in all_rules():
            assert code in out

    def test_syntax_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(:\n")
        assert main([str(bad)]) == 1
        assert "CSL999" in capsys.readouterr().out


# -- enforcement: the real tree stays at zero ----------------------------------


class TestRepoEnforcement:
    def test_all_fourteen_rules_registered(self):
        assert list(all_rules()) == [f"CSA10{i}" for i in range(1, 6)] + [
            f"CSL00{i}" for i in range(1, 10)
        ]

    def test_src_tree_is_lint_clean(self, capsys):
        rc = main([str(REPO / "src"), "--config", str(REPO / "pyproject.toml")])
        captured = capsys.readouterr()
        assert rc == 0, f"csaw-analyze found violations:\n{captured.out}"

    def test_committed_baseline_is_empty(self):
        baseline = devconfig.load_baseline(str(REPO / ".csawanalyze-baseline.json"))
        assert baseline == {}
