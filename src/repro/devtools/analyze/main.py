"""csaw-analyze: the determinism analyzer for the C-Saw stack.

Usage::

    csaw-analyze src                     # every CSL and CSA rule
    csaw-analyze graph src               # dump call graph + worker set
    python -m repro.devtools.analyze src

One pass parses the whole tree into a project index; the per-file CSL
rules run on each indexed module, then a conservative call graph
(direct calls, method calls by attribute name, callables handed to the
trial runner / executors) and its worker-reachable closure feed the
whole-program CSA rules.  One suppression, baseline and report step
covers both families.

Configuration lives in ``[tool.csawanalyze]`` in ``pyproject.toml``:

- ``select``: rule codes to run (default: all registered rules);
- ``baseline``: path of a committed baseline file (grandfathered
  findings; see ``--write-baseline``);
- ``[tool.csawanalyze.allow]``: per-rule lists of fnmatch globs *added*
  to the rule's built-in allowlist (files exempt from the rule);
- ``[tool.csawanalyze.scope]``: per-rule glob lists *replacing* the
  rule's built-in scope (files the rule applies to);
- ``[tool.csawanalyze.options]``: free-form rule options —
  ``time-identifiers`` (CSL006), ``worker-dispatchers`` (extra
  first-positional-callable dispatcher names), ``spec-modules``
  (CSA104).

Inline, ``# csaw-analyze: disable=CSL003`` (or a bare ``disable`` for
all codes) suppresses findings on that line — or on the next line when
the comment stands alone.  Exit status is 0 iff no unsuppressed,
non-baselined findings remain, 1 when some do, and 2 for a bad path or
config value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, FrozenSet, List, Optional, Sequence

from .. import config as _config
from ..config import ConfigError, ToolConfig, load_tool_config
from ..framework import (
    LintContext,
    ProjectRule,
    Rule,
    Violation,
    all_rules,
    effective_rules,
    is_suppressed,
    suppressed_lines,
)
from .callgraph import build_call_graph
from .index import ProjectIndex
from .rules import Project

__all__ = [
    "Project",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "build_project",
    "main",
]


def _project(index: ProjectIndex, config: ToolConfig) -> Project:
    extra = config.options.get("worker-dispatchers", ())
    if isinstance(extra, str):
        extra = (extra,)
    graph = build_call_graph(index, extra_dispatchers=tuple(extra))
    return Project(index=index, graph=graph, config=config)


def build_project(
    paths: Sequence[str], config: Optional[ToolConfig] = None
) -> Project:
    """Parse + index the tree and build the call graph, once."""
    config = config or ToolConfig()
    return _project(ProjectIndex.build(paths, config.root), config)


def analyze_project(
    project: Project, rules: Optional[Sequence[Rule]] = None
) -> List[Violation]:
    """Run the rules over the indexed tree; apply inline suppressions."""
    if rules is None:
        rules = effective_rules(project.config)
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    violations: List[Violation] = []
    for module in project.index.modules.values():
        ctx = LintContext(module=module, options=project.config.options)
        for rule in file_rules:
            if rule.applies_to(module.relpath):
                violations.extend(rule.check(ctx))
    for rule in rules:
        if isinstance(rule, ProjectRule):
            violations.extend(rule.check(project))
    # Only files with findings are tokenized for suppressions, once each.
    sources = {m.path: m.source for m in project.index.modules.values()}
    suppressions: Dict[str, Dict[int, FrozenSet[str]]] = {}
    kept: List[Violation] = []
    for violation in violations:
        if violation.path not in suppressions:
            suppressions[violation.path] = suppressed_lines(
                sources[violation.path]
            )
        if not is_suppressed(violation, suppressions[violation.path]):
            kept.append(violation)
    for _, error in project.index.parse_errors:
        kept.append(
            Violation(
                code="CSL999",
                message=f"syntax error: {error.msg}",
                path=error.filename or "",
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
            )
        )
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return kept


def analyze_paths(
    paths: Sequence[str], config: Optional[ToolConfig] = None
) -> List[Violation]:
    return analyze_project(build_project(paths, config))


def analyze_source(
    source: str, path: str, config: Optional[ToolConfig] = None
) -> List[Violation]:
    """Analyze one in-memory module; ``path`` drives scope/allow matching."""
    config = config or ToolConfig()
    index = ProjectIndex(root=os.path.abspath(config.root))
    index.add_source(source, path)
    index.finalize()
    return analyze_project(_project(index, config))


# -- CLI -----------------------------------------------------------------------


def _load_config(paths: Sequence[str], config_path: Optional[str]) -> ToolConfig:
    """The config for a run, after checking every path exists."""
    for path in paths:
        if not os.path.exists(path):
            raise ConfigError(f"no such file or directory: {path}")
    return load_tool_config(config_path, paths[0])


def _graph_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="csaw-analyze graph",
        description="Dump the conservative call graph and worker-reachable "
        "set as JSON.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or dirs")
    parser.add_argument("--config", help="explicit pyproject.toml path")
    parser.add_argument(
        "--output", help="write JSON here instead of stdout"
    )
    args = parser.parse_args(argv)
    paths = list(args.paths) or ["src"]
    try:
        config = _load_config(paths, args.config)
    except ConfigError as exc:
        print(f"csaw-analyze: error: {exc}", file=sys.stderr)
        return 2
    project = build_project(paths, config)
    payload = project.graph.to_json()
    payload["parse_errors"] = sorted(
        relpath for relpath, _ in project.index.parse_errors
    )
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "graph":
        return _graph_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="csaw-analyze",
        description="Determinism analyzer (per-file rules + call graph and "
        "worker reachability) for the C-Saw simulation stack.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or dirs")
    parser.add_argument(
        "--select", help="comma-separated rule codes (default: all)"
    )
    parser.add_argument("--config", help="explicit pyproject.toml path")
    parser.add_argument(
        "--baseline",
        help="baseline file (overrides [tool.csawanalyze].baseline)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="record current findings as the baseline and exit 0",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, rule_cls in all_rules().items():
            doc = (rule_cls.__doc__ or "").strip().splitlines()[0]
            print(f"{code}  {rule_cls.name:<30} {doc}")
        return 0

    paths = list(args.paths) or ["src"]
    try:
        config = _load_config(paths, args.config)
        if args.select:
            config.select = tuple(
                code.strip() for code in args.select.split(",") if code.strip()
            )
        rules = effective_rules(config)
    except ConfigError as exc:
        print(f"csaw-analyze: error: {exc}", file=sys.stderr)
        return 2

    project = build_project(paths, config)
    violations = analyze_project(project, rules)

    if args.write_baseline:
        _config.write_baseline(violations, args.write_baseline, config.root)
        print(
            f"csaw-analyze: wrote baseline with {len(violations)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0

    baseline_path = args.baseline or config.baseline
    if baseline_path and not os.path.isabs(baseline_path):
        baseline_path = os.path.join(config.root, baseline_path)
    fresh, grandfathered = _config.apply_baseline(
        violations, _config.load_baseline(baseline_path), config.root
    )

    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "violations": [vars(v) for v in fresh],
                    "grandfathered": grandfathered,
                    "n_functions": len(project.index.functions),
                    "n_worker_reachable": len(project.graph.worker_reachable),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for violation in fresh:
            print(violation.render())
        summary = (
            f"csaw-analyze: {len(fresh)} finding(s) across "
            f"{len(project.index.modules)} module(s), "
            f"{len(project.index.functions)} function(s), "
            f"{len(project.graph.worker_reachable)} worker-reachable"
        )
        if grandfathered:
            summary += f", {grandfathered} grandfathered by baseline"
        print(summary, file=sys.stderr)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
