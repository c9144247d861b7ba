"""Configuration & baseline machinery for ``csaw-analyze``.

- :class:`ToolConfig` — root, rule selection, per-rule ``allow``/
  ``scope`` glob tables, free-form options, baseline path;
- :func:`load_tool_config` — load the ``[tool.csawanalyze]`` table (via
  :mod:`tomllib` when available, else a tiny built-in TOML subset
  parser — the same fallback strategy as the scenario spec loader);
- :func:`iter_python_files` — deterministic file discovery;
- baseline read/write/apply — findings are grandfathered per
  ``(file, code)`` count, so a committed-empty baseline enforces every
  rule at zero while ``--write-baseline`` permits incremental adoption.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .framework import Violation

__all__ = [
    "ConfigError",
    "ToolConfig",
    "apply_baseline",
    "baseline_key",
    "find_project_root",
    "iter_python_files",
    "load_baseline",
    "load_tool_config",
    "load_toml",
    "parse_minimal_toml",
    "write_baseline",
]


class ConfigError(ValueError):
    """A config value or command-line argument that cannot be honoured."""


@dataclass
class ToolConfig:
    """The analyzer's effective configuration."""

    root: str = "."
    select: Tuple[str, ...] = ()  # empty = all registered
    allow: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    scope: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    options: Dict[str, object] = field(default_factory=dict)
    baseline: Optional[str] = None


def parse_minimal_toml(text: str) -> Dict[str, Dict[str, object]]:
    """Tiny TOML subset parser (fallback when :mod:`tomllib` is absent).

    Understands ``[dotted.section]`` headers and ``key = value`` lines
    where value is a string, bool, int, or (possibly multi-line) array
    of strings — exactly what the ``[tool.csawanalyze]`` tables use.  Unparseable values are kept as
    raw strings and ignored by the config loader.
    """
    sections: Dict[str, Dict[str, object]] = {}
    current: Dict[str, object] = sections.setdefault("", {})
    pending_key: Optional[str] = None
    pending_chunks: List[str] = []

    def parse_value(raw: str) -> object:
        raw = raw.strip()
        if raw.startswith("[") and raw.endswith("]"):
            return re.findall(r'"((?:[^"\\]|\\.)*)"', raw)
        if len(raw) >= 2 and raw[0] == raw[-1] == '"':
            return raw[1:-1]
        if raw in ("true", "false"):
            return raw == "true"
        try:
            return int(raw)
        except ValueError:
            return raw

    for line in text.splitlines():
        stripped = line.strip()
        if pending_key is not None:
            pending_chunks.append(stripped)
            if stripped.endswith("]"):
                current[pending_key] = parse_value(" ".join(pending_chunks))
                pending_key, pending_chunks = None, []
            continue
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped.strip("[]").strip().strip('"')
            current = sections.setdefault(name, {})
            continue
        if "=" in stripped:
            key, _, raw = stripped.partition("=")
            raw = raw.split(" #")[0].strip()
            if raw.startswith("[") and not raw.endswith("]"):
                pending_key, pending_chunks = key.strip(), [raw]
                continue
            current[key.strip()] = parse_value(raw)
    return sections


def load_toml(path: str) -> Dict[str, object]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        import tomllib  # Python 3.11+

        return tomllib.loads(data.decode("utf-8"))
    except ImportError:
        flat = parse_minimal_toml(data.decode("utf-8"))
        nested: Dict[str, object] = dict(flat.get("", {}))
        for section, values in flat.items():
            if not section:
                continue
            node = nested
            for part in section.split("."):
                node = node.setdefault(part, {})  # type: ignore[assignment]
            if isinstance(node, dict):
                node.update(values)
        return nested


def find_project_root(start: str) -> str:
    """Nearest ancestor of ``start`` containing a ``pyproject.toml``."""
    path = os.path.abspath(start)
    if os.path.isfile(path):
        path = os.path.dirname(path)
    while True:
        if os.path.isfile(os.path.join(path, "pyproject.toml")):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return os.path.abspath(os.getcwd())
        path = parent


def load_tool_config(config_path: Optional[str], anchor: str) -> ToolConfig:
    """Load ``[tool.csawanalyze]`` from an explicit path or the root."""
    if config_path is None:
        root = find_project_root(anchor)
        config_path = os.path.join(root, "pyproject.toml")
        if not os.path.isfile(config_path):
            return ToolConfig(root=root)
    else:
        root = os.path.dirname(os.path.abspath(config_path)) or "."
    table = load_toml(config_path)
    section = table.get("tool", {})
    section = section.get("csawanalyze", {}) if isinstance(section, dict) else {}
    if not isinstance(section, dict):
        section = {}

    def globs(value: object) -> Dict[str, Tuple[str, ...]]:
        if not isinstance(value, dict):
            return {}
        return {
            str(code): tuple(str(g) for g in patterns)
            for code, patterns in value.items()
            if isinstance(patterns, (list, tuple))
        }

    select = section.get("select", [])
    if not isinstance(select, list) or not all(
        isinstance(code, str) for code in select
    ):
        raise ConfigError(
            f"select must be a list of rule codes, got {select!r}"
        )
    options = section.get("options", {})
    return ToolConfig(
        root=root,
        select=tuple(select),
        allow=globs(section.get("allow")),
        scope=globs(section.get("scope")),
        options=dict(options) if isinstance(options, dict) else {},
        baseline=section.get("baseline"),
    )


# -- file discovery ------------------------------------------------------------


def iter_python_files(paths: Sequence[str]) -> List[str]:
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            found.append(path)
    return found


# -- baseline ------------------------------------------------------------------


def baseline_key(violation: "Violation", root: str) -> str:
    relpath = os.path.relpath(os.path.abspath(violation.path), root).replace(
        os.sep, "/"
    )
    return f"{relpath}:{violation.code}"


def write_baseline(
    violations: Iterable["Violation"], path: str, root: str
) -> None:
    counts: Dict[str, int] = {}
    for violation in violations:
        key = baseline_key(violation, root)
        counts[key] = counts.get(key, 0) + 1
    payload = {"version": 1, "entries": dict(sorted(counts.items()))}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_baseline(path: Optional[str]) -> Dict[str, int]:
    if not path or not os.path.isfile(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = payload.get("entries", {})
    return {str(k): int(v) for k, v in entries.items()}


def apply_baseline(
    violations: Sequence["Violation"], baseline: Dict[str, int], root: str
) -> Tuple[List["Violation"], int]:
    """Drop up to ``baseline[key]`` findings per (file, code); count kept."""
    remaining = dict(baseline)
    fresh: List["Violation"] = []
    grandfathered = 0
    for violation in violations:
        key = baseline_key(violation, root)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            grandfathered += 1
        else:
            fresh.append(violation)
    return fresh, grandfathered
