"""Configuration for ``csaw-analyze``.

- :class:`ToolConfig` — root, rule selection, per-rule ``allow``/
  ``scope`` glob tables, rule options;
- :func:`load_tool_config` — load the ``[tool.csawanalyze]`` table (via
  :mod:`tomllib` when available, else :mod:`.toml_subset` — the
  same fallback as the scenario spec loader); a key it does not read,
  or an ``allow``/``scope``/``options`` value that is not a table of
  string lists, is a :class:`ConfigError`;
- :func:`iter_python_files` — deterministic file discovery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import toml_subset

__all__ = [
    "ConfigError",
    "ToolConfig",
    "find_project_root",
    "iter_python_files",
    "load_tool_config",
    "load_toml",
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
    #: option key -> strings; each rule declares the keys it reads
    options: Dict[str, List[str]] = field(default_factory=dict)


def load_toml(path: str) -> Dict[str, object]:
    """Parse the ``pyproject.toml`` at ``path``.

    Without :mod:`tomllib` (Python < 3.11) only its
    ``[tool.csawanalyze…]`` tables are parsed, with
    :func:`.toml_subset.parse`: the rest of a ``pyproject.toml``
    uses inline tables and quoted dotted keys that the subset rejects,
    and the analyzer reads nothing outside those tables.  A syntax error
    is a :class:`ConfigError` naming the file, with the parser's message
    and position.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    try:
        import tomllib  # Python 3.11+
    except ImportError:
        try:
            return toml_subset.parse(_analyzer_tables(text), path)
        except ValueError as err:
            raise ConfigError(str(err)) from None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        raise ConfigError(f"{path}: {err}") from None


def _analyzer_tables(text: str) -> str:
    """``text`` with every line outside the ``[tool.csawanalyze…]``
    tables blanked, so parse errors keep the file's line numbers (a
    header starts its line; indented array rows never switch tables)."""
    kept: List[str] = []
    keep = False
    for line in text.splitlines():
        if line.startswith("["):
            keep = line.startswith(
                ("[tool.csawanalyze]", "[tool.csawanalyze.")
            )
        kept.append(line if keep else "")
    return "\n".join(kept)


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
    unknown = sorted(section.keys() - {"select", "allow", "scope", "options"})
    if unknown:
        raise ConfigError(f"[tool.csawanalyze]: unknown key(s) {unknown}")

    def string_lists(key: str) -> Dict[str, List[str]]:
        value = section.get(key, {})
        if not isinstance(value, dict):
            raise ConfigError(
                f"[tool.csawanalyze] {key}: expected a table, got {value!r}"
            )
        for name, items in value.items():
            if not isinstance(items, list) or not all(
                isinstance(item, str) for item in items
            ):
                raise ConfigError(
                    f"[tool.csawanalyze.{key}] {name}: expected a list of "
                    f"strings, got {items!r}"
                )
        return value

    select = section.get("select", [])
    if not isinstance(select, list) or not all(
        isinstance(code, str) for code in select
    ):
        raise ConfigError(
            f"select must be a list of rule codes, got {select!r}"
        )
    allow, scope = string_lists("allow"), string_lists("scope")
    return ToolConfig(
        root=root,
        select=tuple(select),
        allow={code: tuple(globs) for code, globs in allow.items()},
        scope={code: tuple(globs) for code, globs in scope.items()},
        options=dict(string_lists("options")),
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

