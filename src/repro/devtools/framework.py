"""Rule framework for ``csaw-analyze``.

A *rule* is an AST analysis with a stable code, a severity, and
optional path scoping.  Two kinds share one registry:

- :class:`Rule` — a per-file rule (``CSL0xx``); ``check`` sees one
  indexed module through a :class:`LintContext`;
- :class:`ProjectRule` — a whole-program rule (``CSA1xx``); ``check``
  sees the project index and call graph.

Path scoping, for both kinds:

- ``scope``: fnmatch globs the file must match for the rule to apply at
  all (empty = everywhere).  Used for rules that only make sense inside
  the simulation stack, e.g. the real-I/O ban.
- ``allow``: fnmatch globs for files that are exempt (the wall-clock
  rule allowlists ``runner/core.py``, which legitimately times trials).

Both lists can be extended or overridden per rule from the
``[tool.csawanalyze]`` table in ``pyproject.toml``; inline
``# csaw-analyze: disable=CODE`` comments suppress single lines.  The
registry is a plain dict keyed by code so the CLI, the tests, and the
docs all enumerate exactly the same rule set.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

from .config import ConfigError, ToolConfig

if TYPE_CHECKING:  # pragma: no cover
    from .analyze.index import ModuleInfo
    from .analyze.rules import Project

__all__ = [
    "LintContext",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_rules",
    "attr_chain",
    "effective_rules",
    "register",
    "suppressed_lines",
]

#: Inline-suppression marker: ``# csaw-analyze: disable=CSL003``.
MARKER = "csaw-analyze"


@dataclass(frozen=True)
class Violation:
    """One finding, pinned to a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int
    severity: str = "error"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class LintContext:
    """Everything a per-file rule needs: one indexed module + options."""

    module: "ModuleInfo"
    options: Dict[str, object]

    @property
    def tree(self) -> ast.Module:
        return self.module.tree

    def violation(
        self, rule: "Rule", node: ast.AST, message: Optional[str] = None
    ) -> Violation:
        return rule.finding(self.module, node, message)


class Rule:
    """Per-file rule base; subclasses set the class attributes and ``check``."""

    code: str = "CSL000"
    name: str = "base"
    message: str = ""
    severity: str = "error"
    #: fnmatch globs the file must match for the rule to run (empty = all)
    scope: Tuple[str, ...] = ()
    #: fnmatch globs for exempt files
    allow: Tuple[str, ...] = ()

    @classmethod
    def configured(cls, config: ToolConfig) -> "Rule":
        """An instance with the config's ``scope``/``allow`` globs applied."""
        rule = cls()
        if cls.code in config.scope:
            rule.scope = tuple(config.scope[cls.code])
        if cls.code in config.allow:
            rule.allow = tuple(cls.allow) + tuple(config.allow[cls.code])
        return rule

    def allowed(self, relpath: str) -> bool:
        return any(fnmatch(relpath, g) for g in self.allow)

    def applies_to(self, relpath: str) -> bool:
        if self.scope and not any(fnmatch(relpath, g) for g in self.scope):
            return False
        return not self.allowed(relpath)

    def finding(
        self, module: "ModuleInfo", node: ast.AST, message: Optional[str] = None
    ) -> Violation:
        return Violation(
            code=self.code,
            message=message if message is not None else self.message,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            severity=self.severity,
        )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        raise NotImplementedError


class ProjectRule(Rule):
    """Whole-program rule base: ``check`` sees the project, not a file."""

    def check(self, project: "Project") -> Iterator[Violation]:  # type: ignore[override]
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (codes are unique)."""
    code = rule_cls.code
    if code in _REGISTRY and _REGISTRY[code] is not rule_cls:
        raise ValueError(f"duplicate rule code {code}")
    _REGISTRY[code] = rule_cls
    return rule_cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The registry, keyed and iterated in code order."""
    return {code: _REGISTRY[code] for code in sorted(_REGISTRY)}


def effective_rules(config: ToolConfig) -> List[Rule]:
    """The selected rules with config globs applied.

    Raises :class:`ConfigError` when ``select`` or an ``allow``/``scope``
    key names a code no rule registers — a typo would otherwise select
    nothing (or exempt nothing) and pass silently.
    """
    registry = all_rules()
    for key, codes in (
        ("select", config.select),
        ("allow", config.allow),
        ("scope", config.scope),
    ):
        unknown = sorted(set(codes) - set(registry))
        if unknown:
            raise ConfigError(
                f"{key} names no registered rule: {', '.join(unknown)}"
            )
    return [
        rule_cls.configured(config)
        for code, rule_cls in registry.items()
        if not config.select or code in config.select
    ]


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


# -- inline suppressions -------------------------------------------------------

_ALL = frozenset({"*"})
_CODE = r"[A-Z]{3}\d{3}"
#: ``disable`` alone ends the comment (all codes), or ``disable=`` is
#: followed by comma-separated codes (then free text).  Anything else —
#: lower-case codes, ``disable = X``, ``disabled ...`` — suppresses nothing.
_DISABLE_RE = re.compile(
    re.escape(MARKER)
    + rf":\s*disable(?:\s*$|=(?P<codes>{_CODE}(?:\s*,\s*{_CODE})*)(?!\w))"
)


def _parse_disable(comment: str) -> Optional[FrozenSet[str]]:
    match = _DISABLE_RE.search(comment)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return _ALL
    return frozenset(c.strip() for c in codes.split(","))


def suppressed_lines(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> codes suppressed there (``{"*"}`` = all codes).

    A trailing ``# csaw-analyze: disable=CSL003`` suppresses its own
    line; a comment on a line of its own also covers the next line, so
    multi-line statements can be annotated above rather than
    mid-expression.
    """
    suppressed: Dict[int, FrozenSet[str]] = {}
    if MARKER not in source:
        return suppressed
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        tokens = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        codes = _parse_disable(tok.string)
        if codes is None:
            continue
        line = tok.start[0]
        suppressed[line] = suppressed.get(line, frozenset()) | codes
        # Standalone comment: nothing but whitespace before it.
        if tok.line[: tok.start[1]].strip() == "":
            suppressed[line + 1] = suppressed.get(line + 1, frozenset()) | codes
    return suppressed


def is_suppressed(
    violation: Violation, suppressed: Dict[int, FrozenSet[str]]
) -> bool:
    codes = suppressed.get(violation.line)
    if not codes:
        return False
    return "*" in codes or violation.code in codes
