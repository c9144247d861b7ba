"""Every module-level import under ``src/repro`` is read by its module.

An import that nothing reads costs a load and misleads a reader about
what the module depends on; one kept only so that other modules can
import the name through it is an undeclared re-export.  This guard
parses ``src/repro`` with :mod:`ast` alone (it imports nothing from
``repro``) and fails, naming ``path:line name``, on each name a
module-level import binds in a non-``__init__`` module that the module
never reads and does not list in ``__all__``.  Package ``__init__``
modules are exempt: re-exporting is their job.  ``from __future__``
imports bind nothing and are skipped.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/repro"


def _module_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Import statements at module level, inside ``if``/``try`` too."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, (ast.If, ast.Try)):
            for block in (stmt.body, stmt.orelse,
                          getattr(stmt, "finalbody", [])):
                yield from _module_imports(block)
            for handler in getattr(stmt, "handlers", []):
                yield from _module_imports(handler.body)


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _quoted_names(tree: ast.Module) -> Iterator[str]:
    """Names read inside quoted annotations (``module: "ModuleInfo"``)."""
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                yield from (n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))


def _unused(tree: ast.Module, path: str) -> Iterator[str]:
    read: Set[str] = set(_quoted_names(tree))
    exported: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
    for stmt in _module_imports(tree.body):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".", 1)[0]
            if name != "*" and name not in read and name not in exported:
                yield f"{path}:{stmt.lineno} {name}"


def _scan(root: Path = ROOT) -> List[str]:
    found: List[str] = []
    for file in sorted((root / PACKAGE).rglob("*.py")):
        if file.name == "__init__.py":
            continue
        path = file.relative_to(root).as_posix()
        found.extend(_unused(ast.parse(file.read_text("utf-8"), path), path))
    return found


def test_every_module_level_import_is_read():
    unused = _scan()
    assert not unused, (
        "imports that their module never reads (drop them, or import the"
        " name from where it is defined):\n  " + "\n  ".join(unused)
    )


def test_the_scan_flags_only_unread_names(tmp_path):
    package = tmp_path / PACKAGE
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .m import helper\n")
    (package / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Dict, Optional\n"
        "from .k import CONST, helper as h\n"
        "try:\n"
        "    import tomllib\n"
        "except ImportError:\n"
        "    tomllib = None\n"
        "if TYPE_CHECKING:\n"
        "    from .k import Quoted\n"
        "\n"
        '__all__ = ["CONST"]\n'
        "\n"
        "\n"
        "def f(x: Optional[int], q: \"Quoted\") -> str:\n"
        "    return os.path.join(str(x), h())\n"
    )
    assert _scan(tmp_path) == [
        "src/repro/m.py:3 Dict",
        "src/repro/m.py:6 tomllib",
    ]
