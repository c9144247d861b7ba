"""The README's Python samples import only what the package still has.

A deletion that leaves a README sample importing a removed name breaks
the first thing a reader runs.  This parses every ```` ```python ````
block with :mod:`ast` and resolves each ``repro`` import, without
running the samples.
"""

import ast
import importlib
import re
from pathlib import Path
from typing import Iterator, List

README = Path(__file__).resolve().parent.parent / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def _unresolved(source: str) -> Iterator[str]:
    """Each ``repro`` import in ``source`` that does not resolve."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in targets:
            if module.split(".")[0] != "repro":
                continue
            statement = (f"import {module}" if name is None
                         else f"from {module} import {name}")
            try:
                imported = importlib.import_module(module)
                if name is not None and not hasattr(imported, name):
                    importlib.import_module(f"{module}.{name}")
            except ImportError:
                yield statement


def test_readme_samples_import_what_exists():
    blocks = _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no ```python blocks"
    missing: List[str] = [
        statement for source in blocks for statement in _unresolved(source)
    ]
    assert not missing, (
        "README.md samples import names the package no longer has:\n  "
        + "\n  ".join(missing)
    )


def test_an_unresolved_import_is_named():
    source = (
        "from repro.analysis import render_table, cdf_points\n"
        "import repro.workloads.events\n"
    )
    assert list(_unresolved(source)) == [
        "from repro.analysis import cdf_points",
        "import repro.workloads.events",
    ]
