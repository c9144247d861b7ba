"""Every def under ``src/repro`` is reached from outside the tests.

Production code that only tests call costs reading and upkeep and
proves nothing about what a workload runs; reference twins belong in
``tests/`` (``tests/_reference_*.py``).  This guard parses ``src``,
``benchmarks`` and ``examples`` with :mod:`ast` alone (it imports
nothing from ``repro``) and fails, naming ``path:line Qualname``, on
each function, method or class under ``src/repro`` that none of them
*mentions* outside the def's own body.  A mention is a name, an
attribute, the original name of a renaming import (``from m import f
as g``: uses then go by ``g``), or a string constant equal to the name
that is neither a docstring nor an entry of an ``__all__`` list.  An
export is not a caller: a plain ``import`` or ``from m import f`` and
an ``__all__`` entry only pass a name along, so an exported def that
nothing uses is flagged like any other.  Dunders are exempt (the
interpreter calls them), and so are ``@register`` classes (the analyzer
reaches its rules through the registry).

``ALLOWED`` lists the few defs that the README documents as API for
readers to call, or that decode state a golden pins, or that a lint
message names as the fix, each with its reason.  An entry that is
reached, or that names no def, fails the guard too, so the list only
shrinks; so does an entry whose reason cites the README when README.md
no longer names the def.  The guard also fails on an ``__all__`` entry
that names nothing its module defines or imports, which Python reports
only on ``import *``.

Blind spot: the scan goes by name, not by binding.  A dead def that
shares its name with a live one (two classes' ``stats``, say) counts
as reached, and so does a getter whose only mention is the name of a
same-named def.  Deleting code by name alone is therefore safe, but a
pass here does not prove that every def is live.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Trees whose modules count as callers; ``tests/`` is deliberately absent.
CALLER_TREES = ("src", "benchmarks", "examples")
PACKAGE = "src/repro/"

#: (path, qualname) -> why the def stays although no caller tree mentions it.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("src/repro/core/client.py", "CSawClient.migrate"):
        "README 'Beyond the paper's evaluation': client mobility (paper §8)",
    ("src/repro/circumvent/tor.py", "TorNetwork.add_bridges"):
        "README 'Beyond the paper's evaluation': Tor bridges (paper §8)",
    ("src/repro/circumvent/uproxy.py", "FriendProxyTransport"):
        "README 'Beyond the paper's evaluation': uProxy-style friend relays (paper §2.2)",
    ("src/repro/core/config.py", "CSawConfig.developing_region"):
        "README 'Beyond the paper's evaluation': developing-region preset (paper §8)",
    ("src/repro/core/localdb.py", "LocalDatabase.restore"):
        "README 'Beyond the paper's evaluation': local_DB persistence (snapshot/restore)",
    ("src/repro/analysis/plt_decomposition.py", "render_plt_decomposition"):
        "README 'Quickstart': the PLT decomposition sample",
    ("src/repro/workloads/pilot.py", "pilot_sweep"):
        "README 'Multi-seed sweeps with repro.runner': the pilot sweep sample",
    ("src/repro/workloads/pilot.py", "summarize_sweep"):
        "README 'Multi-seed sweeps with repro.runner': the pilot sweep sample",
    ("src/repro/simnet/simtime.py", "time_eq"):
        "CSL006's message names it as the fix for ==/!= on simulated time",
    ("src/repro/core/fleet.py", "CohortAs.next_pull_at"):
        "decodes the cohort state that tests/_golden.py pins in the plane golden",
    ("src/repro/core/fleet.py", "CohortAs.rows_received"):
        "decodes the cohort state that tests/_golden.py pins in the plane golden",
    ("src/repro/core/fleet.py", "CohortAs.bytes_received"):
        "decodes the cohort state that tests/_golden.py pins in the plane golden",
    ("src/repro/core/measurement.py", "ServedResponse.effective_plt"):
        "decodes the PLT that tests/_golden.py pins in the session golden",
}

Def = Tuple[str, int, str, ast.AST]  # (path, line, qualname, node)
#: name -> the chains of enclosing defs (node ids) it is mentioned under.
Mentions = Dict[str, Set[Tuple[int, ...]]]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module,) + _DEFS)
        and bool(body)
        and isinstance(body[0], ast.Expr)
        and body[0].value is node
    )


def _is_registered(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        name = getattr(decorator, "id", getattr(decorator, "attr", None))
        if name == "register":
            return True
    return False


def _is_all_assignment(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _walk(tree: ast.Module, path: str, defs: List[Def],
          mentions: Mentions) -> None:
    """Record ``tree``'s defs (under the package) and every mention,
    each with the chain of defs it sits inside."""
    in_package = path.startswith(PACKAGE)

    def visit(node: ast.AST, parent: ast.AST, chain: Tuple[int, ...],
              prefix: str) -> None:
        if isinstance(node, _DEFS):
            qualname = prefix + node.name
            if in_package:
                defs.append((path, node.lineno, qualname, node))
            chain = chain + (id(node),)
            prefix = qualname + "."
        elif _is_all_assignment(node):
            return
        elif isinstance(node, ast.Name):
            mentions[node.id].add(chain)
        elif isinstance(node, ast.Attribute):
            mentions[node.attr].add(chain)
        elif isinstance(node, ast.alias):
            if node.asname is not None:
                mentions[node.name.rsplit(".", 1)[-1]].add(chain)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()
              and not _is_docstring(node, parent)):
            mentions[node.value].add(chain)
        for child in ast.iter_child_nodes(node):
            visit(child, node, chain, prefix)

    visit(tree, tree, (), "")


def _unbound_exports(tree: ast.Module, path: str) -> Iterator[str]:
    """``__all__`` entries that name nothing bound at module level."""
    bound: Set[str] = set()
    exports: List[ast.Constant] = []
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, _DEFS):
            bound.add(node.name)
            continue  # names bound inside a def are not module names
        if _is_all_assignment(node):
            exports.extend(
                n for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.split(".", 1)[0])
        stack.extend(ast.iter_child_nodes(node))
    for export in exports:
        if export.value not in bound:
            yield (f"{path}:{export.lineno} __all__ names {export.value!r},"
                   " which the module neither defines nor imports")


def _scan(root: Path = ROOT) -> Tuple[List[Def], Mentions, List[str]]:
    defs: List[Def] = []
    mentions: Mentions = defaultdict(set)
    unbound: List[str] = []
    for top in CALLER_TREES:
        for file in sorted((root / top).rglob("*.py")):
            path = file.relative_to(root).as_posix()
            tree = ast.parse(file.read_text(encoding="utf-8"), path)
            _walk(tree, path, defs, mentions)
            unbound.extend(_unbound_exports(tree, path))
    return defs, mentions, unbound


def _unreached(defs: List[Def], mentions: Mentions) -> Iterator[Def]:
    for path, line, qualname, node in defs:
        name = qualname.rsplit(".", 1)[-1]
        if name.startswith("__") and name.endswith("__"):
            continue
        if _is_registered(node):
            continue
        if any(id(node) not in chain for chain in mentions.get(name, ())):
            continue
        yield path, line, qualname, node


def _readme_gone(allowed: Dict[Tuple[str, str], str],
                 readme: str) -> List[str]:
    """Entries whose reason cites the README although it no longer
    names the def."""
    return [
        f"{path} {qualname}: the README no longer names it"
        for (path, qualname), reason in sorted(allowed.items())
        if reason.startswith("README")
        and not re.search(rf"\b{qualname.rsplit('.', 1)[-1]}\b", readme)
    ]


def test_every_def_is_reached_outside_the_tests():
    defs, mentions, unbound = _scan()
    assert not unbound, "stale __all__ entries:\n  " + "\n  ".join(unbound)
    unreached = list(_unreached(defs, mentions))
    flagged = [
        f"{path}:{line} {qualname}"
        for path, line, qualname, _node in unreached
        if (path, qualname) not in ALLOWED
    ]
    assert not flagged, (
        "defs that no module under src, benchmarks or examples mentions"
        " (delete them, move a reference twin into tests/, or allowlist"
        " documented API with a reason):\n  " + "\n  ".join(flagged)
    )
    defined = {(path, qualname) for path, _line, qualname, _node in defs}
    still_unreached = {(path, qualname) for path, _l, qualname, _n in unreached}
    stale = [
        f"{path} {qualname}: "
        + ("no longer defined" if (path, qualname) not in defined
           else "now reached; drop it from ALLOWED")
        for path, qualname in sorted(ALLOWED)
        if (path, qualname) not in still_unreached
    ]
    stale += _readme_gone(ALLOWED, (ROOT / "README.md").read_text("utf-8"))
    assert not stale, "stale ALLOWED entries:\n  " + "\n  ".join(stale)


# -- the scan itself, over small synthetic trees --------------------------------


def _tree(root: Path, files: Dict[str, str]) -> Path:
    for relpath, source in files.items():
        file = root / relpath
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(source, encoding="utf-8")
    for top in CALLER_TREES:
        (root / top).mkdir(exist_ok=True)
    return root


def _flagged(root: Path) -> List[str]:
    defs, mentions, _unbound = _scan(root)
    return [f"{path}:{line} {qualname}"
            for path, line, qualname, _node in _unreached(defs, mentions)]


def test_an_exported_def_nothing_uses_is_flagged(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/pkg/__init__.py":
            'from .stats import planted, used\n\n'
            '__all__ = ["planted", "used"]\n',
        "src/repro/pkg/stats.py":
            '__all__ = ["planted", "used"]\n\n\n'
            'def planted():\n    return 1\n\n\n'
            'def used():\n    return 2\n',
        "examples/demo.py": "from repro.pkg import used\n\nused()\n",
    })
    assert _flagged(root) == ["src/repro/pkg/stats.py:4 planted"]


def test_a_renaming_import_counts_as_a_use(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/m.py": "def f():\n    return 1\n",
        "benchmarks/bench_m.py": "from repro.m import f as g\n\ng()\n",
    })
    assert _flagged(root) == []


def test_a_string_naming_a_dispatcher_counts(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/runner.py": "def run_seed_sweep(fn):\n    return fn()\n",
        "src/repro/analyze.py":
            '_DISPATCHERS = {"run_seed_sweep": (0, "fn")}\n',
    })
    assert _flagged(root) == []


def test_an_export_of_nothing_is_reported(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/m.py":
            'import os\nfrom .x import y as z\n\n'
            '__all__ = ["f", "os", "z", "K", "gone"]\n'
            'K = 1\n\n\ndef f():\n    return K\n',
    })
    assert _scan(root)[2] == [
        "src/repro/m.py:4 __all__ names 'gone', which the module neither"
        " defines nor imports"
    ]


def test_a_readme_reason_needs_the_readme_to_name_the_def():
    allowed = {
        ("src/repro/a.py", "Client.migrate"): "README 'Beyond': mobility",
        ("src/repro/b.py", "decode"): "decodes what a golden pins",
    }
    assert _readme_gone(allowed, "call `Client.migrate(isp)` to move") == []
    assert _readme_gone(allowed, "clients migrating between ASes") == [
        "src/repro/a.py Client.migrate: the README no longer names it"
    ]
