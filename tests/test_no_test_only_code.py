"""Every def under ``src/repro`` is reached from outside the tests.

Production code that only tests call costs reading and upkeep and
proves nothing about what a workload runs; reference twins belong in
``tests/`` (``tests/_reference_*.py``).  This guard parses ``src``,
``benchmarks`` and ``examples`` with :mod:`ast` alone (it imports
nothing from ``repro``) and fails, naming ``path:line Qualname``, on
each function, method or class under ``src/repro`` that none of them
*mentions* outside the def's own body.  A mention is a name, an
attribute, an imported name, or a string constant equal to the name
that is not a docstring.  Dunders are exempt (the interpreter calls
them), and so are ``@register`` classes (the analyzer reaches its rules
through the registry).

``ALLOWED`` lists the few defs that the README documents as API for
readers to call, or that decode state a golden pins, each with its
reason.  An entry that is reached, or that names no def, fails the
guard too, so the list only shrinks.

Blind spot: the scan goes by name, not by binding.  A dead def that
shares its name with a live one (two classes' ``stats``, say) counts
as reached, and so does a getter whose only mention is the name of a
same-named def.  Deleting code by name alone is therefore safe, but a
pass here does not prove that every def is live.
"""

import ast
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
    ("src/repro/core/config.py", "CSawConfig.developing_region"):
        "README 'Beyond the paper's evaluation': developing-region preset (paper §8)",
    ("src/repro/core/localdb.py", "LocalDatabase.restore"):
        "README 'Beyond the paper's evaluation': local_DB persistence (snapshot/restore)",
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


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                            ast.AsyncFunctionDef))
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


def _walk(tree: ast.Module, path: str, defs: List[Def],
          mentions: Mentions) -> None:
    """Record ``tree``'s defs (under the package) and every mention,
    each with the chain of defs it sits inside."""
    in_package = path.startswith(PACKAGE)

    def visit(node: ast.AST, parent: ast.AST, chain: Tuple[int, ...],
              prefix: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = prefix + node.name
            if in_package:
                defs.append((path, node.lineno, qualname, node))
            chain = chain + (id(node),)
            prefix = qualname + "."
        elif isinstance(node, ast.Name):
            mentions[node.id].add(chain)
        elif isinstance(node, ast.Attribute):
            mentions[node.attr].add(chain)
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                mentions[part].add(chain)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()
              and not _is_docstring(node, parent)):
            mentions[node.value].add(chain)
        for child in ast.iter_child_nodes(node):
            visit(child, node, chain, prefix)

    visit(tree, tree, (), "")


def _scan() -> Tuple[List[Def], Mentions]:
    defs: List[Def] = []
    mentions: Mentions = defaultdict(set)
    for top in CALLER_TREES:
        for file in sorted((ROOT / top).rglob("*.py")):
            path = file.relative_to(ROOT).as_posix()
            tree = ast.parse(file.read_text(encoding="utf-8"), path)
            _walk(tree, path, defs, mentions)
    return defs, mentions


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


def test_every_def_is_reached_outside_the_tests():
    defs, mentions = _scan()
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
    assert not stale, "stale ALLOWED entries:\n  " + "\n  ".join(stale)
