"""Conservative call graph + worker reachability for ``csaw-analyze``.

Edges come from three resolution strategies, in decreasing precision:

1. **Direct calls** — ``Name(...)`` and dotted ``module.func(...)`` /
   ``Class.method(...)`` chains resolved through the project index
   (imports, re-export facades, class symbol tables).  A call to a
   class adds an edge to its ``__init__`` when one is defined.
2. **Method calls by attribute name** — ``obj.m(...)`` adds an edge to
   *every* class method named ``m`` in the class/attribute map.  This
   is deliberately receiver-type-free: the index has no type inference,
   and for determinism auditing a false edge (over-reachability) is
   safe where a missed edge is not.  Chains whose root is an imported
   module that resolves to nothing in the project (``os.path.join``)
   are external and add no edge.
3. **Callable arguments to worker dispatchers** — a function passed
   where the trial runner or an executor will call it in a *different
   process* is both an edge and a **worker entrypoint**:
   ``TrialSpec(name, fn, ...)`` / ``TrialSpec(fn=...)``,
   ``run_seed_sweep(fn, ...)``, and ``<obj>.map(fn, ...)`` /
   ``<obj>.submit(fn, ...)`` (``ProcessPoolExecutor``).  Extra
   dispatcher names can be added via the ``worker-dispatchers`` option
   in ``[tool.csawanalyze.options]`` (first positional argument
   semantics) — e.g. ``run_fleet_storm_sharded`` if callers start
   passing callables into it.

The **worker-reachable set** is the forward closure over these edges
from the worker entrypoints; every CSA rule that audits shard safety
(CSA101/CSA102) evaluates against it.  Cycles are tolerated (plain
BFS), and each reachable function records the entrypoint that first
reached it so findings can name a concrete worker path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..framework import attr_chain
from .index import FunctionInfo, ModuleInfo, ProjectIndex

__all__ = ["CallGraph", "build_call_graph"]

#: name -> index of the positional callable argument (None = keyword only)
_DISPATCHERS: Dict[str, Tuple[Optional[int], Optional[str]]] = {
    "TrialSpec": (1, "fn"),
    "run_seed_sweep": (0, "fn"),
}
#: attribute-call dispatchers (executor/pool style): first positional arg
_ATTR_DISPATCHERS = {"map", "submit"}


@dataclass
class CallGraph:
    """Edges, worker entrypoints, and the reachability closure."""

    index: ProjectIndex
    #: caller qualname -> {callee qualname -> first call-site lineno}
    edges: Dict[str, Dict[str, int]] = field(default_factory=dict)
    worker_entrypoints: Dict[str, int] = field(default_factory=dict)
    #: reachable qualname -> entrypoint qualname that first reached it
    worker_reachable: Dict[str, str] = field(default_factory=dict)

    def add_edge(self, caller: str, callee: str, lineno: int) -> None:
        callees = self.edges.setdefault(caller, {})
        if callee not in callees:
            callees[callee] = lineno

    def callees(self, qualname: str) -> Dict[str, int]:
        return self.edges.get(qualname, {})

    def callers_of(self) -> Dict[str, List[str]]:
        """Reverse adjacency (sorted), for backward taint propagation."""
        reverse: Dict[str, List[str]] = {}
        for caller in sorted(self.edges):
            for callee in sorted(self.edges[caller]):
                reverse.setdefault(callee, []).append(caller)
        return reverse

    def compute_reachability(self) -> None:
        reached: Dict[str, str] = {}
        queue: List[str] = []
        for entry in sorted(self.worker_entrypoints):
            if entry not in reached:
                reached[entry] = entry
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            origin = reached[current]
            for callee in sorted(self.edges.get(current, {})):
                if callee in reached or callee not in self.index.functions:
                    continue
                reached[callee] = origin
                queue.append(callee)
        self.worker_reachable = reached

    def to_json(self) -> Dict[str, object]:
        """Stable-order summary for ``csaw-analyze graph``."""
        return {
            "modules": sorted(self.index.modules),
            "n_functions": len(self.index.functions),
            "n_edges": sum(len(c) for c in self.edges.values()),
            "edges": {
                caller: sorted(self.edges[caller])
                for caller in sorted(self.edges)
            },
            "worker_entrypoints": sorted(self.worker_entrypoints),
            "worker_reachable": sorted(self.worker_reachable),
        }


def _binding_names(target: ast.AST) -> Set[str]:
    """Names a binding target actually binds.

    ``x = ...`` binds ``x``; ``(a, *b), c = ...`` binds a/b/c — but
    ``CACHE[k] = ...`` and ``obj.attr = ...`` bind *nothing*: they
    mutate an existing object, which is exactly the distinction the
    shared-state rules rest on.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for elt in target.elts:
            names |= _binding_names(elt)
        return names
    return set()


def _local_names(fn_node: ast.AST) -> Set[str]:
    """Names bound locally in a function (params, assignments, loops...).

    Used to keep a local rebinding of a name from being mistaken for a
    reference to a module-level global of the same name.  ``global``
    declarations subtract from the local set.
    """
    names: Set[str] = set()
    globals_declared: Set[str] = set()
    args = fn_node.args  # type: ignore[attr-defined]
    for arg in (
        list(getattr(args, "posonlyargs", []))
        + args.args
        + args.kwonlyargs
        + [a for a in (args.vararg, args.kwarg) if a is not None]
    ):
        names.add(arg.arg)
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                names |= _binding_names(target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names |= _binding_names(node.target)
        elif isinstance(node, ast.comprehension):
            names |= _binding_names(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names |= _binding_names(item.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn_node:
                names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".", 1)[0])
    return names - globals_declared


def _resolve_callable_arg(
    index: ProjectIndex, module: ModuleInfo, node: ast.AST
) -> Optional[str]:
    """Qualname of a function/class passed as a callable argument."""
    chain = attr_chain(node)
    if chain is None:
        return None
    resolved = index.resolve(module, chain)
    if resolved is None:
        return None
    if resolved in index.functions:
        return resolved
    cls = index.classes.get(resolved)
    if cls is not None:
        return cls.methods.get("__init__", resolved)
    return None


def build_call_graph(
    index: ProjectIndex, extra_dispatchers: Iterable[str] = ()
) -> CallGraph:
    """Build edges + entrypoints for every indexed function."""
    graph = CallGraph(index=index)
    dispatchers = dict(_DISPATCHERS)
    for name in extra_dispatchers:
        dispatchers[str(name)] = (0, "fn")
    for qualname in sorted(index.functions):
        info = index.functions[qualname]
        module = index.modules[info.module]
        _collect_edges(graph, info, module, dispatchers)
    graph.compute_reachability()
    return graph


def _collect_edges(
    graph: CallGraph,
    info: FunctionInfo,
    module: ModuleInfo,
    dispatchers: Dict[str, Tuple[Optional[int], Optional[str]]],
) -> None:
    index = graph.index
    locals_ = _local_names(info.node)
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        callee_name = chain[-1] if chain else None
        resolved: Optional[str] = None
        if chain is not None:
            if len(chain) == 1 and chain[0] in locals_:
                resolved = None  # a local callable; handled by fold/dispatch
            else:
                resolved = index.resolve(module, chain)
            if resolved is not None:
                target = resolved
                cls = index.classes.get(target)
                if cls is not None:
                    init = cls.methods.get("__init__")
                    target = init if init is not None else None
                if target is not None and target in index.functions:
                    graph.add_edge(info.qualname, target, node.lineno)
            elif (
                len(chain) > 1
                and chain[0] not in locals_
                and chain[0] in module.imports
                and index.resolve(module, chain[:1]) is None
            ):
                # Rooted at an external module (os., json., ...): no
                # project edge, and no method fan-out either.
                pass
            elif len(chain) > 1 and callee_name:
                # Method call on an object: fan out by attribute name
                # over the class map.
                for method in index.methods_by_name.get(callee_name, ()):
                    graph.add_edge(info.qualname, method, node.lineno)
        # Worker-dispatcher callable arguments.
        if callee_name is None:
            continue
        spec: Optional[Tuple[Optional[int], Optional[str]]] = None
        if callee_name in dispatchers and (
            chain is not None and (len(chain) == 1 or resolved is not None)
        ):
            spec = dispatchers[callee_name]
        elif (
            callee_name in _ATTR_DISPATCHERS
            and chain is not None
            and len(chain) > 1
        ):
            spec = (0, None)
        if spec is None:
            continue
        pos, kw = spec
        candidates: List[ast.AST] = []
        if pos is not None and len(node.args) > pos:
            candidates.append(node.args[pos])
        if kw is not None:
            for keyword in node.keywords:
                if keyword.arg == kw:
                    candidates.append(keyword.value)
        for candidate in candidates:
            target = _resolve_callable_arg(index, module, candidate)
            if target is None or target not in index.functions:
                continue
            graph.add_edge(info.qualname, target, node.lineno)
            graph.worker_entrypoints.setdefault(target, node.lineno)
