"""The whole-program rule catalogue (CSA101–CSA105).

Where the CSL rules prove invariants one module at a time, these rules
run over the whole-program :class:`~.index.ProjectIndex` and
:class:`~.callgraph.CallGraph` and catch the class of determinism bug
that lives *between* modules: shared state reaching a process-pool
worker through three layers of helpers, two packages registering the
same RNG stream name, a set materialized into a public return value by
a function whose set-ness is only visible in another module.

Every rule is conservative in the same direction as the call graph:
over-approximate reachability, under-approximate safety.  A finding is
silenced with ``# csaw-analyze: disable=CSA10X`` (the one inline
grammar for every code) or per-file ``allow`` globs under
``[tool.csawanalyze]``; any other finding fails CI.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Collection, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..config import ToolConfig
from ..framework import ProjectRule, Violation, attr_chain, register
from ..rules import (
    AMBIENT_MODULES,
    ORDER_FREE_REDUCERS,
    SetTracker,
    WallClockRule,
    ambient_sink,
)
from .callgraph import CallGraph, _local_names
from .index import ModuleInfo, ProjectIndex

__all__ = ["Project"]


@dataclass
class Project:
    """Everything a whole-program rule needs."""

    index: ProjectIndex
    graph: CallGraph
    config: ToolConfig


#: method names that mutate their receiver in place
_MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popitem",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}


#: The option the call-graph builder reads (extra dispatcher names),
#: declared by each rule that walks the graph: CSA101–CSA103.
_GRAPH_OPTIONS = ("worker-dispatchers",)


def _fmt_path(path: Sequence[str]) -> str:
    if len(path) > 5:
        path = list(path[:2]) + ["..."] + list(path[-2:])
    return " -> ".join(path)


# -- CSA101: worker-reachable writes to module-level mutable state -------------


@register
class WorkerSharedStateRule(ProjectRule):
    """Module-level mutable state written by worker-reachable code.

    :func:`repro.runner.run_trials` ships trial callables to
    ``ProcessPoolExecutor`` workers; any function reachable from such an
    entrypoint that writes a module-level dict/list/set (or a mutable
    class attribute, or rebinds a ``global``) makes the trial's result
    depend on what else ran in the same worker — the classic
    shard-count/scheduling hazard no per-file rule can see, because the
    write and the dispatch usually live in different modules.  Fix by
    passing state in explicitly; for provably idempotent memoization
    prefer ``functools.lru_cache`` on a pure function, or suppress with
    a comment stating why the write is order-free.
    """

    code = "CSA101"
    name = "no-worker-global-state"
    message = "module-level mutable state written in worker-reachable code"
    option_keys = _GRAPH_OPTIONS

    def check(self, project: Project) -> Iterator[Violation]:
        index, graph = project.index, project.graph
        for qualname in sorted(graph.worker_reachable):
            fn = index.functions.get(qualname)
            if fn is None:
                continue
            module = index.modules[fn.module]
            if not self.applies_to(module.relpath):
                continue
            entry = graph.worker_reachable[qualname]
            for node, state, how in _iter_global_writes(fn.node, module, index):
                yield self.finding(
                    module,
                    node,
                    f"{how} of module-level mutable state {state} in "
                    f"{fn.qualname}, which is worker-reachable from "
                    f"{entry} (shard-determinism hazard: ships to "
                    "ProcessPoolExecutor workers); thread the state "
                    "through the trial instead",
                )


def _iter_global_writes(
    fn_node: ast.AST, module: ModuleInfo, index: ProjectIndex
) -> Iterator[Tuple[ast.AST, str, str]]:
    """(site, state qualname, verb) for writes to module/class state."""
    locals_ = _local_names(fn_node)
    global_decls: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)

    def resolve_state(value: ast.AST) -> Optional[str]:
        """Qualname of the module global / mutable class attr a chain
        denotes, or None for locals and unknowns."""
        chain = attr_chain(value)
        if chain is None or chain[0] in locals_:
            return None
        resolved = index.resolve(module, chain)
        if resolved is None:
            return None
        info = index.module_globals.get(resolved)
        if info is not None and info.mutable:
            return info.qualname
        cls = index.classes.get(resolved)
        if cls is not None and len(chain) >= 2:
            attr = chain[-1]
            if attr in cls.mutable_attrs:
                return f"{cls.qualname}.{attr}"
        return None

    for node in ast.walk(fn_node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in global_decls:
                        qual = module.globals.get(
                            target.id, f"{module.name}.{target.id}"
                        )
                        yield node, qual, "global rebinding"
                elif isinstance(target, (ast.Subscript,)):
                    state = resolve_state(target.value)
                    if state is not None:
                        yield node, state, "item assignment"
                elif isinstance(target, ast.Attribute):
                    chain = attr_chain(target)
                    if chain is None or chain[0] in locals_:
                        continue
                    resolved = index.resolve(module, chain[:-1])
                    if resolved in index.classes:
                        yield (
                            node,
                            f"{resolved}.{chain[-1]}",
                            "class-attribute assignment",
                        )
                    else:
                        state = resolve_state(target)
                        if state is not None:
                            yield node, state, "attribute assignment"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    state = resolve_state(
                        target.value
                        if isinstance(target, ast.Subscript)
                        else target
                    )
                    if state is not None:
                        yield node, state, "deletion"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                state = resolve_state(func.value)
                if state is not None:
                    yield node, state, f".{func.attr}() mutation"


# -- CSA102: RngRegistry stream-name registry ----------------------------------


@register
class RngStreamRegistryRule(ProjectRule):
    """Cross-module audit of the named-RNG-stream registry.

    Three hazards around ``RngRegistry.stream(name)``:

    - **collision** — two modules registering the same stream name on a
      shared registry interleave their draw sequences: refactoring one
      module silently changes the other's numbers.  (Streams taken from
      a ``fork()``-ed child registry are per-entity namespaces and are
      exempt.)
    - **dynamic name** — a stream name computed from non-constant parts
      (no literal, no threaded parameter, no constant prefix/suffix)
      cannot be audited for collisions at all.
    - **constant seed in worker code** — ``RngRegistry(seed=<const>)``
      or ``random.Random(<const>)`` inside worker-reachable code gives
      every trial the identical draw sequence; derive the seed from the
      trial identity via :func:`repro.runner.derive_seed`.
    """

    code = "CSA102"
    name = "rng-stream-registry"
    message = "RngRegistry stream-name hazard"
    option_keys = _GRAPH_OPTIONS

    def check(self, project: Project) -> Iterator[Violation]:
        index, graph = project.index, project.graph
        registrations: Dict[str, List[Tuple[str, ModuleInfo, ast.AST]]] = {}
        for qualname in sorted(index.functions):
            fn = index.functions[qualname]
            module = index.modules[fn.module]
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute) and func.attr == "stream"):
                    continue
                if _is_forked_receiver(func.value):
                    continue
                if len(node.args) != 1 or node.keywords:
                    continue
                key, dynamic = _stream_name_key(node.args[0])
                if dynamic and self.applies_to(module.relpath):
                    yield self.finding(
                        module,
                        node,
                        "dynamically computed RNG stream name defeats the "
                        "collision audit: use a literal, a threaded "
                        "parameter, or a constant prefix",
                    )
                elif key is not None:
                    registrations.setdefault(key, []).append(
                        (module.name, module, node)
                    )
        for key in sorted(registrations):
            sites = registrations[key]
            modules_used = sorted({name for name, _, _ in sites})
            if len(modules_used) < 2:
                continue
            for name, module, node in sites:
                if not self.applies_to(module.relpath):
                    continue
                others = ", ".join(m for m in modules_used if m != name)
                yield self.finding(
                    module,
                    node,
                    f"RNG stream name {key!r} is also registered in "
                    f"{others}: shared streams couple draw sequences "
                    "across modules — namespace the name",
                )
        yield from self._constant_seeds(project)

    def _constant_seeds(self, project: Project) -> Iterator[Violation]:
        index, graph = project.index, project.graph
        for qualname in sorted(graph.worker_reachable):
            fn = index.functions.get(qualname)
            if fn is None:
                continue
            module = index.modules[fn.module]
            if not self.applies_to(module.relpath):
                continue
            random_aliases = module.module_aliases.get("random", ())
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                if chain is None:
                    continue
                is_registry = chain[-1] == "RngRegistry"
                is_random = (
                    len(chain) == 2
                    and chain[0] in random_aliases
                    and chain[1] == "Random"
                ) or (
                    len(chain) == 1
                    and module.imports.get(chain[0]) == "random.Random"
                )
                if not (is_registry or is_random):
                    continue
                seed_arg: Optional[ast.AST] = None
                if node.args:
                    seed_arg = node.args[0]
                for kw in node.keywords:
                    if kw.arg == "seed":
                        seed_arg = kw.value
                if isinstance(seed_arg, ast.Constant) and isinstance(
                    seed_arg.value, (int, float, str)
                ):
                    entry = project.graph.worker_reachable[qualname]
                    yield self.finding(
                        module,
                        node,
                        f"constant-seeded RNG in {fn.qualname}, which is "
                        f"worker-reachable from {entry}: every trial draws "
                        "the identical sequence — derive the seed from the "
                        "trial identity via repro.runner.derive_seed",
                    )


def _is_forked_receiver(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fork"
    )


def _stream_name_key(arg: ast.AST) -> Tuple[Optional[str], bool]:
    """(registry key, is_dynamic) for a stream-name argument."""
    if isinstance(arg, ast.Constant):
        if isinstance(arg.value, str):
            return arg.value, False
        return None, True
    if isinstance(arg, (ast.Name, ast.Attribute)):
        return None, False  # threaded: the literal registers at the caller
    if isinstance(arg, ast.JoinedStr):
        if (
            arg.values
            and isinstance(arg.values[0], ast.Constant)
            and isinstance(arg.values[0].value, str)
            and arg.values[0].value
        ):
            return f"{arg.values[0].value}*", False
        return None, True
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
        left_const = isinstance(arg.left, ast.Constant) and isinstance(
            arg.left.value, str
        )
        right_const = isinstance(arg.right, ast.Constant) and isinstance(
            arg.right.value, str
        )
        if left_const or right_const:
            return None, False  # constant prefix/suffix on a threaded name
        return None, True
    return None, True


# -- CSA103: ambient-state escape through helper layers ------------------------


@register
class AmbientEscapeRule(ProjectRule):
    """Transitive reach into CSL001/CSL002-banned sinks.

    The per-file rules flag a ``random.random()`` or ``time.time()``
    *at its own site* — but cannot see simulation code calling a helper
    in another module that calls the sink.  This rule propagates sink
    taint backwards over the call graph and flags every function that
    reaches an ambient-randomness or wall-clock sink through at least
    one call edge.  Files on CSL002's effective allowlist (the trial
    runner, which times real execution, the CLI, which records pack
    runtimes, and the benchmarks) are *sanctioned sources*: sinks there
    neither taint callers nor get reported.
    """

    code = "CSA103"
    name = "no-ambient-escape"
    message = "transitively reaches an ambient-randomness/wall-clock sink"
    option_keys = _GRAPH_OPTIONS

    def check(self, project: Project) -> Iterator[Violation]:
        index, graph = project.index, project.graph
        sanctioned = WallClockRule.configured(project.config)

        def covered(module: ModuleInfo) -> bool:
            return self.applies_to(module.relpath) and not sanctioned.allowed(
                module.relpath
            )

        sink_desc: Dict[str, str] = {}
        for qualname in sorted(index.functions):
            fn = index.functions[qualname]
            module = index.modules[fn.module]
            if covered(module):
                desc = _direct_sink(fn.node, module)
                if desc is not None:
                    sink_desc[qualname] = desc
        # Backward taint over the call graph; next_hop reconstructs a
        # concrete escape path for the message.
        tainted: Dict[str, str] = dict(sink_desc)
        next_hop: Dict[str, str] = {}
        reverse = graph.callers_of()
        queue = sorted(sink_desc)
        while queue:
            current = queue.pop(0)
            for caller in reverse.get(current, ()):
                if caller in tainted or caller not in index.functions:
                    continue
                tainted[caller] = tainted[current]
                next_hop[caller] = current
                queue.append(caller)
        for qualname in sorted(tainted):
            if qualname in sink_desc:
                continue  # the direct site is CSL001/CSL002's finding
            fn = index.functions[qualname]
            module = index.modules[fn.module]
            if not covered(module):
                continue
            hop = next_hop[qualname]
            path = [qualname]
            while path[-1] in next_hop:
                path.append(next_hop[path[-1]])
            lineno = graph.callees(qualname).get(hop, fn.lineno)
            site = ast.Module(body=[], type_ignores=[])
            site.lineno = lineno  # type: ignore[attr-defined]
            site.col_offset = 0  # type: ignore[attr-defined]
            yield self.finding(
                module,
                site,
                f"{fn.qualname} transitively reaches {tainted[qualname]} "
                f"via {_fmt_path(path)}: ambient state escapes through "
                "helper layers the per-file rules cannot follow",
            )


def _direct_sink(fn_node: ast.AST, module: ModuleInfo) -> Optional[str]:
    """Description of the first ambient sink a function calls, or None."""
    if not any(
        name in module.module_aliases or name in module.from_imports
        for name in AMBIENT_MODULES
    ):
        return None
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        sink = None if chain is None else ambient_sink(module, chain)
        if sink is not None:
            kind, callee = sink
            what = "ambient-randomness" if kind == "random" else "wall-clock"
            return f"{what} sink {callee}()"
    return None


# -- CSA104: frozen-spec mutation ----------------------------------------------


@register
class FrozenSpecMutationRule(ProjectRule):
    """Attribute writes on ScenarioSpec-subtree parameters.

    The scenario DSL's soundness rests on specs being values: the
    compiler may be called any number of times on the same spec and
    must assemble the same world.  A function that assigns into a
    parameter typed as a spec-tree class (or mutates one of its
    list/dict attributes) turns the declarative layer back into shared
    state.  The spec classes come from ``repro.scenarios.spec`` by
    default; override with ``spec-modules`` in
    ``[tool.csawanalyze.options]``.
    """

    code = "CSA104"
    name = "no-frozen-spec-mutation"
    message = "mutation of a ScenarioSpec-subtree parameter"
    option_keys = ("spec-modules",)

    _DEFAULT_SPEC_MODULES = ("repro.scenarios.spec",)

    def check(self, project: Project) -> Iterator[Violation]:
        index = project.index
        spec_modules = tuple(
            project.config.options.get("spec-modules", self._DEFAULT_SPEC_MODULES)
        )
        spec_classes = {
            cls.name
            for cls in index.classes.values()
            if cls.module in spec_modules
        }
        spec_classes.add("ScenarioSpec")
        for qualname in sorted(index.functions):
            fn = index.functions[qualname]
            module = index.modules[fn.module]
            if not self.applies_to(module.relpath):
                continue
            roots = {
                param
                for param, annotation in fn.params.items()
                if any(name in spec_classes for name in annotation)
            }
            if not roots:
                continue
            for node, detail in _iter_param_mutations(fn.node, roots):
                yield self.finding(
                    module,
                    node,
                    f"{detail} on spec parameter in {fn.qualname}: specs "
                    "are frozen values — build a new spec "
                    "(dataclasses.replace) or extend the compiler",
                )


def _iter_param_mutations(
    fn_node: ast.AST, roots: Set[str]
) -> Iterator[Tuple[ast.AST, str]]:
    def rooted(value: ast.AST) -> bool:
        chain = attr_chain(value)
        return chain is not None and len(chain) >= 2 and chain[0] in roots

    for node in ast.walk(fn_node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and rooted(target):
                    yield node, "attribute assignment"
                elif isinstance(target, ast.Subscript) and rooted(target.value):
                    yield node, "item assignment"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and rooted(
                    target if isinstance(target, ast.Attribute) else target.value
                ):
                    yield node, "deletion"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and rooted(func.value)
            ):
                yield node, f".{func.attr}() mutation"


# -- CSA105: unordered results escaping public functions -----------------------


@register
class UnorderedPublicResultRule(ProjectRule):
    """Set iteration order materialized into public return values.

    CSL003 tracks set-ness *within one file*; it cannot know
    that ``helpers.candidates()`` three modules away returns a set.
    This rule computes the returns-a-set property interprocedurally
    (annotations + returned expressions, to a fixpoint over the call
    graph) and flags public ``repro.*`` functions whose return value
    materializes the order of such a set (``list()``/``tuple()``/
    ``join``/comprehensions, dict-built-over-set).  It also flags a
    ``for`` over such a set, in any function, whose order outlives the
    call: the loop fills a local list that the function then returns
    or stores unsorted, or its body changes state outside the function
    (calls a method on ``self`` or a parameter, or stores to or deletes
    an attribute or subscript).  Only call-sourced set-ness is flagged —
    purely local cases are CSL003's findings.
    """

    code = "CSA105"
    name = "no-unordered-public-results"
    message = "public return value materializes hash order of a set"

    def check(self, project: Project) -> Iterator[Violation]:
        index = project.index
        returns_set = _returns_set_fixpoint(index)
        for qualname in sorted(index.functions):
            fn = index.functions[qualname]
            module = index.modules[fn.module]
            if not self.applies_to(module.relpath):
                continue
            if fn.is_public:
                for node, source in _iter_ordered_escapes(
                    fn.node, module, index, returns_set
                ):
                    yield self.finding(
                        module,
                        node,
                        f"return value of public {fn.qualname} materializes "
                        f"the iteration order of a set produced by {source} "
                        "(invisible to per-file CSL003): sort it first",
                    )
            tracker = _CallSetTracker(module, index, returns_set)
            for node, source, how in tracker.loop_escapes(fn.node, fn.params):
                yield self.finding(
                    module,
                    node,
                    f"{fn.qualname} iterates a set produced by {source} and "
                    f"{how} (invisible to per-file CSL003): sort it first",
                )


_SET_ANNOTATIONS = {"Set", "set", "frozenset", "FrozenSet", "AbstractSet",
                    "MutableSet"}
_ORDER_MATERIALIZERS = {"list", "tuple"}


class _CallSetTracker(SetTracker):
    """CSL003's set tracking plus set-ness sourced from project calls."""

    def __init__(
        self,
        module: ModuleInfo,
        index: ProjectIndex,
        returns_set: Set[str],
    ):
        super().__init__()
        self.module = module
        self.index = index
        self.returns_set = returns_set

    def call_source(self, call: ast.Call) -> Optional[str]:
        chain = attr_chain(call.func)
        if chain is None:
            return None
        resolved = self.index.resolve(self.module, chain)
        if resolved is not None and resolved in self.returns_set:
            return resolved
        if resolved is None and len(chain) > 1:
            # obj.method(): accept only an unambiguous method-name match
            # to keep the conservative fan-out from flooding this rule.
            methods = self.index.methods_by_name.get(chain[-1], [])
            if len(methods) == 1 and methods[0] in self.returns_set:
                return methods[0]
        return None

    def returns(self, fn_node: ast.AST) -> Iterator[ast.expr]:
        """Returned expressions, each with the tracking state at its return.

        Nested function/class bodies are skipped (their returns are
        their own).
        """
        for stmt in self.walk(fn_node.body):  # type: ignore[attr-defined]
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                yield stmt.value

    def loop_escapes(
        self, fn_node: ast.AST, params: Collection[str]
    ) -> Iterator[Tuple[ast.AST, str, str]]:
        """``(loop, source, how)`` per ``for`` over a call-returned set
        whose order outlives the call: its body changes state outside
        the function, or it fills a local list that a later statement
        returns or stores before sorting or rebinding it."""
        filled: Dict[str, Tuple[ast.AST, str]] = {}
        reported: Set[int] = set()
        for stmt in self.walk(fn_node.body):  # type: ignore[attr-defined]
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                is_set, source = self.set_likeness(stmt.iter)
                if is_set and source:
                    if _changes_outside(stmt.body, params):
                        yield stmt, source, (
                            "changes state outside the function in its order"
                        )
                        continue
                    for name in _filled_lists(stmt.body):
                        filled[name] = (stmt, source)
            if not filled:
                continue
            escape = _escape_of(stmt)
            if escape is not None:
                value, verb = escape
                for name in sorted(_ordered_names(value) & filled.keys()):
                    loop, source = filled.pop(name)
                    if id(loop) not in reported:
                        reported.add(id(loop))
                        yield loop, source, (
                            f"{verb} list {name!r} filled in its order"
                        )
            for name in _reordered_names(stmt):
                filled.pop(name, None)


_LIST_FILLERS = {"append", "appendleft", "extend", "extendleft", "insert"}
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _scope_nodes(stmts: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Every node under ``stmts``, nested function and class bodies
    excluded (their effects are their own)."""
    stack: List[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, _NESTED_SCOPES)
        )


def _writes_outside(node: ast.AST) -> bool:
    """Whether ``node`` stores to or deletes an attribute or a subscript."""
    return isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
        node.ctx, (ast.Store, ast.Del)
    )


def _changes_outside(body: Sequence[ast.stmt], params: Collection[str]) -> bool:
    """Whether a loop body reaches state the function does not own: a
    method call on ``self`` or another parameter, or a store to or
    deletion of an attribute or a subscript."""
    for node in _scope_nodes(body):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            chain = attr_chain(node.func)
            if chain is not None and chain[0] in params:
                return True
        elif _writes_outside(node):
            return True
    return False


def _escape_of(stmt: ast.stmt) -> Optional[Tuple[Optional[ast.AST], str]]:
    """``(value, verb)`` when ``stmt`` returns a value or stores it to an
    attribute or a subscript; None otherwise."""
    if isinstance(stmt, ast.Return):
        return stmt.value, "returns"
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return None
    if any(_writes_outside(node) for t in targets for node in ast.walk(t)):
        return stmt.value, "stores"
    return None


def _reordered_names(stmt: ast.stmt) -> List[str]:
    """Names ``stmt`` rebinds (``x = ...``) or sorts in place
    (``x.sort()``): after it, a filled list no longer holds set order."""
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    if (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr == "sort"
        and isinstance(stmt.value.func.value, ast.Name)
    ):
        return [stmt.value.func.value.id]
    return []


def _filled_lists(body: Sequence[ast.stmt]) -> List[str]:
    """Local names a loop body appends, extends or inserts into."""
    names: List[str] = []
    for node in _scope_nodes(body):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LIST_FILLERS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id not in names
        ):
            names.append(node.func.value.id)
    return names


def _ordered_names(node: Optional[ast.AST]) -> Set[str]:
    """Names read in ``node`` outside the arguments of an order-free
    reducer (``sorted``, ``len``, ``set``...), whose result does not
    carry their order."""
    names: Set[str] = set()
    stack = [node] if node is not None else []
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Name):
            names.add(current.id)
        elif not (
            isinstance(current, ast.Call)
            and isinstance(current.func, ast.Name)
            and current.func.id in ORDER_FREE_REDUCERS
        ):
            stack.extend(ast.iter_child_nodes(current))
    return names


def _function_returns_set(
    fn_node: ast.AST,
    module: ModuleInfo,
    index: ProjectIndex,
    returns_set: Set[str],
) -> bool:
    tracker = _CallSetTracker(module, index, returns_set)
    return any(tracker.is_set(value) for value in tracker.returns(fn_node))


def _returns_set_fixpoint(index: ProjectIndex) -> Set[str]:
    returns_set: Set[str] = {
        qualname
        for qualname, fn in index.functions.items()
        if any(name in _SET_ANNOTATIONS for name in fn.return_annotation)
    }
    changed = True
    rounds = 0
    while changed and rounds < len(index.functions) + 1:
        changed = False
        rounds += 1
        for qualname in sorted(index.functions):
            if qualname in returns_set:
                continue
            fn = index.functions[qualname]
            module = index.modules[fn.module]
            if _function_returns_set(fn.node, module, index, returns_set):
                returns_set.add(qualname)
                changed = True
    return returns_set


def _iter_ordered_escapes(
    fn_node: ast.AST,
    module: ModuleInfo,
    index: ProjectIndex,
    returns_set: Set[str],
) -> Iterator[Tuple[ast.AST, str]]:
    tracker = _CallSetTracker(module, index, returns_set)
    for value in tracker.returns(fn_node):
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                func = node.func
                is_materializer = (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_MATERIALIZERS
                ) or (isinstance(func, ast.Attribute) and func.attr == "join")
                if is_materializer and node.args:
                    is_set, source = tracker.set_likeness(node.args[0])
                    if is_set and source:
                        yield node, source
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                for gen in node.generators:
                    is_set, source = tracker.set_likeness(gen.iter)
                    if is_set and source:
                        yield node, source
