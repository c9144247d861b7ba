"""The per-file rule catalogue (CSL001–CSL004, CSL006–CSL008).

Each rule encodes one determinism/purity invariant the paper's numbers
depend on (DESIGN.md §7 maps rules to figures).  All rules are
AST-local and deliberately conservative: they prove what they can from
one module and leave cross-module dataflow to the whole-program CSA
rules and the regression tests, so a finding is near-always a true
positive and every rule can be enforced at zero rather than advisory.

Two detectors here are shared with the CSA rules: :func:`ambient_sink`
(the random/time/datetime sinks behind CSL001, CSL002 and CSA103) and
:class:`SetTracker` (the statement-ordered set-ness tracking behind
CSL003 and CSA105).
"""

from __future__ import annotations

import ast
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .framework import LintContext, Rule, Violation, attr_chain, register

if TYPE_CHECKING:  # pragma: no cover
    from .analyze.index import ModuleInfo

__all__ = ["ORDER_FREE_REDUCERS", "SetTracker", "ambient_sink"]


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# -- ambient sinks (CSL001, CSL002, CSA103) ------------------------------------

_TIME_FUNCS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock",
}
_DATETIME_FUNCS = {"now", "utcnow", "today"}
_DATETIME_CLASSES = {"datetime", "date"}
#: modules whose imports make a module worth scanning for sinks
AMBIENT_MODULES = ("random", "time", "datetime")


def ambient_sink(
    module: "ModuleInfo", chain: Sequence[str]
) -> Optional[Tuple[str, str]]:
    """``(kind, callee)`` when a call chain reads ambient state, else None.

    ``kind`` is ``"random"`` (an interpreter-global ``random.*`` draw),
    ``"time"`` or ``"datetime"`` (a wall-clock read); ``callee`` names
    the sink for messages.  One-name chains are calls of a
    ``from random/time import ...`` binding; ``random.Random`` is the
    seedable class, never a sink.  Built on the module's import tables,
    which the index builds once per module.
    """
    root, leaf = chain[0], chain[-1]
    if len(chain) == 1:
        if root in _TIME_FUNCS and root in module.from_imports.get("time", ()):
            return "time", f"time.{root}"
        if root != "Random" and root in module.from_imports.get("random", ()):
            return "random", f"random.{root}"
        return None
    aliases = module.module_aliases
    if len(chain) == 2 and root in aliases.get("random", ()) and leaf != "Random":
        return "random", f"random.{leaf}"
    if root in aliases.get("time", ()) and leaf in _TIME_FUNCS:
        return "time", f"time.{leaf}"
    if leaf in _DATETIME_FUNCS and (
        (
            len(chain) == 2
            and root in _DATETIME_CLASSES
            and root in module.from_imports.get("datetime", ())
        )
        or (
            len(chain) == 3
            and root in aliases.get("datetime", ())
            and chain[1] in _DATETIME_CLASSES
        )
    ):
        return "datetime", ".".join(chain)
    return None


def _call_chains(tree: ast.AST) -> Iterator[Tuple[ast.Call, List[str]]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain is not None:
                yield node, chain


def _flag_from_imports(
    rule: Rule,
    ctx: LintContext,
    module: str,
    banned: Callable[[str], bool],
    message: str,
) -> Iterator[Violation]:
    """One finding per ``from <module> import`` statement binding a
    banned name (the sorted first such name goes in the message)."""
    flagged: Set[int] = set()
    for name, node in sorted(ctx.module.from_imports.get(module, {}).items()):
        if banned(name) and id(node) not in flagged:
            flagged.add(id(node))
            yield ctx.violation(rule, node, message.format(name=name))


# -- CSL001: ambient randomness ------------------------------------------------


@register
class AmbientRandomnessRule(Rule):
    """Module-level ``random.*`` draws bypass the seeded stream registry.

    Every draw must come from a ``random.Random`` threaded in by the
    caller or an ``RngRegistry`` stream (``simnet/rng.py``); ambient
    draws pull from interpreter-global state and silently decouple runs
    from the experiment seed.
    """

    code = "CSL001"
    name = "no-ambient-randomness"
    message = (
        "ambient randomness: draw from a seeded random.Random / "
        "RngRegistry stream passed in by the caller"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        yield from _flag_from_imports(
            self,
            ctx,
            "random",
            lambda name: name != "Random",
            "from random import ...: import random.Random and seed it, "
            "or accept an rng argument",
        )
        aliases = ctx.module.module_aliases.get("random")
        if not aliases:
            return
        for node, chain in _call_chains(ctx.tree):
            if len(chain) < 2:
                continue  # a from-imported draw is flagged at its import
            sink = ambient_sink(ctx.module, chain)
            if sink is not None and sink[0] == "random":
                yield ctx.violation(self, node)
            elif (
                chain[0] in aliases
                and chain[1:] == ["Random"]
                and not node.args
                and not node.keywords
            ):
                yield ctx.violation(
                    self,
                    node,
                    "random.Random() without a seed draws entropy from "
                    "the OS; pass an explicit seed",
                )


# -- CSL002: wall-clock time ---------------------------------------------------


@register
class WallClockRule(Rule):
    """Wall-clock reads inside simulation code break bit-determinism.

    Simulated time is ``env.now``; only the trial runner (which times
    real execution) and the benchmarks may consult the host clock.  The
    effective allowlist is also CSA103's set of sanctioned sources.
    """

    code = "CSL002"
    name = "no-wall-clock"
    message = "wall-clock read in simulation code: use env.now / simulated time"
    allow = ("src/repro/runner/core.py", "benchmarks/*")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        yield from _flag_from_imports(
            self,
            ctx,
            "time",
            lambda name: name in _TIME_FUNCS,
            "from time import {name}: wall-clock source",
        )
        for node, chain in _call_chains(ctx.tree):
            if len(chain) < 2:
                continue  # a from-imported clock is flagged at its import
            sink = ambient_sink(ctx.module, chain)
            if sink is None or sink[0] == "random":
                continue
            yield ctx.violation(
                self,
                node,
                None if sink[0] == "time" else f"{sink[1]}(): wall-clock read",
            )


# -- CSL003: unordered iteration -----------------------------------------------

_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class SetTracker:
    """Statement-ordered tracking of which local names hold sets.

    A name holds a set after it is bound to a set literal/comprehension,
    a ``set()``/``frozenset()`` call, set algebra over a set, or a name
    that holds one; any other binding clears it.  :meth:`call_source`
    is the hook for call-sourced set-ness (CSA105 resolves calls of
    set-returning project functions); here no call returns a set.
    """

    def __init__(self) -> None:
        #: name -> qualname of the call its set-ness came from (or None)
        self.setnames: Dict[str, Optional[str]] = {}

    def call_source(self, call: ast.Call) -> Optional[str]:
        return None

    def set_likeness(self, node: ast.AST) -> Tuple[bool, Optional[str]]:
        """(is a set, call-source qualname when the set-ness is call-sourced)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True, None
        if isinstance(node, ast.Name):
            return node.id in self.setnames, self.setnames.get(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True, None
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return self.set_likeness(func.value)
            source = self.call_source(node)
            return source is not None, source
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self.set_likeness(node.left)
            right = self.set_likeness(node.right)
            if left[0] or right[0]:
                return True, left[1] or right[1]
        return False, None

    def is_set(self, node: ast.AST) -> bool:
        return self.set_likeness(node)[0]

    def bind(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            return
        is_set, source = self.set_likeness(stmt.value)  # type: ignore[arg-type]
        for target in targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.setnames[target.id] = source
                else:
                    self.setnames.pop(target.id, None)

    def walk(self, stmts: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
        """Yield a scope's statements in order, each before its bindings.

        Compound-statement bodies share the scope's tracking; nested
        function/class statements are yielded but not entered (their
        bodies are scopes of their own).
        """
        for stmt in stmts:
            yield stmt
            if isinstance(stmt, _SCOPES):
                continue
            self.bind(stmt)
            for field_name, value in ast.iter_fields(stmt):
                if field_name in ("body", "orelse", "finalbody"):
                    if isinstance(value, list):
                        yield from self.walk(value)
                elif field_name == "handlers":
                    for handler in value:
                        yield from self.walk(handler.body)


#: builtins whose result does not depend on argument iteration order
ORDER_FREE_REDUCERS = {
    "sum",
    "len",
    "min",
    "max",
    "any",
    "all",
    "set",
    "frozenset",
    "sorted",
}
#: builtins that materialize iteration order into an ordered value
_ORDER_SINKS = {"list", "tuple", "enumerate", "iter", "next"}


@register
class UnorderedIterationRule(Rule):
    """Iterating a set where order can escape is nondeterministic.

    Python sets iterate in hash order, which is randomized per process
    for strings; any loop, comprehension, or ``list()/tuple()/join()``
    over a set can therefore differ between two same-seed runs.  Wrap
    the set in ``sorted()`` or keep an ordered dict-as-set (the
    ``localdb.py`` idiom).  Order-insensitive reductions
    (``len``/``sum``/``min``/``max``/``any``/``all``/``set``) and set
    comprehensions over sets are exempt.  The analysis is file-local:
    it tracks names assigned set literals/calls/comprehensions and set
    algebra over them, not sets returned by other functions.
    """

    code = "CSL003"
    name = "no-unordered-iteration"
    message = (
        "iteration over an unordered set escapes hash order: wrap in "
        "sorted() or use an ordered dict-as-set (cross-module escapes "
        "through call-returned sets are csaw-analyze CSA105's findings)"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        return self._scan(ctx, ctx.tree.body)

    def _scan(
        self, ctx: LintContext, body: Sequence[ast.stmt]
    ) -> Iterator[Violation]:
        tracker = SetTracker()
        for stmt in tracker.walk(body):
            if isinstance(stmt, _SCOPES):
                yield from self._scan(ctx, stmt.body)
            else:
                yield from self._check_stmt(ctx, stmt, tracker)

    def _check_stmt(
        self, ctx: LintContext, stmt: ast.stmt, tracker: SetTracker
    ) -> Iterator[Violation]:
        exprs: List[ast.AST] = []
        for field_name, value in ast.iter_fields(stmt):
            if field_name in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.AST):
                exprs.append(value)
            elif isinstance(value, list):
                exprs.extend(v for v in value if isinstance(v, ast.AST))
        # A for-statement iterating a set directly.
        if isinstance(stmt, (ast.For, ast.AsyncFor)) and tracker.is_set(
            stmt.iter
        ):
            yield ctx.violation(self, stmt.iter)
        # Tuple-unpacking a set: `a, b = some_set`.
        if isinstance(stmt, ast.Assign) and tracker.is_set(stmt.value):
            if any(
                isinstance(t, (ast.Tuple, ast.List)) for t in stmt.targets
            ):
                yield ctx.violation(self, stmt.value)
        exempt = self._exempt_genexps(exprs)
        for expr in exprs:
            for node in ast.walk(expr):
                if isinstance(
                    node,
                    (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp),
                ):
                    if isinstance(node, ast.SetComp) or id(node) in exempt:
                        continue
                    for gen in node.generators:
                        if tracker.is_set(gen.iter):
                            yield ctx.violation(self, gen.iter)
                elif isinstance(node, ast.Call):
                    func = node.func
                    is_sink = (
                        isinstance(func, ast.Name) and func.id in _ORDER_SINKS
                    ) or (
                        isinstance(func, ast.Attribute) and func.attr == "join"
                    )
                    if is_sink:
                        for arg in node.args:
                            if tracker.is_set(arg):
                                yield ctx.violation(
                                    self,
                                    arg,
                                    "set order materialized into an "
                                    "ordered value: sort it first",
                                )

    def _exempt_genexps(self, exprs: Sequence[ast.AST]) -> Set[int]:
        exempt: Set[int] = set()
        for expr in exprs:
            for node in ast.walk(expr):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ORDER_FREE_REDUCERS
                    and len(node.args) == 1
                    and isinstance(node.args[0], ast.GeneratorExp)
                ):
                    exempt.add(id(node.args[0]))
        return exempt


# -- CSL004: real I/O in simulation paths --------------------------------------


@register
class RealIoRule(Rule):
    """The simulation stack must be closed-world (Encore-style purity).

    ``simnet/`` processes and ``core/`` measurement paths may not open
    sockets, shell out, or write files: all "network" activity is
    simulated events, so a real syscall is either an escaped side
    effect or nondeterministic latency smuggled into the event loop.
    """

    code = "CSL004"
    name = "no-real-io"
    message = "real I/O in a simulation path: simnet/core must stay closed-world"
    scope = ("src/repro/simnet/*", "src/repro/core/*")

    _IO_ROOTS = {
        "socket",
        "subprocess",
        "requests",
        "urllib",
        "ftplib",
        "smtplib",
        "shutil",
        "asyncio",
    }
    _IO_MODULES = {"http.client", "http.server"}
    _OS_CALLS = {
        "system",
        "popen",
        "remove",
        "unlink",
        "makedirs",
        "mkdir",
        "rmdir",
        "rename",
        "replace",
    }
    _WRITE_ATTRS = {"write_text", "write_bytes"}

    def _module_banned(self, name: str) -> bool:
        root = name.split(".", 1)[0]
        return root in self._IO_ROOTS or name in self._IO_MODULES

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        os_aliases = ctx.module.module_aliases.get("os", set())
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._module_banned(alias.name):
                        yield ctx.violation(
                            self, node, f"import {alias.name}: real I/O module"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and self._module_banned(node.module):
                    yield ctx.violation(
                        self, node, f"from {node.module} import: real I/O module"
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, os_aliases)

    def _check_call(
        self, ctx: LintContext, node: ast.Call, os_aliases: Set[str]
    ) -> Iterator[Violation]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if mode is None:
                return  # default "r": reading config fixtures is tolerated
            if not isinstance(mode, ast.Constant) or not isinstance(
                mode.value, str
            ):
                yield ctx.violation(
                    self, node, "open() with a dynamic mode: cannot prove read-only"
                )
            elif any(c in mode.value for c in "wax+"):
                yield ctx.violation(
                    self, node, "file write in a simulation path"
                )
        elif isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in os_aliases
                and func.attr in self._OS_CALLS
            ):
                yield ctx.violation(
                    self, node, f"os.{func.attr}(): real side effect"
                )
            elif func.attr in self._WRITE_ATTRS:
                yield ctx.violation(
                    self, node, f".{func.attr}(): file write in a simulation path"
                )


# -- CSL006: float equality on simulated time ----------------------------------


@register
class SimTimeEqualityRule(Rule):
    """``==``/``!=`` on simulated-time floats is a latent heisenbug.

    Simulated timestamps are sums of float latencies; exact equality
    depends on summation order and breaks under any refactor that
    reassociates it.  Use :func:`repro.simnet.simtime.time_eq`
    (tolerance comparison; ``not time_eq`` for ``!=``) instead.  The
    ``time-identifiers`` option names more time-like identifiers.
    """

    code = "CSL006"
    name = "no-simtime-float-equality"
    message = (
        "==/!= on a simulated-time float: use repro.simnet.simtime.time_eq"
    )
    option_keys = ("time-identifiers",)

    _TIME_ATTRS = {"now", "time"}
    _TIME_NAMES = {"now", "sim_time"}
    _TIME_SUFFIXES = ("_time", "_at")

    def _time_like(self, node: ast.AST, extra: Set[str]) -> bool:
        if isinstance(node, ast.Attribute):
            attr = node.attr
            return (
                attr in self._TIME_ATTRS
                or attr in extra
                or attr.endswith(self._TIME_SUFFIXES)
            )
        if isinstance(node, ast.Name):
            return node.id in self._TIME_NAMES or node.id in extra
        return False

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        extra = set(ctx.options.get("time-identifiers", ()))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (left, right)
                if not any(self._time_like(o, extra) for o in pair):
                    continue
                if any(_is_none(o) for o in pair):
                    continue
                if any(
                    isinstance(o, ast.Constant)
                    and isinstance(o.value, (str, bytes, bool))
                    for o in pair
                ):
                    continue
                yield ctx.violation(self, node)
                break


# -- CSL007: mutable default arguments -----------------------------------------


@register
class MutableDefaultRule(Rule):
    """Mutable default arguments are shared state across calls.

    In a simulator that reuses builders across trials, a list/dict/set
    default quietly carries state from one seed's run into the next.  A
    call default is built once, when the ``def`` runs, and every call
    shares it: any call but an immutable builtin's (a dataclass
    instance, a ``deque()``) is flagged.
    """

    code = "CSL007"
    name = "no-mutable-default"
    message = "mutable default argument: default to None and build inside"

    _IMMUTABLE_CALLS = {
        "tuple", "frozenset", "int", "float", "str", "bytes", "bool",
    }

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            return not (
                isinstance(func, ast.Name) and func.id in self._IMMUTABLE_CALLS
            )
        return False

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.violation(self, default)


# -- CSL008: inline exception→BlockType maps -----------------------------------


@register
class InlineBlockTypeMapRule(Rule):
    """Failure→BlockType mappings must live in ``core/taxonomy.py``.

    Before the taxonomy existed, three independent copies of this map
    (``detection._DNS_ERROR_TYPES``, ``measurement._failure_block_type``,
    ``circumvent.base.classify_failure``) were free to drift — one of
    them silently defaulted unknown DNS failures to ``DNS_TIMEOUT``.  A
    fourth copy would reintroduce the bug class, so any literal dict or
    pair-sequence that associates simnet failure types with ``BlockType``
    members outside the taxonomy is flagged.
    """

    code = "CSL008"
    name = "no-inline-blocktype-maps"
    message = (
        "inline exception→BlockType mapping: register the pair in "
        "repro.core.taxonomy instead (single source of truth)"
    )
    allow = ("src/repro/core/taxonomy.py",)

    _FAILURE_NAMES = {
        "DnsError",
        "DnsTimeout",
        "NxDomain",
        "ServFail",
        "Refused",
        "TcpError",
        "ConnectTimeout",
        "ConnectionReset",
        "TlsError",
        "TlsTimeout",
        "TlsReset",
        "HttpTimeout",
    }

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            pairs = self._literal_pairs(node)
            if pairs is None:
                continue
            if any(self._is_mapping_pair(a, b) for a, b in pairs):
                yield ctx.violation(self, node)

    @staticmethod
    def _literal_pairs(node: ast.AST):
        """Key/value pairs of a literal dict or sequence of 2-tuples."""
        if isinstance(node, ast.Dict):
            return [
                (key, value)
                for key, value in zip(node.keys, node.values)
                if key is not None  # skip **splat entries
            ]
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            pairs = [
                (elt.elts[0], elt.elts[1])
                for elt in node.elts
                if isinstance(elt, ast.Tuple) and len(elt.elts) == 2
            ]
            return pairs or None
        return None

    def _is_mapping_pair(self, left: ast.AST, right: ast.AST) -> bool:
        return (
            self._names_failure(left) and self._names_block_type(right)
        ) or (
            self._names_failure(right) and self._names_block_type(left)
        )

    def _names_failure(self, node: ast.AST) -> bool:
        chain = attr_chain(node)
        return bool(chain) and chain[-1] in self._FAILURE_NAMES

    @staticmethod
    def _names_block_type(node: ast.AST) -> bool:
        chain = attr_chain(node)
        return bool(chain) and len(chain) >= 2 and "BlockType" in chain[:-1]
