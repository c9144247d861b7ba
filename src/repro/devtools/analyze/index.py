"""Whole-program project index for ``csaw-analyze``.

One pass parses every module of the analyzed tree and produces the
facts every rule is built from — the per-file rules read each module's
tree and import tables, the interprocedural rules and the call graph
read its symbols:

- :class:`ModuleInfo` — dotted module name (derived from the path under
  the project root, with a leading ``src/`` stripped), the parsed AST,
  and the module's import table with *relative imports resolved* against
  the package, so ``from ..runner import run_trials`` in
  ``repro.core.fleet`` maps the local name ``run_trials`` to
  ``repro.runner.run_trials``, plus the raw ``import m`` aliases and
  ``from m import x`` bindings the ambient-sink detector reads;
- :class:`FunctionInfo` — every module-level function and every method
  (nested ``def``\\ s and lambdas are *folded into* their enclosing
  function: their calls and writes are attributed to it, which is the
  conservative choice for reachability — a nested helper ships to a
  worker whenever its closure does);
- :class:`ClassInfo` — the class/attribute map used for name-based
  method resolution, plus class-level mutable attributes (CSA101);
- :class:`GlobalInfo` — module-level bindings, with the mutable subset
  (dict/list/set/comprehension or a call to a mutable constructor)
  marked, since those are the shard-determinism hazards when written
  from worker-reachable code.

Name resolution (:meth:`ProjectIndex.resolve`) follows one level of
re-export chains (``repro.runner.run_trials`` →
``repro.runner.core.run_trials``) with a visited set, so package
``__init__`` facades do not hide the real definition.  Module-level
*statements* other than defs/imports/assignments are not modeled: the
analyzer reasons about what runs when a worker calls a function, not
about import-time side effects.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import iter_python_files
from ..framework import attr_chain

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "GlobalInfo",
    "ModuleInfo",
    "ProjectIndex",
    "module_name_for",
]

#: Constructors whose module-level result is mutable shared state.
MUTABLE_CONSTRUCTORS = {
    "dict",
    "list",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
    "bytearray",
    "array",
}


def module_name_for(relpath: str) -> str:
    """Dotted module name for a project-relative posix path.

    ``src/repro/core/fleet.py`` → ``repro.core.fleet``;
    ``src/repro/runner/__init__.py`` → ``repro.runner``.
    """
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_mutable_value(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(
        node,
        (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in MUTABLE_CONSTRUCTORS
    if isinstance(node, ast.BinOp):
        # e.g. ``array("q", [-1]) * n`` — mutable result of arithmetic
        # on a mutable operand.
        return _is_mutable_value(node.left) or _is_mutable_value(node.right)
    return False


def _annotation_names(node: Optional[ast.AST]) -> Tuple[str, ...]:
    """All identifier last-parts mentioned in an annotation expression.

    ``Optional[ScenarioSpec]`` → ("Optional", "ScenarioSpec"); string
    annotations are parsed as expressions when they parse at all.
    """
    if node is None:
        return ()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ()
    names: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return tuple(names)


@dataclass
class FunctionInfo:
    """One analyzable function or method (nested defs folded in)."""

    name: str
    qualname: str  # module.func or module.Class.method
    module: str
    node: ast.AST  # FunctionDef / AsyncFunctionDef
    class_name: Optional[str] = None
    lineno: int = 1
    #: parameter name -> identifier names in its annotation
    params: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    return_annotation: Tuple[str, ...] = ()

    @property
    def is_public(self) -> bool:
        if self.name.startswith("_"):
            return False
        if self.class_name is not None and self.class_name.startswith("_"):
            return False
        return all(not part.startswith("_") for part in self.module.split("."))


@dataclass
class ClassInfo:
    """A class and its attribute map (for name-based method resolution)."""

    name: str
    qualname: str
    module: str
    lineno: int = 1
    #: method name -> function qualname
    methods: Dict[str, str] = field(default_factory=dict)
    #: class-level attributes bound to mutable containers -> lineno
    mutable_attrs: Dict[str, int] = field(default_factory=dict)
    #: last chain parts of base-class expressions
    bases: Tuple[str, ...] = ()


@dataclass
class GlobalInfo:
    """A module-level name binding."""

    name: str
    qualname: str
    module: str
    lineno: int = 1
    mutable: bool = False


@dataclass
class ModuleInfo:
    """One parsed module and its local symbol tables."""

    name: str
    path: str
    relpath: str
    tree: ast.Module
    source: str
    is_package: bool = False
    #: local name -> dotted target ("repro.runner.run_trials" for
    #: from-imports, "repro.core.fleet" for module aliases)
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    classes: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    globals: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    #: ``import m [as a]``: module name -> local names bound to it
    module_aliases: Dict[str, Set[str]] = field(default_factory=dict)
    #: ``from m import x [as y]``: module -> local name -> import node
    from_imports: Dict[str, Dict[str, ast.ImportFrom]] = field(
        default_factory=dict
    )


class ProjectIndex:
    """Symbol tables for every module of the analyzed tree."""

    def __init__(self, root: str):
        self.root = root
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.module_globals: Dict[str, GlobalInfo] = {}
        #: method name -> sorted list of method qualnames (class map)
        self.methods_by_name: Dict[str, List[str]] = {}
        #: (relpath, error) per file that does not parse; the error's
        #: ``filename`` is the path as given
        self.parse_errors: List[Tuple[str, SyntaxError]] = []

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, paths: Sequence[str], root: str) -> "ProjectIndex":
        index = cls(root=os.path.abspath(root))
        for path in iter_python_files(paths):
            with open(path, "r", encoding="utf-8") as fh:
                index.add_source(fh.read(), path)
        index.finalize()
        return index

    def add_source(self, source: str, path: str) -> Optional[ModuleInfo]:
        """Parse and index one module; ``path`` is kept as given."""
        relpath = os.path.relpath(os.path.abspath(path), self.root).replace(
            os.sep, "/"
        )
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_errors.append((relpath, exc))
            return None
        name = module_name_for(relpath)
        module = ModuleInfo(
            name=name,
            path=path,
            relpath=relpath,
            tree=tree,
            source=source,
            is_package=relpath.endswith("/__init__.py")
            or relpath == "__init__.py",
        )
        self._index_imports(module)
        self._index_symbols(module)
        self.modules[name] = module
        return module

    def finalize(self) -> None:
        by_name: Dict[str, List[str]] = {}
        for info in self.functions.values():
            if info.class_name is not None:
                by_name.setdefault(info.name, []).append(info.qualname)
        self.methods_by_name = {
            name: sorted(quals) for name, quals in sorted(by_name.items())
        }

    # -- imports ---------------------------------------------------------------

    def _resolve_relative(self, module: ModuleInfo, node: ast.ImportFrom) -> str:
        parts = module.name.split(".") if module.name else []
        if not module.is_package and parts:
            parts = parts[:-1]
        drop = node.level - 1
        if drop > 0:
            parts = parts[: len(parts) - drop] if drop <= len(parts) else []
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts)

    def _index_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module.module_aliases.setdefault(alias.name, set()).add(
                        alias.asname or alias.name
                    )
                    if alias.asname:
                        module.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        module.imports.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom):
                bound = module.from_imports.setdefault(node.module or "", {})
                for alias in node.names:
                    bound[alias.asname or alias.name] = node
                if node.level:
                    target = self._resolve_relative(module, node)
                else:
                    target = node.module or ""
                if not target:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    module.imports[alias.asname or alias.name] = (
                        f"{target}.{alias.name}"
                    )

    # -- symbols ---------------------------------------------------------------

    def _index_symbols(self, module: ModuleInfo) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(module, stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._add_globals(module, stmt)

    def _add_function(
        self,
        module: ModuleInfo,
        node: ast.AST,
        class_name: Optional[str],
    ) -> FunctionInfo:
        name = node.name  # type: ignore[attr-defined]
        qualname = (
            f"{module.name}.{class_name}.{name}"
            if class_name
            else f"{module.name}.{name}"
        )
        args = node.args  # type: ignore[attr-defined]
        params: Dict[str, Tuple[str, ...]] = {}
        for arg in (
            list(getattr(args, "posonlyargs", [])) + args.args + args.kwonlyargs
        ):
            params[arg.arg] = _annotation_names(arg.annotation)
        info = FunctionInfo(
            name=name,
            qualname=qualname,
            module=module.name,
            node=node,
            class_name=class_name,
            lineno=node.lineno,  # type: ignore[attr-defined]
            params=params,
            return_annotation=_annotation_names(
                node.returns  # type: ignore[attr-defined]
            ),
        )
        self.functions[qualname] = info
        if class_name is None:
            module.functions[name] = qualname
        return info

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(
            name=node.name,
            qualname=qualname,
            module=module.name,
            lineno=node.lineno,
            bases=tuple(
                chain[-1] for chain in map(attr_chain, node.bases) if chain
            ),
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._add_function(module, stmt, class_name=node.name)
                info.methods[stmt.name] = method.qualname
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id != "__slots__"
                        and _is_mutable_value(stmt.value)
                    ):
                        info.mutable_attrs[target.id] = stmt.lineno
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id != "__slots__"
                    and _is_mutable_value(stmt.value)
                ):
                    info.mutable_attrs[stmt.target.id] = stmt.lineno
        self.classes[qualname] = info
        module.classes[node.name] = qualname

    def _add_globals(self, module: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value: Optional[ast.AST] = stmt.value
        else:  # AnnAssign
            targets = [stmt.target]  # type: ignore[attr-defined]
            value = stmt.value  # type: ignore[attr-defined]
        mutable = _is_mutable_value(value)
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            qualname = f"{module.name}.{target.id}"
            existing = self.module_globals.get(qualname)
            if existing is not None:
                # Re-binding at module level (records.py fills
                # placeholder tables after the enum exists): keep the
                # first site, widen mutability.
                existing.mutable = existing.mutable or mutable
                continue
            info = GlobalInfo(
                name=target.id,
                qualname=qualname,
                module=module.name,
                lineno=stmt.lineno,
                mutable=mutable,
            )
            self.module_globals[qualname] = info
            module.globals[target.id] = qualname

    # -- resolution ------------------------------------------------------------

    def resolve(
        self,
        module: ModuleInfo,
        chain: Sequence[str],
        _visited: Optional[Set[str]] = None,
    ) -> Optional[str]:
        """Qualname of the function/class/global a name chain denotes.

        Follows from-imports (including package ``__init__`` re-export
        facades, one hop at a time with a visited set) and module
        aliases.  Returns ``None`` for names the project does not
        define — builtins, stdlib, local variables.
        """
        if not chain:
            return None
        head = chain[0]
        local = (
            module.functions.get(head)
            or module.classes.get(head)
            or module.globals.get(head)
        )
        if local is not None:
            return self._descend(local, chain[1:])
        imported = module.imports.get(head)
        if imported is None:
            return None
        return self.resolve_qualified(
            imported, chain[1:], _visited or set()
        )

    def resolve_qualified(
        self,
        dotted: str,
        rest: Sequence[str] = (),
        _visited: Optional[Set[str]] = None,
    ) -> Optional[str]:
        """Resolve a dotted target plus a trailing chain to a qualname."""
        visited = _visited if _visited is not None else set()
        full = ".".join([dotted, *rest]) if rest else dotted
        if full in visited:
            return None
        visited.add(full)
        parts = full.split(".")
        # Longest module prefix, then descend through its symbols.
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            target = self.modules.get(prefix)
            if target is None:
                continue
            remainder = parts[cut:]
            if not remainder:
                return prefix  # the chain denotes a module itself
            head, tail = remainder[0], remainder[1:]
            local = (
                target.functions.get(head)
                or target.classes.get(head)
                or target.globals.get(head)
            )
            if local is not None:
                return self._descend(local, tail)
            reexport = target.imports.get(head)
            if reexport is not None:
                return self.resolve_qualified(reexport, tail, visited)
            return None
        return None

    def _descend(self, qualname: str, rest: Sequence[str]) -> Optional[str]:
        if not rest:
            return qualname
        cls = self.classes.get(qualname)
        if cls is not None and len(rest) == 1:
            return cls.methods.get(rest[0], qualname)
        return qualname
