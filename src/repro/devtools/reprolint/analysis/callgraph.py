"""Conservative call graph over the ``repro.*`` function universe.

Nodes are top-level functions and class methods, keyed
``repro.mod.func`` / ``repro.mod.Class.method``.  Edges come from four
resolution strategies, in decreasing precision:

* **direct calls** — a bare name resolved through the module symbol
  table and import aliases (including one re-export hop), and
  ``module.function(...)`` calls through module aliases;
* **constructor calls** — a name resolving to a scanned class adds an
  edge to its ``__init__`` (searched up the textual hierarchy);
* **self-dispatch** — ``self.m(...)`` inside class ``C`` resolves to
  every method named ``m`` on ``C``, its (textual) ancestors, and its
  subclass subtree, which is what makes taint flow through the
  ``ComponentSolver`` template-method pattern sound;
* **registry indirection** — method calls on *unknown* receivers
  resolve through dispatch tables: the dominated pruner's surface
  (``run``, ``effective_weight``) maps to every implementation in the
  kernel package, ``solve_component`` on an unknown receiver maps to every
  ``solve_component`` in the program, and a ``make_solver(...)`` call
  maps to the constructor of every class registered in
  ``solvers/registry.py``'s ``_FACTORIES``.

Anything else stays edge-free: an unresolvable dynamic call is a
documented precision boundary, not a silent guess.  More edges mean
more taint false positives, so the graph adds them only where a
registry or hierarchy genuinely routes calls.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.reprolint.analysis.modgraph import ModuleGraph, ModuleTable

#: The dominated pruner's surface: the preprocessing pipeline calls it
#: on an object it built, so method calls on unknown receivers with
#: these names dispatch to every implementation inside the kernel
#: package.
KERNEL_DISPATCH_METHODS = (
    "run",
    "effective_weight",
)

KERNEL_PACKAGE_PREFIX = "repro.core.kernels."

SOLVER_REGISTRY_MODULE = "repro.solvers.registry"


class FunctionInfo:
    """One analyzable function: a top-level def or a class method."""

    def __init__(
        self,
        key: str,
        table: ModuleTable,
        node: ast.FunctionDef,
        class_name: Optional[str] = None,
    ):
        self.key = key
        self.table = table
        self.node = node
        self.class_name = class_name
        arguments = node.args
        positional = list(arguments.posonlyargs) + list(arguments.args)
        #: Index of the ``*args`` parameter, which absorbs every
        #: positional argument from that index on; ``None`` without one.
        self.vararg_index: Optional[int] = (
            len(positional) if arguments.vararg is not None else None
        )
        if arguments.vararg is not None:
            positional.append(arguments.vararg)
        params = positional + list(arguments.kwonlyargs)
        self.param_names: Tuple[str, ...] = tuple(arg.arg for arg in params)
        #: Index-aligned with ``param_names``; ``None`` when unannotated.
        self.param_annotations: Tuple[Optional[ast.expr], ...] = tuple(
            arg.annotation for arg in params
        )

    @property
    def module(self):
        return self.table.module

    @property
    def name(self) -> str:
        return self.node.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.key})"


def _local_aliases(node: ast.FunctionDef) -> Dict[str, str]:
    """Function-level import aliases (modules imported lazily inside a
    function body)."""
    aliases: Dict[str, str] = {}
    for inner in ast.walk(node):
        if isinstance(inner, ast.Import):
            for alias in inner.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(inner, ast.ImportFrom) and inner.module and inner.level == 0:
            for alias in inner.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = (
                        f"{inner.module}.{alias.name}"
                    )
    return aliases


def iter_calls(node: ast.FunctionDef) -> Iterator[ast.Call]:
    """Every call expression in ``node``, nested defs excluded."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


class CallGraph:
    """Functions, resolved call sites, and reverse edges."""

    def __init__(self, graph: ModuleGraph):
        self.graph = graph
        self.functions: Dict[str, FunctionInfo] = {}
        #: key → list of (call node, resolved target keys).
        self.calls: Dict[str, List[Tuple[ast.Call, Tuple[str, ...]]]] = {}
        #: key → sorted caller keys.
        self.callers: Dict[str, List[str]] = {}
        self._kernel_methods: Dict[str, Tuple[str, ...]] = {}
        self._solver_factories: Optional[Tuple[str, ...]] = None
        self._collect_functions()
        self._build_dispatch_tables()
        self._resolve_all_calls()

    # -- universe ------------------------------------------------------

    def _collect_functions(self) -> None:
        for module_name in sorted(self.graph.tables):
            table = self.graph.tables[module_name]
            for func_name in sorted(table.functions):
                key = f"{module_name}.{func_name}"
                self.functions[key] = FunctionInfo(
                    key, table, table.functions[func_name]
                )
            for class_name in sorted(table.classes):
                info = table.classes[class_name]
                for method_name in sorted(info.methods):
                    key = f"{module_name}.{class_name}.{method_name}"
                    self.functions[key] = FunctionInfo(
                        key,
                        table,
                        info.methods[method_name],
                        class_name=class_name,
                    )

    def _build_dispatch_tables(self) -> None:
        kernel: Dict[str, List[str]] = {}
        for key, info in self.functions.items():
            if info.class_name is None:
                continue
            if not info.table.name.startswith(KERNEL_PACKAGE_PREFIX):
                continue
            if info.name in KERNEL_DISPATCH_METHODS:
                kernel.setdefault(info.name, []).append(key)
        self._kernel_methods = {
            name: tuple(sorted(keys)) for name, keys in kernel.items()
        }

    def _factory_constructor_keys(self) -> Tuple[str, ...]:
        """Constructors of every class named in the solver registry's
        ``_FACTORIES`` dict (the ``make_solver`` indirection)."""
        if self._solver_factories is not None:
            return self._solver_factories
        keys: Set[str] = set()
        table = self.graph.tables.get(SOLVER_REGISTRY_MODULE)
        if table is not None:
            names: Set[str] = set()
            for node in ast.walk(table.module.tree):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    [node.target]
                    if isinstance(node, ast.AnnAssign)
                    else list(node.targets)
                )
                value = node.value
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "_FACTORIES"
                        and isinstance(value, ast.Dict)
                    ):
                        for item in value.values:
                            for inner in ast.walk(item):
                                if isinstance(inner, ast.Name):
                                    names.add(inner.id)
                                elif isinstance(inner, ast.Attribute):
                                    names.add(inner.attr)
            for name in names:
                keys.update(self._constructor_keys_for_class_name(name))
        self._solver_factories = tuple(sorted(keys))
        return self._solver_factories

    def _constructor_keys_for_class_name(self, class_name: str) -> List[str]:
        """``__init__`` keys for a class, searching textual ancestors."""
        out: List[str] = []
        for candidate in [class_name] + self.graph.ancestors_of(class_name):
            for info in self.graph.classes.get(candidate, ()):
                key = f"{info.module_name}.{info.name}.__init__"
                if key in self.functions:
                    out.append(key)
            if out:
                break  # nearest definition wins, like the MRO would
        return out

    # -- resolution ----------------------------------------------------

    def _hierarchy_methods(self, class_name: str, method: str) -> Tuple[str, ...]:
        """Methods named ``method`` on ``class_name``, its ancestors,
        and its subclass subtree."""
        candidates = (
            [class_name]
            + self.graph.ancestors_of(class_name)
            + self.graph.subclasses_of(class_name)
        )
        keys: Set[str] = set()
        for candidate in candidates:
            for info in self.graph.classes.get(candidate, ()):
                if method in info.methods:
                    keys.add(f"{info.module_name}.{info.name}.{method}")
        return tuple(sorted(key for key in keys if key in self.functions))

    def _all_methods_named(self, method: str) -> Tuple[str, ...]:
        keys = [
            key
            for key, info in self.functions.items()
            if info.class_name is not None and info.name == method
        ]
        return tuple(sorted(keys))

    def resolve_call(
        self, info: FunctionInfo, call: ast.Call, extra_aliases: Dict[str, str]
    ) -> Tuple[str, ...]:
        """Candidate callee keys for one call expression."""
        func = call.func
        dotted = self.graph.resolve_dotted(info.table, func, extra_aliases)
        if dotted is not None:
            if dotted.endswith(".make_solver") or dotted == "make_solver":
                return self._factory_constructor_keys()
            resolved = self.graph.function_at(dotted)
            if resolved is not None:
                table, node = resolved
                return (f"{table.name}.{node.name}",)
            class_info = self.graph.class_at(dotted)
            if class_info is not None:
                return tuple(
                    self._constructor_keys_for_class_name(class_info.name)
                )
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                if info.class_name is not None:
                    return self._hierarchy_methods(info.class_name, func.attr)
            if func.attr in self._kernel_methods:
                return self._kernel_methods[func.attr]
            if func.attr == "solve_component":
                return self._all_methods_named("solve_component")
        return ()

    def _resolve_all_calls(self) -> None:
        reverse: Dict[str, Set[str]] = {}
        for key in sorted(self.functions):
            info = self.functions[key]
            extra = _local_aliases(info.node)
            resolved: List[Tuple[ast.Call, Tuple[str, ...]]] = []
            for call in iter_calls(info.node):
                targets = self.resolve_call(info, call, extra)
                targets = tuple(t for t in targets if t != key)  # drop self-loops
                resolved.append((call, targets))
                for target in targets:
                    reverse.setdefault(target, set()).add(key)
            self.calls[key] = resolved
        self.callers = {
            target: sorted(sources) for target, sources in reverse.items()
        }

    # -- queries -------------------------------------------------------

    def targets_of(self, key: str, call: ast.Call) -> Tuple[str, ...]:
        for node, targets in self.calls.get(key, ()):
            if node is call:
                return targets
        return ()

    def solve_component_keys(self) -> List[str]:
        return sorted(
            key
            for key, info in self.functions.items()
            if info.name == "solve_component"
        )

    def reachable_from(self, roots: Sequence[str]) -> List[str]:
        """Forward closure over call edges (roots included)."""
        seen: Set[str] = set()
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for _node, targets in self.calls.get(current, ()):
                for target in targets:
                    if target not in seen:
                        frontier.append(target)
        return sorted(seen)
