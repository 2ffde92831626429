"""Interprocedural nondeterminism-taint dataflow.

The lattice element (:class:`Taint`) tracks five independent facts
about a value:

``labels``
    Nondeterministic *value* origins — ``hash()``/``id()``, unseeded
    ``random``, clock reads, ``os.environ``, ``os.urandom``.  Each
    label is stamped with its source site (``random@path:line``) so a
    finding three calls away still names the origin.
``order_labels``
    The value's *content depends on an unordered iteration* that was
    materialised somewhere (``unsorted-iteration@path:line``).  This is
    the fact RPL101 can only see inside one function.
``unordered``
    The value is an unordered container (set/frozenset).  Not itself a
    defect — ``solve_component`` legitimately returns a ``Set`` — it
    becomes ``order_labels`` only when the container is *iterated* or
    stringified.
``params``
    Formal-parameter indices whose taint flows into this value, the
    substitution hook that makes function summaries polymorphic.
    ``content_token`` parameters also start ``unordered``: a content
    token must be canonical whatever container its caller passes.
``pending_order``
    ``(param_index, site)`` pairs meaning *if the actual argument at
    that index is unordered, the result carries an order label at
    site* — i.e. the callee iterates its parameter.  This is what lets
    a two-hop flow (build a set in helper A, materialise it in helper
    B) surface at the call site where the set actually arrives.

Order also flows by control: an order-sensitive mutation (``append``,
``update``, ...) inside a loop over an unordered iterable taints its
receiver with the loop's order facts, even when the argument itself was
sanitized — the list grows in hash order all the same.

Float addition is not associative, so ``sum`` is a sink of its own
(``float-sum``): a ``sum`` that iterates an unordered value, or a
parameter not annotated as an ordered sequence (a caller may pass a
set through an ``Iterable``), is a finding wherever it sits.  A local
bound once to a comprehension, ``list(...)`` or ``tuple(...)`` and only
read in place (never sorted, shuffled or handed on) is followed to what
it was built from, since it keeps that order.  Sums
whose terms are evidently integers (``len``, ``bit_count``, ``int``,
comparisons, integer literals) are exact in any order and exempt.  The
result of ``sum`` itself carries no order facts: the finding is made at
the sum.

Joins are set unions (plus boolean or), so the lattice is finite per
program and the worklist fixpoint terminates.  Sanitizers —
``sorted(...)``, ``classifier_sort_key``, bare order-neutral
reductions (``sum``/``min``/``max``/``len``/``any``/``all``), and
``# reprolint: sanitize`` / justified ``ignore[RPL101]``/
``ignore[RPL204]`` annotations — drop the order facts while keeping
value labels (sorting a list of clock readings does not make the
readings deterministic).

Dict iteration is deliberately *not* a source here: dicts are
insertion-ordered on every supported interpreter, and the stricter
per-file judgment for cache-key modules stays with RPL204.  Unknown
calls propagate the join of their argument taints but drop the
``unordered`` flag — a documented precision boundary; container-ness
survives only through functions the call graph can see.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from repro.devtools.reprolint.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    _local_aliases,
)
from repro.devtools.reprolint.model import SourceModule

_EMPTY: FrozenSet = frozenset()


class Taint(NamedTuple):
    labels: FrozenSet[str] = _EMPTY
    order_labels: FrozenSet[str] = _EMPTY
    unordered: bool = False
    params: FrozenSet[int] = _EMPTY
    pending_order: FrozenSet[Tuple[int, str]] = _EMPTY

    def join(self, other: "Taint") -> "Taint":
        if other is BOTTOM:
            return self
        if self is BOTTOM:
            return other
        return Taint(
            self.labels | other.labels,
            self.order_labels | other.order_labels,
            self.unordered or other.unordered,
            self.params | other.params,
            self.pending_order | other.pending_order,
        )

    @property
    def is_tainted(self) -> bool:
        """Carries a definite nondeterminism fact (not just potential)."""
        return bool(self.labels or self.order_labels)

    def sanitized_order(self) -> "Taint":
        """Order facts removed, value labels kept (``sorted`` et al.)."""
        return Taint(labels=self.labels)

    def sorted_labels(self) -> List[str]:
        return sorted(self.labels | self.order_labels)


BOTTOM = Taint()


def _join_all(taints: Iterable[Taint]) -> Taint:
    out = BOTTOM
    for taint in taints:
        out = out.join(taint)
    return out


class Summary(NamedTuple):
    """Callable behaviour as seen from a call site."""

    #: Taint of the return value, with ``params``/``pending_order``
    #: still symbolic in the callee's own parameter indices.
    return_taint: Taint = BOTTOM
    #: sink kind → parameter indices that flow into that sink inside
    #: the callee (transitively).  A tainted argument at such an index
    #: is a finding at the call site.
    sink_params: Tuple[Tuple[str, FrozenSet[int]], ...] = ()


class TaintFinding(NamedTuple):
    """One sink reached by tainted data, for the RPL5xx rules."""

    kind: str  # solve-return | solution-ctor | fingerprint-arg | content-token
    #          | journal-append | planner-state | float-sum
    function_key: str
    module: SourceModule
    node: ast.AST
    labels: Tuple[str, ...]


#: Bare-name calls whose result never depends on argument order.
_ORDER_NEUTRAL = {"sorted", "sum", "min", "max", "len", "any", "all"}
#: min/max with key=/default= keywords can leak order via ties.
_KEYWORD_SENSITIVE = {"min", "max"}
_SET_MAKERS = {"set", "frozenset"}
_SEQUENCE_MAKERS = {"list", "tuple", "enumerate"}
_STRINGIFIERS = {"str", "repr", "format"}
#: Receiver methods that keep the receiver's container-ness.
_SET_PRESERVING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
#: Receiver methods that mutate the receiver with their arguments.
_MUTATORS = {
    "append",
    "add",
    "update",
    "extend",
    "insert",
    "setdefault",
    "appendleft",
}
#: Mutators whose effect depends on the order they are called in: a
#: list grows in call order, a digest absorbs its updates in call order.
#: Called inside a loop over an unordered iterable, they make the
#: receiver order-dependent even when each argument is order-clean.
_ORDERED_MUTATORS = {"append", "extend", "insert", "appendleft", "update"}

_SOLUTION_CTORS = {"Solution", "PartialSolution"}

#: Parameter annotations that promise an ordered container: iterating
#: one follows the caller's order, which the caller owns.
_ORDERED_ANNOTATIONS = {
    "Sequence",
    "MutableSequence",
    "List",
    "list",
    "Tuple",
    "tuple",
    "Deque",
    "deque",
    "ndarray",
}
#: Calls whose value is an integer: summing them is exact in any order.
_INTEGER_CALLS = {"len", "int", "bit_count"}


def _ordered_annotation(annotation: Optional[ast.expr]) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr in _ORDERED_ANNOTATIONS
    if isinstance(target, ast.Name):
        return target.id in _ORDERED_ANNOTATIONS
    return False


def _integer_terms(argument: ast.expr) -> bool:
    """Whether a ``sum`` argument is a comprehension of evident integers."""
    if not isinstance(argument, (ast.GeneratorExp, ast.ListComp)):
        return False
    term = argument.elt
    if isinstance(term, ast.Constant):
        return isinstance(term.value, int)
    if isinstance(term, ast.Compare):
        return True
    if isinstance(term, ast.Call):
        func = term.func
        if isinstance(func, ast.Attribute):
            return func.attr in _INTEGER_CALLS
        if isinstance(func, ast.Name):
            return func.id in _INTEGER_CALLS
    return False


#: Bare-name calls that only read a list passed to them: it keeps its
#: order after the call.
_READ_ONLY_CALLS = _ORDER_NEUTRAL | _SEQUENCE_MAKERS | {"zip"}
#: Nodes that open a scope of their own.
_SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ClassDef,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _own_scope(function: ast.AST) -> Iterable[ast.AST]:
    """The nodes of ``function`` that bind in its own scope: nested
    defs, lambdas, classes and comprehensions are yielded, not entered."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _single_bindings(
    function: ast.AST, params: Iterable[str]
) -> Dict[str, ast.expr]:
    """Locals of ``function`` bound exactly once, by a plain assignment in
    its own scope, and only ever read in place → the bound expression.

    Read in place means iterated, indexed, compared, tested for truth
    or handed to a bare read-only builtin (:data:`_READ_ONLY_CALLS`).  Any other read
    (``ws.sort()``, ``shuffle(ws)``, ``alias = ws``, a closure's
    ``nonlocal``) could reorder the list, so such a local is dropped.
    """
    stores: Dict[str, int] = dict.fromkeys(params, 1)
    values: Dict[str, ast.expr] = {}
    for node in _own_scope(function):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            stores[node.id] = stores.get(node.id, 0) + 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stores[node.name] = stores.get(node.name, 0) + 1
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name):
            values[target.id] = value
    dropped = set()
    for parent in ast.walk(function):
        if isinstance(parent, (ast.Nonlocal, ast.Global)):
            dropped.update(parent.names)
        elif isinstance(parent, ast.NamedExpr):
            # A walrus in a comprehension binds in this scope too.
            dropped.add(parent.target.id)
        for child in ast.iter_child_nodes(parent):
            if (
                isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Load)
                and child.id in values
                and not _read_in_place(child, parent, stores)
            ):
                dropped.add(child.id)
    return {
        name: value
        for name, value in values.items()
        if stores[name] == 1 and name not in dropped
    }


def _read_in_place(name: ast.Name, parent: ast.AST, stores: Dict[str, int]) -> bool:
    """Whether this read of a local looks at its items and nothing more."""
    if isinstance(parent, (ast.For, ast.AsyncFor, ast.comprehension)):
        return name is parent.iter
    if isinstance(parent, ast.Subscript):
        return name is parent.value and isinstance(parent.ctx, ast.Load)
    if isinstance(parent, (ast.Compare, ast.UnaryOp)):
        return True
    if isinstance(parent, (ast.If, ast.While, ast.IfExp, ast.Assert)):
        return name is parent.test
    if isinstance(parent, ast.Call):
        func = parent.func
        return (
            name is not func
            and isinstance(func, ast.Name)
            and func.id in _READ_ONLY_CALLS
            and func.id not in stores
        )
    return False


def _is_seeded_rng(call: ast.Call) -> bool:
    """``random.Random(seed)`` with an explicit seed is the sanctioned
    threaded-RNG idiom; argument-less construction inherits OS entropy."""
    return bool(call.args or call.keywords)


class TaintEngine:
    """Worklist fixpoint over function summaries, then a report pass."""

    def __init__(self, callgraph: CallGraph):
        self.callgraph = callgraph
        self.summaries: Dict[str, Summary] = {
            key: Summary() for key in callgraph.functions
        }
        self.findings: List[TaintFinding] = []
        self._run_fixpoint()
        self._collect_findings()

    # -- driver --------------------------------------------------------

    def _run_fixpoint(self) -> None:
        work = deque(sorted(self.callgraph.functions))
        queued = set(work)
        while work:
            key = work.popleft()
            queued.discard(key)
            info = self.callgraph.functions[key]
            summary = _FunctionPass(self, info).summarize()
            if summary != self.summaries[key]:
                self.summaries[key] = summary
                for caller in self.callgraph.callers.get(key, ()):
                    if caller not in queued:
                        queued.add(caller)
                        work.append(caller)

    def _collect_findings(self) -> None:
        for key in sorted(self.callgraph.functions):
            info = self.callgraph.functions[key]
            pass_ = _FunctionPass(self, info, report=True)
            pass_.summarize()
            self.findings.extend(pass_.findings)

    def summary_of(self, key: str) -> Summary:
        return self.summaries.get(key, Summary())


class _FunctionPass:
    """One intraprocedural abstract interpretation of a function.

    Assignments *join* into the environment (never overwrite), so the
    per-function pass is a monotone accumulation and the outer loop
    below converges; the cost is flow-insensitivity within a function,
    which only ever over-approximates.
    """

    MAX_ITERATIONS = 6

    def __init__(self, engine: TaintEngine, info: FunctionInfo, report: bool = False):
        self.engine = engine
        self.info = info
        self.report = report
        self.module = info.table.module
        self.extra_aliases = _local_aliases(info.node)
        self.env: Dict[str, Taint] = {}
        # A content token must be canonical whatever container its
        # caller passes, so its parameters (a component's property
        # scope, say) are analysed as if they arrived as sets: iterating
        # one into the digest without a sort is a finding in the token
        # itself, not only at call sites that pass a set.
        unordered = info.name == "content_token"
        for index, name in enumerate(info.param_names):
            if name != "self":
                self.env[name] = Taint(
                    unordered=unordered, params=frozenset({index})
                )
        self.return_taint = BOTTOM
        self.sink_params: Dict[str, FrozenSet[int]] = {}
        self.findings: List[TaintFinding] = []
        #: Order facts of the enclosing ``for`` loops' iterables.
        self.loop_order = BOTTOM
        #: Names assigned in the body (a rebound parameter is local).
        self._rebound = {
            node.id
            for node in ast.walk(info.node)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        #: ``sum`` calls already judged: a return value can be evaluated
        #: twice in the report pass, a finding is made once.
        self._judged_sums: set = set()
        #: Locals bound exactly once → the bound expression, built lazily
        #: by :meth:`_sequence_source`.
        self._single_bindings: Optional[Dict[str, ast.expr]] = None

    # -- summary -------------------------------------------------------

    def summarize(self) -> Summary:
        report = self.report
        self.report = False  # findings only come from the final pass
        for _ in range(self.MAX_ITERATIONS):
            before = (dict(self.env), self.return_taint, dict(self.sink_params))
            for statement in self.info.node.body:
                self.exec_stmt(statement)
            if (dict(self.env), self.return_taint, dict(self.sink_params)) == before:
                break
        if report:
            self.report = True
            for statement in self.info.node.body:
                self.exec_stmt(statement)
            self._report_returns()
        return Summary(
            return_taint=self.return_taint,
            sink_params=tuple(sorted(self.sink_params.items())),
        )

    def _report_returns(self) -> None:
        name = self.info.name
        if name == "solve_component" and self.info.class_name is not None:
            kind = "solve-return"
        elif name == "content_token":
            kind = "content-token"
        else:
            return
        stack: List[ast.AST] = list(ast.iter_child_nodes(self.info.node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Return) and node.value is not None:
                taint = self.eval_expr(node.value)
                if taint.is_tainted:
                    self._emit(kind, node, taint)
            stack.extend(ast.iter_child_nodes(node))

    def _emit(self, kind: str, node: ast.AST, taint: Taint) -> None:
        self.findings.append(
            TaintFinding(
                kind=kind,
                function_key=self.info.key,
                module=self.module,
                node=node,
                labels=tuple(taint.sorted_labels()),
            )
        )

    def _site(self, node: ast.AST, what: str) -> str:
        return f"{what}@{self.module.scope_key}:{getattr(node, 'lineno', 0)}"

    def _sanitized_line(self, node: ast.AST) -> bool:
        return self.module.is_sanitized(getattr(node, "lineno", -1))

    # -- statements ----------------------------------------------------

    def exec_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs: out of scope, documented conservatism
        if isinstance(node, ast.Return):
            if node.value is not None:
                self.return_taint = self.return_taint.join(
                    self.eval_expr(node.value)
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(node, "value", None)
            taint = self.eval_expr(value) if value is not None else BOTTOM
            if taint is not BOTTOM and self._sanitized_line(node):
                # Human judgment: the value produced on this line is
                # determinism-clean despite what the lattice tracked.
                taint = BOTTOM
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                self._bind(target, taint)
        elif isinstance(node, ast.For):
            iter_taint = self.eval_expr(node.iter)
            element = self._iteration_taint(iter_taint, node)
            self._bind(node.target, element)
            enclosing = self.loop_order
            self.loop_order = enclosing.join(
                Taint(
                    order_labels=element.order_labels,
                    pending_order=element.pending_order,
                )
            )
            for inner in node.body:
                self.exec_stmt(inner)
            self.loop_order = enclosing
            for inner in node.orelse:
                self.exec_stmt(inner)
        elif isinstance(node, (ast.While, ast.If)):
            self.eval_expr(node.test)
            for inner in node.body + node.orelse:
                self.exec_stmt(inner)
        elif isinstance(node, ast.With):
            for item in node.items:
                taint = self.eval_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint)
            for inner in node.body:
                self.exec_stmt(inner)
        elif isinstance(node, ast.Try):
            for inner in node.body + node.orelse + node.finalbody:
                self.exec_stmt(inner)
            for handler in node.handlers:
                for inner in handler.body:
                    self.exec_stmt(inner)
        elif isinstance(node, ast.Expr):
            self.eval_expr(node.value)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval_expr(child)
        # pass/break/continue/global/nonlocal/import: no data flow here.

    def _bind(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(target.id, BOTTOM).join(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                # Unpacking loses container identity but keeps origin.
                self._bind(element, taint._replace(unordered=False))
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            base = target.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name) and base.id in self.env:
                self.env[base.id] = self.env[base.id].join(
                    taint._replace(unordered=False)
                )

    def _iteration_taint(self, iter_taint: Taint, node: ast.AST) -> Taint:
        """Taint of a loop/comprehension variable given its iterable."""
        if self._sanitized_line(node):
            return iter_taint.sanitized_order()
        order = set(iter_taint.order_labels)
        pending = set(iter_taint.pending_order)
        if iter_taint.unordered:
            order.add(self._site(node, "unsorted-iteration"))
        for index in iter_taint.params:
            # ``*args`` is a tuple in call order; its star-unpacked
            # actuals are iterated (and judged) at the call site.
            if index != self.info.vararg_index:
                pending.add((index, self._site(node, "unsorted-iteration")))
        return Taint(
            labels=iter_taint.labels,
            order_labels=frozenset(order),
            unordered=False,
            params=iter_taint.params,
            pending_order=frozenset(pending),
        )

    # -- expressions ---------------------------------------------------

    def eval_expr(self, node: Optional[ast.expr]) -> Taint:
        if node is None:
            return BOTTOM
        if isinstance(node, ast.Constant):
            return BOTTOM
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return self._dotted_source(node)
        if isinstance(node, ast.Attribute):
            source = self._dotted_source(node)
            if source is not BOTTOM:
                return source
            base = self.eval_expr(node.value)
            return base._replace(unordered=False)
        if isinstance(node, ast.Subscript):
            value = self.eval_expr(node.value)
            self.eval_expr(node.slice)
            return value._replace(unordered=False)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, (ast.BinOp,)):
            return self.eval_expr(node.left).join(self.eval_expr(node.right))
        if isinstance(node, ast.BoolOp):
            return _join_all(self.eval_expr(value) for value in node.values)
        if isinstance(node, ast.UnaryOp):
            return self.eval_expr(node.operand)
        if isinstance(node, ast.Compare):
            return _join_all(
                self.eval_expr(value) for value in [node.left] + node.comparators
            )
        if isinstance(node, (ast.Tuple, ast.List)):
            return _join_all(self.eval_expr(element) for element in node.elts)
        if isinstance(node, ast.Set):
            inner = _join_all(self.eval_expr(element) for element in node.elts)
            return inner.sanitized_order()._replace(
                unordered=True, params=inner.params
            )
        if isinstance(node, ast.Dict):
            parts = [self.eval_expr(k) for k in node.keys if k is not None]
            parts += [self.eval_expr(v) for v in node.values]
            return _join_all(parts)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comprehension(node, node.elt, unordered_result=False)
        if isinstance(node, ast.SetComp):
            return self._comprehension(node, node.elt, unordered_result=True)
        if isinstance(node, ast.DictComp):
            keys = self._comprehension(node, node.key, unordered_result=False)
            values = self._comprehension(node, node.value, unordered_result=False)
            return keys.join(values)
        if isinstance(node, ast.IfExp):
            self.eval_expr(node.test)
            return self.eval_expr(node.body).join(self.eval_expr(node.orelse))
        if isinstance(node, ast.JoinedStr):
            return self._stringify(
                _join_all(self.eval_expr(value) for value in node.values), node
            )
        if isinstance(node, ast.FormattedValue):
            return self.eval_expr(node.value)
        if isinstance(node, ast.Starred):
            return self.eval_expr(node.value)
        if isinstance(node, ast.NamedExpr):
            taint = self.eval_expr(node.value)
            self._bind(node.target, taint)
            return taint
        if isinstance(node, ast.Await):
            return self.eval_expr(node.value)
        if isinstance(node, ast.Lambda):
            return BOTTOM
        return BOTTOM

    def _stringify(self, taint: Taint, node: ast.AST) -> Taint:
        """``str()``/f-string of an unordered container bakes iteration
        order into the text."""
        if taint.unordered and not self._sanitized_line(node):
            taint = taint.join(
                Taint(order_labels=frozenset({self._site(node, "unordered-repr")}))
            )
        return taint._replace(unordered=False)

    def _comprehension(
        self, node: ast.expr, element: ast.expr, unordered_result: bool
    ) -> Taint:
        penalty = BOTTOM
        for generator in node.generators:  # type: ignore[attr-defined]
            iter_taint = self.eval_expr(generator.iter)
            bound = self._iteration_taint(iter_taint, generator.iter)
            self._bind(generator.target, bound)
            penalty = penalty.join(bound)
            for condition in generator.ifs:
                self.eval_expr(condition)
        result = self.eval_expr(element).join(penalty)
        if unordered_result:
            return result.sanitized_order()._replace(
                unordered=True, params=result.params
            )
        # A list or generator is ordered, whatever its elements are.
        return result._replace(unordered=False)

    # -- sources -------------------------------------------------------

    def _resolve(self, node: ast.expr) -> Optional[str]:
        return self.engine.callgraph.graph.resolve_dotted(
            self.info.table, node, self.extra_aliases
        )

    def _dotted_source(self, node: ast.expr) -> Taint:
        """Non-call reads of ambient state (``os.environ`` today)."""
        dotted = self._resolve(node)
        if dotted == "os.environ":
            return Taint(labels=frozenset({self._site(node, "environ")}))
        return BOTTOM

    def _source_call(self, call: ast.Call, dotted: Optional[str]) -> Optional[Taint]:
        """Taint if the call is itself a nondeterminism source."""
        if dotted is None:
            return None
        if dotted in ("hash", "id"):
            return Taint(labels=frozenset({self._site(call, dotted)}))
        if dotted == "random.Random":
            if _is_seeded_rng(call):
                return BOTTOM  # sanctioned seeded RNG
            return Taint(labels=frozenset({self._site(call, "random")}))
        if dotted == "random.SystemRandom" or dotted.startswith(
            "random.SystemRandom."
        ):
            return Taint(labels=frozenset({self._site(call, "urandom")}))
        if dotted.startswith("random."):
            return Taint(labels=frozenset({self._site(call, "random")}))
        if dotted == "time" or dotted.startswith("time."):
            return Taint(labels=frozenset({self._site(call, "time")}))
        if dotted in ("os.getenv", "os.getenvb") or dotted.startswith("os.environ."):
            return Taint(labels=frozenset({self._site(call, "environ")}))
        if dotted == "os.urandom":
            return Taint(labels=frozenset({self._site(call, "urandom")}))
        return None

    # -- calls ---------------------------------------------------------

    def eval_call(self, call: ast.Call) -> Taint:
        arg_taints = [
            # Star-unpacking iterates the container, in its own order.
            self._iteration_taint(self.eval_expr(arg.value), arg)
            if isinstance(arg, ast.Starred)
            else self.eval_expr(arg)
            for arg in call.args
        ]
        keyword_taints = [self.eval_expr(kw.value) for kw in call.keywords]
        everything = _join_all(arg_taints + keyword_taints)
        sanitized_here = self._sanitized_line(call)

        dotted = self._resolve(call.func)
        if (
            dotted is None
            and isinstance(call.func, ast.Name)
            and call.func.id in ("hash", "id")
            and call.func.id not in self.env
        ):
            # A bare unshadowed builtin never resolves through the
            # alias table; hash()/id() are sources all the same.
            dotted = call.func.id
        terminal = dotted.rpartition(".")[2] if dotted else None
        if terminal is None and isinstance(call.func, ast.Attribute):
            terminal = call.func.attr
        if terminal is None and isinstance(call.func, ast.Name):
            terminal = call.func.id

        source = None if sanitized_here else self._source_call(call, dotted)
        if source is not None:
            return source.join(everything.sanitized_order())

        # Sink detection happens before sanitizer shortcuts so a
        # sanitize comment on the *call* line cannot hide a sink hit
        # on its arguments evaluated above.
        self._check_sinks(call, terminal, arg_taints, keyword_taints)

        if isinstance(call.func, ast.Name) and call.func.id not in self.env:
            name = call.func.id
            shadowed = (
                name in self.info.table.functions
                or name in self.info.table.classes
                or name in self.info.table.aliases
                or name in self.extra_aliases
            )
            if not shadowed:
                if name == "sum":
                    self._check_float_sum(call)
                if name in _ORDER_NEUTRAL and not (
                    name in _KEYWORD_SENSITIVE and call.keywords
                ):
                    return everything.sanitized_order()
                if name in _SET_MAKERS:
                    return everything.sanitized_order()._replace(
                        unordered=True, params=everything.params
                    )
                if name in _SEQUENCE_MAKERS:
                    return self._iteration_taint(everything, call)
                if name in _STRINGIFIERS:
                    return self._stringify(everything, call)
        if terminal == "classifier_sort_key" or terminal == "sorted":
            return everything.sanitized_order()

        if sanitized_here:
            return BOTTOM

        targets = self.engine.callgraph.targets_of(self.info.key, call)
        if targets:
            result = BOTTOM
            for target in targets:
                result = result.join(
                    self._instantiate(target, call, arg_taints, keyword_taints)
                )
            return result

        return self._unknown_call(call, everything)

    def _unknown_call(self, call: ast.Call, everything: Taint) -> Taint:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = self.eval_expr(func.value)
            if func.attr in _MUTATORS:
                if func.attr in _ORDERED_MUTATORS and not receiver.unordered:
                    everything = everything.join(self.loop_order)
                self._mutate_receiver(func.value, everything)
                return BOTTOM
            if func.attr in _SET_PRESERVING_METHODS:
                return receiver.join(everything)
            joined = receiver.join(everything)
            return joined._replace(unordered=False)
        return everything._replace(unordered=False)

    def _mutate_receiver(self, receiver: ast.expr, taint: Taint) -> None:
        base = receiver
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if isinstance(base, ast.Name):
            self.env[base.id] = self.env.get(base.id, BOTTOM).join(
                taint._replace(unordered=False)
            )

    def _instantiate(
        self,
        target_key: str,
        call: ast.Call,
        arg_taints: List[Taint],
        keyword_taints: List[Taint],
    ) -> Taint:
        """Apply a callee summary at this call site: substitute actual
        argument taints for the summary's symbolic parameter indices."""
        summary = self.engine.summary_of(target_key)
        target_info = self.engine.callgraph.functions.get(target_key)
        actuals = self._actual_map(target_info, call, arg_taints, keyword_taints)

        base = summary.return_taint
        labels = set(base.labels)
        order = set(base.order_labels)
        unordered = base.unordered
        params: set = set()
        pending: set = set()

        for index in base.params:
            actual = actuals.get(index)
            if actual is None:
                continue
            labels |= actual.labels
            order |= actual.order_labels
            unordered = unordered or actual.unordered
            params |= actual.params
            pending |= actual.pending_order
        for index, site in base.pending_order:
            actual = actuals.get(index)
            if actual is None:
                continue
            if actual.unordered:
                order.add(site)
            for caller_param in actual.params:
                pending.add((caller_param, site))

        for kind, indices in summary.sink_params:
            hits = BOTTOM
            for index in indices:
                actual = actuals.get(index)
                if actual is None:
                    continue
                if actual.is_tainted:
                    hits = hits.join(actual)
                for caller_param in actual.params:
                    self._record_sink_param(kind, caller_param)
            if hits.is_tainted and self.report:
                self._emit(kind, call, hits)

        return Taint(
            labels=frozenset(labels),
            order_labels=frozenset(order),
            unordered=unordered,
            params=frozenset(params),
            pending_order=frozenset(pending),
        )

    def _actual_map(
        self,
        target_info: Optional[FunctionInfo],
        call: ast.Call,
        arg_taints: List[Taint],
        keyword_taints: List[Taint],
    ) -> Dict[int, Taint]:
        """Map callee parameter index → actual-argument taint.

        Positional args shift by one for bound-method targets (their
        index 0 is ``self``).  Keywords match by declared name; a
        ``**kwargs`` splat degrades to joining into every parameter.
        """
        actuals: Dict[int, Taint] = {}
        offset = 0
        if target_info is not None and target_info.param_names[:1] == ("self",):
            offset = 1
        vararg = target_info.vararg_index if target_info is not None else None
        for position, taint in enumerate(arg_taints):
            index = position + offset
            if vararg is not None and index > vararg:
                index = vararg
            actuals[index] = actuals.get(index, BOTTOM).join(taint)
        if target_info is not None:
            names = list(target_info.param_names)
            for keyword, taint in zip(call.keywords, keyword_taints):
                if keyword.arg is None:  # **splat: could hit anything
                    for index in range(len(names)):
                        actuals[index] = actuals.get(index, BOTTOM).join(taint)
                elif keyword.arg in names:
                    actuals[names.index(keyword.arg)] = taint
        return actuals

    def _record_sink_param(self, kind: str, index: int) -> None:
        current = self.sink_params.get(kind, _EMPTY)
        self.sink_params[kind] = current | {index}

    # -- sinks ---------------------------------------------------------

    def _check_float_sum(self, call: ast.Call) -> None:
        """``sum`` that iterates a set, or a parameter that may arrive as
        one, adds its floats in hash order."""
        if (
            not self.report
            or not call.args
            or isinstance(call.args[0], ast.Starred)
            or id(call) in self._judged_sums
        ):
            return
        self._judged_sums.add(id(call))
        if self._sanitized_line(call):
            return
        labels = self._float_sum_labels(call, call.args[0], frozenset())
        if labels:
            self._emit("float-sum", call, Taint(order_labels=frozenset(labels)))

    def _float_sum_labels(
        self, call: ast.Call, argument: ast.expr, followed: FrozenSet[str]
    ) -> set:
        """Order labels of the terms ``argument`` feeds a ``sum``.

        A local bound once to a comprehension, ``list(...)`` or
        ``tuple(...)`` keeps the order of what it was built from, so the
        judgment follows it to that source (``ws = [w(c) for c in
        classifiers]; sum(ws)`` sums in the parameter's order).
        """
        if _integer_terms(argument):
            return set()
        if isinstance(argument, (ast.GeneratorExp, ast.ListComp)):
            iterables = [generator.iter for generator in argument.generators]
        else:
            iterables = [argument]
        labels = set()
        for iterable in iterables:
            if self._quiet_eval(iterable).unordered:
                labels.add(self._site(call, "unsorted-iteration"))
            elif isinstance(iterable, ast.Name):
                name = iterable.id
                if self._may_arrive_unordered(name):
                    labels.add(self._site(call, f"unordered-param:{name}"))
                elif name not in followed:
                    source = self._sequence_source(name)
                    if source is not None:
                        labels |= self._float_sum_labels(
                            call, source, followed | {name}
                        )
        return labels

    def _quiet_eval(self, node: ast.expr) -> Taint:
        """Evaluate without reporting: a followed source was already
        judged where it was bound."""
        report, self.report = self.report, False
        try:
            return self.eval_expr(node)
        finally:
            self.report = report

    def _sequence_source(self, name: str) -> Optional[ast.expr]:
        """What the local ``name`` copies the order of, when
        :func:`_single_bindings` keeps it and it is bound to a
        comprehension or a one-argument ``list``/``tuple`` call; else
        ``None``."""
        if self._single_bindings is None:
            self._single_bindings = _single_bindings(
                self.info.node, self.info.param_names
            )
        value = self._single_bindings.get(name)
        if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
            return value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "tuple")
            and value.func.id not in self.env
            and len(value.args) == 1
            and not value.keywords
            and not isinstance(value.args[0], ast.Starred)
        ):
            return value.args[0]
        return None

    def _may_arrive_unordered(self, name: str) -> bool:
        """A parameter, never rebound, not ``*args`` and not annotated as
        an ordered sequence: its caller may pass a set."""
        info = self.info
        if name not in info.param_names or name in ("self", "cls"):
            return False
        index = info.param_names.index(name)
        if index == info.vararg_index or _ordered_annotation(
            info.param_annotations[index]
        ):
            return False
        return name not in self._rebound

    def _check_sinks(
        self,
        call: ast.Call,
        terminal: Optional[str],
        arg_taints: List[Taint],
        keyword_taints: List[Taint],
    ) -> None:
        if terminal == "component_fingerprint":
            kind = "fingerprint-arg"
        elif terminal in _SOLUTION_CTORS:
            kind = "solution-ctor"
        elif terminal == "append_batch":
            # The daemon's write-ahead journal: a tainted value in a
            # record would replay differently than it ran live.
            kind = "journal-append"
        elif terminal == "add_batch":
            # IncrementalPlanner state: what the journal promises to
            # reproduce; taint here breaks recovery equivalence.
            kind = "planner-state"
        else:
            return
        hits = BOTTOM
        for taint in arg_taints + keyword_taints:
            if taint.is_tainted:
                hits = hits.join(taint)
            for index in taint.params:
                self._record_sink_param(kind, index)
        if hits.is_tainted and self.report:
            self._emit(kind, call, hits)
