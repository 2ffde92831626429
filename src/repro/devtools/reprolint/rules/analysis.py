"""Whole-program rules (RPL5xx): interprocedural determinism taint,
kernel purity, and the seeded-randomness discipline.

These rules only run under ``--analyze``: they consume the shared
:class:`~repro.devtools.reprolint.analysis.WholeProgramAnalysis`
(module graph → call graph → taint fixpoint) built once per run.
RPL101/RPL204 stay as the fast per-file guards; this family exists for
the flows they provably cannot see — a nondeterministic value that
crosses at least one function call before reaching a solver return or
the cache fingerprint.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Tuple

from repro.devtools.reprolint.analysis.callgraph import _local_aliases, iter_calls
from repro.devtools.reprolint.analysis.taint import _is_seeded_rng
from repro.devtools.reprolint.model import SourceModule, Violation
from repro.devtools.reprolint.registry import AnalysisRule, register
from repro.devtools.reprolint.scopes import in_kernels_package

#: Method calls that mutate their receiver in place.
_MUTATING_METHODS = {
    "append",
    "add",
    "update",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
    "extend",
    "insert",
    "sort",
    "reverse",
    "setdefault",
}

#: Parameters a kernel is *supposed* to write through: the dominated
#: pruner's whole job is to mark rows in the caller-owned overlay.
_WRITABLE_PARAM_NAMES = {"overlay"}


def _origin_suffix(labels: Tuple[str, ...]) -> str:
    if not labels:
        return ""
    shown = ", ".join(labels[:3])
    more = f" (+{len(labels) - 3} more)" if len(labels) > 3 else ""
    return f"; origin: {shown}{more}"


class _TaintSinkRule(AnalysisRule):
    """Shared plumbing: map taint-engine findings to violations."""

    #: finding kind → message template ({fn} = enclosing function key).
    kinds: Dict[str, str] = {}

    def check_program(self, analysis) -> Iterable[Violation]:
        for finding in analysis.findings:
            template = self.kinds.get(finding.kind)
            if template is None:
                continue
            message = template.format(fn=finding.function_key)
            yield finding.module.violation(
                self, finding.node, message + _origin_suffix(finding.labels)
            )


@register
class SolveReturnTaintRule(_TaintSinkRule):
    rule_id = "RPL501"
    name = "tainted-solver-result"
    summary = (
        "no nondeterministic taint may reach a solve_component return "
        "or a Solution/PartialSolution constructor"
    )
    rationale = (
        "The engine's bit-identity contract (pyjit ≡ array, --jobs 1 ≡ "
        "pooled, cached ≡ fresh) holds only if every solver result is a "
        "pure function of its component.  A value whose content depends "
        "on set-iteration order, hash(), or a clock can cross any "
        "number of helper calls before landing in the returned "
        "solution; the per-file rules stop seeing it after the first "
        "hop.  This rule follows it the whole way.  Sanitize with "
        "sorted()/classifier_sort_key, an order-neutral reduction, or "
        "an explicit `# reprolint: sanitize` judgment."
    )
    kinds = {
        "solve-return": (
            "nondeterministic taint reaches the return value of {fn}"
        ),
        "solution-ctor": (
            "nondeterministic taint reaches a Solution/PartialSolution "
            "constructor argument in {fn}"
        ),
    }


@register
class CacheKeyTaintRule(_TaintSinkRule):
    rule_id = "RPL502"
    name = "tainted-cache-key"
    summary = (
        "no nondeterministic taint may reach component_fingerprint() "
        "arguments or a content_token() result"
    )
    rationale = (
        "component_fingerprint() and the cache_token chain are the "
        "identity of a cache entry.  Tainted key material does not "
        "crash — it silently splits one logical key into many "
        "(permanent misses) or, worse, collides two distinct "
        "components and serves the wrong cached solution.  The "
        "interprocedural pass guards the arguments at every call site "
        "and every content_token() implementation's return."
    )
    kinds = {
        "fingerprint-arg": (
            "nondeterministic taint reaches a component_fingerprint() "
            "argument in {fn}"
        ),
        "content-token": (
            "nondeterministic taint reaches the content_token() result "
            "of {fn}"
        ),
    }


@register
class ServiceStateTaintRule(_TaintSinkRule):
    rule_id = "RPL505"
    name = "tainted-service-state"
    summary = (
        "no nondeterministic taint may reach a journal append_batch() "
        "or a planner add_batch() argument"
    )
    rationale = (
        "The daemon's recovery contract is that replaying the journal "
        "through a fresh IncrementalPlanner reproduces the live "
        "planner's state bit-identically.  Both halves are sinks: a "
        "tainted value written via append_batch() replays differently "
        "than it ran live, and a tainted value applied via add_batch() "
        "makes live state the journal cannot reproduce.  Clock-derived "
        "values that legitimately cross (the resolved deadline budget) "
        "are sanitized exactly once, at the line where they are "
        "resolved and recorded, with `# reprolint: sanitize`."
    )
    kinds = {
        "journal-append": (
            "nondeterministic taint reaches a journal append_batch() "
            "argument in {fn}"
        ),
        "planner-state": (
            "nondeterministic taint reaches a planner add_batch() "
            "argument in {fn}"
        ),
    }


@register
class UnorderedFloatSumRule(_TaintSinkRule):
    rule_id = "RPL506"
    name = "unordered-float-sum"
    summary = (
        "no float sum() over a set, or over a parameter that may arrive "
        "as one"
    )
    rationale = (
        "Float addition is not associative: the same numbers summed in "
        "another order can differ in the last bit, and a set iterates in "
        "hash order.  A sum over a set, or over an Iterable parameter a "
        "caller may fill with a set, therefore gives a cost that depends "
        "on PYTHONHASHSEED, and the greedy certificate's integer rule "
        "and every float.hex pin assume it does not.  RPL101 sees only "
        "sets built in the same function; this rule follows parameters. "
        "Sum over sorted(...) (classifier_sort_key for classifiers), "
        "annotate the parameter as a Sequence when its order is the "
        "caller's, or sum integers."
    )
    kinds = {
        "float-sum": "float sum() over an unordered iterable in {fn}",
    }


@register
class KernelPurityRule(AnalysisRule):
    rule_id = "RPL503"
    name = "kernel-purity"
    summary = (
        "kernel modules may not write globals, mutate their "
        "instance/grid arguments, or read ambient config"
    )
    rationale = (
        "The kernels' equivalence to the core/reference.py oracles, "
        "and the bit-identity of jobs=1 and jobs=N runs, hold only if a "
        "kernel call is a pure function of its explicit arguments: no "
        "global writes (state leaking from one call, or one component, "
        "into the next; lookup tables are module constants built at "
        "import), no mutation of the WSCInstance or mask grids the "
        "caller still owns (the caller's next step would see different "
        "input), and no os.environ reads (a kernel's output may not "
        "depend on the process it runs in).  The dominated pruner's "
        "caller-provided `overlay` parameter is the one sanctioned "
        "write-through."
    )

    def check_program(self, analysis) -> Iterable[Violation]:
        for module in analysis.modules:
            if in_kernels_package(module.scope_key):
                yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterable[Violation]:
        yield from self._check_env_reads(module)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_env_reads(self, module: SourceModule) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv", "getenvb")
            ):
                yield module.violation(
                    self,
                    node,
                    "kernel reads ambient config "
                    f"(os.{node.attr}); kernels take every input "
                    "as an explicit argument",
                )

    def _check_function(
        self, module: SourceModule, function: ast.FunctionDef
    ) -> Iterable[Violation]:
        params = {
            arg.arg
            for arg in list(function.args.posonlyargs)
            + list(function.args.args)
            + list(function.args.kwonlyargs)
        }
        params.discard("self")
        params -= _WRITABLE_PARAM_NAMES
        for node in function.body:
            yield from self._check_statements(module, function, node, params)

    def _check_statements(
        self,
        module: SourceModule,
        function: ast.FunctionDef,
        node: ast.AST,
        params: set,
    ) -> Iterable[Violation]:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Global):
                yield module.violation(
                    self,
                    inner,
                    f"kernel function {function.name}() declares "
                    f"`global {', '.join(inner.names)}`; kernels must "
                    "not carry state across calls",
                )
            elif isinstance(inner, (ast.Assign, ast.AugAssign)):
                targets = (
                    inner.targets
                    if isinstance(inner, ast.Assign)
                    else [inner.target]
                )
                for target in targets:
                    root = self._param_root(target, params)
                    if root is not None:
                        yield module.violation(
                            self,
                            target,
                            f"kernel function {function.name}() writes "
                            f"into its argument `{root}`; the caller "
                            "still owns it",
                        )
            elif isinstance(inner, ast.Call):
                func = inner.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                ):
                    root = self._param_root(func.value, params, reads_ok=False)
                    if root is not None:
                        yield module.violation(
                            self,
                            inner,
                            f"kernel function {function.name}() calls "
                            f"`.{func.attr}()` on its argument "
                            f"`{root}`; the caller still owns it",
                        )

    @staticmethod
    def _param_root(
        target: ast.AST, params: set, reads_ok: bool = True
    ) -> Optional[str]:
        """Name of the parameter a write lands in, if any.

        ``p.x = v`` / ``p[i] = v`` / ``p.rows[i] = v`` all root at
        ``p``; a bare ``p = v`` rebinds the local and is fine when
        ``reads_ok`` (it does not touch the caller's object).
        """
        node = target
        dereferenced = False
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            dereferenced = True
            node = node.value
        if not dereferenced and reads_ok:
            return None
        if isinstance(node, ast.Name) and node.id in params:
            return node.id
        return None


@register
class UnseededRandomnessRule(AnalysisRule):
    rule_id = "RPL504"
    name = "unseeded-random-in-solver-path"
    summary = (
        "code reachable from solve_component may not draw from the "
        "global random module or construct an unseeded Random()"
    )
    rationale = (
        "The upcoming sampling-based sub-linear set-cover backend will "
        "put randomness inside solver kernels on purpose.  The "
        "discipline that keeps results reproducible is seed threading: "
        "construct random.Random(seed) from an explicit component-"
        "derived seed and pass the instance down.  The module-level "
        "random functions share hidden global state (seeded from OS "
        "entropy), and an argument-less Random() does the same — both "
        "are unreproducible by construction, so they are banned on "
        "every call path reachable from any solve_component."
    )

    def check_program(self, analysis) -> Iterable[Violation]:
        callgraph = analysis.call_graph
        roots = callgraph.solve_component_keys()
        for key in callgraph.reachable_from(roots):
            info = callgraph.functions[key]
            module = info.table.module
            aliases = _local_aliases(info.node)
            for call in iter_calls(info.node):
                message = self._offence(analysis, info, call, aliases)
                if message is not None:
                    yield module.violation(
                        self, call, f"{message} in {key}, which is "
                        "reachable from solve_component; thread an "
                        "explicit random.Random(seed) instead"
                    )

    @staticmethod
    def _offence(
        analysis, info, call: ast.Call, aliases: Dict[str, str]
    ) -> Optional[str]:
        dotted = analysis.module_graph.resolve_dotted(
            info.table, call.func, aliases
        )
        if dotted is None:
            return None
        if dotted == "random.Random":
            if _is_seeded_rng(call):
                return None
            return "unseeded random.Random() constructed"
        if dotted == "random.SystemRandom":
            return "random.SystemRandom() (OS entropy) constructed"
        if dotted == "random.seed":
            return "global random.seed() called (shared hidden state)"
        if dotted.startswith("random."):
            return f"global-state {dotted}() called"
        return None
