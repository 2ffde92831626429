"""Tests for reprolint's whole-program analysis layer (``--analyze``).

Structure:

* call-graph and symbol-resolution unit tests over a fixture
  mini-package (registry indirection, template-method dispatch,
  recursion cycles) written into a ``src/repro/...`` mirror under
  ``tmp_path`` so the module graph engages exactly as on the real tree;
* paired good/bad taint fixtures per RPL5xx rule, including the
  ≥2-hop flow that RPL101/RPL204 provably cannot see;
* the SARIF reporter golden document;
* ``--jobs N`` byte-identity with the serial path;
* CLI path handling (exit 2 on missing paths, warning on non-.py);
* RPL001 unused-suppression detection;
* the baseline gate (new findings fail, stale entries fail, the
  baseline only shrinks, justifications survive regeneration).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.devtools.reprolint import (
    PathError,
    as_sarif_document,
    collect_files,
    lint_paths,
    render_json,
)
from repro.devtools.reprolint.analysis import build_analysis
from repro.devtools.reprolint.baseline import (
    apply_baseline,
    finding_keys,
    load_baseline,
    render_baseline,
)
from repro.devtools.reprolint.cli import main as reprolint_main
from repro.devtools.reprolint.model import SourceModule
from repro.devtools.reprolint.registry import get_rule


def write_module(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def build_program(tmp_path: Path, sources: dict):
    """Materialize a fixture tree and build the whole-program analysis
    directly (no rules), for unit tests of the graph layers."""
    for rel, source in sources.items():
        write_module(tmp_path, rel, source)
    modules = [SourceModule.parse(path) for path in collect_files([tmp_path])]
    return build_analysis(modules)


def rule_ids(result) -> set:
    return {violation.rule_id for violation in result.violations}


# ----------------------------------------------------------------------
# Fixture mini-package: solver hierarchy + registry + engine driver
# ----------------------------------------------------------------------

MINI_PACKAGE = {
    "src/repro/solvers/base.py": """
        class ComponentSolver:
            def solve(self, component):
                return self.solve_component(component)

            def solve_component(self, component):
                raise NotImplementedError
        """,
    "src/repro/solvers/alpha.py": """
        from repro.solvers.base import ComponentSolver

        class AlphaSolver(ComponentSolver):
            def __init__(self):
                self.calls = 0

            def solve_component(self, component):
                return set(), {}
        """,
    "src/repro/solvers/beta.py": """
        from repro.solvers.base import ComponentSolver

        class BetaSolver(ComponentSolver):
            def __init__(self):
                self.calls = 0

            def solve_component(self, component):
                return set(), {}
        """,
    "src/repro/solvers/registry.py": """
        from repro.solvers.alpha import AlphaSolver
        from repro.solvers.beta import BetaSolver

        _FACTORIES = {
            "alpha": AlphaSolver,
            "beta": lambda: BetaSolver(),
        }

        def make_solver(name):
            return _FACTORIES[name]()
        """,
    "src/repro/engine/driver.py": """
        from repro.solvers.registry import make_solver

        def run_one(name, component):
            solver = make_solver(name)
            return solver.solve_component(component)
        """,
    "src/repro/setcover/cyc.py": """
        def ping(n):
            if n:
                return pong(n - 1)
            return 0

        def pong(n):
            return ping(n)
        """,
}


def test_symbol_table_resolves_from_import_alias(tmp_path):
    analysis = build_program(tmp_path, MINI_PACKAGE)
    table = analysis.module_graph.tables["repro.engine.driver"]
    assert table.aliases["make_solver"] == "repro.solvers.registry.make_solver"


def test_callgraph_collects_functions_and_methods(tmp_path):
    analysis = build_program(tmp_path, MINI_PACKAGE)
    functions = analysis.call_graph.functions
    assert "repro.engine.driver.run_one" in functions
    assert "repro.solvers.base.ComponentSolver.solve" in functions
    assert "repro.solvers.alpha.AlphaSolver.solve_component" in functions


def test_registry_indirection_links_make_solver_to_constructors(tmp_path):
    analysis = build_program(tmp_path, MINI_PACKAGE)
    callers = analysis.call_graph.callers
    # make_solver(...) in the driver dispatches, through _FACTORIES, to
    # the constructor of every registered class — including the one
    # registered behind a lambda.
    for ctor in (
        "repro.solvers.alpha.AlphaSolver.__init__",
        "repro.solvers.beta.BetaSolver.__init__",
    ):
        assert "repro.engine.driver.run_one" in callers[ctor]


def test_self_dispatch_follows_subclass_subtree(tmp_path):
    analysis = build_program(tmp_path, MINI_PACKAGE)
    callers = analysis.call_graph.callers
    # self.solve_component() in the base class template method reaches
    # every override in the (textual) subclass subtree.
    for override in (
        "repro.solvers.alpha.AlphaSolver.solve_component",
        "repro.solvers.beta.BetaSolver.solve_component",
    ):
        assert "repro.solvers.base.ComponentSolver.solve" in callers[override]


def test_unknown_receiver_solve_component_fans_out(tmp_path):
    analysis = build_program(tmp_path, MINI_PACKAGE)
    callers = analysis.call_graph.callers
    assert (
        "repro.engine.driver.run_one"
        in callers["repro.solvers.alpha.AlphaSolver.solve_component"]
    )


def test_call_cycle_terminates_and_is_reachable(tmp_path):
    analysis = build_program(tmp_path, MINI_PACKAGE)
    reachable = analysis.call_graph.reachable_from(["repro.setcover.cyc.ping"])
    assert "repro.setcover.cyc.ping" in reachable
    assert "repro.setcover.cyc.pong" in reachable
    # The taint fixpoint converged over the cycle too (engine built).
    assert analysis.taint.summary_of("repro.setcover.cyc.ping") is not None


def test_kernel_dispatch_on_unknown_receiver(tmp_path):
    sources = dict(MINI_PACKAGE)
    sources["src/repro/core/kernels/mykern.py"] = """
        class MyPruner:
            def run(self, uncovered):
                return 0
        """
    sources["src/repro/engine/use_kernel.py"] = """
        def run_kernel(pruner, uncovered):
            return pruner.run(uncovered)
        """
    analysis = build_program(tmp_path, sources)
    callers = analysis.call_graph.callers
    assert (
        "repro.engine.use_kernel.run_kernel"
        in callers["repro.core.kernels.mykern.MyPruner.run"]
    )


def test_mini_package_is_analyze_clean(tmp_path):
    for rel, source in MINI_PACKAGE.items():
        write_module(tmp_path, rel, source)
    result = lint_paths([tmp_path], analyze=True)
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# RPL501: taint reaching solver results (including the ≥2-hop flow)
# ----------------------------------------------------------------------

TWO_HOP_BAD = {
    "src/repro/solvers/twohop.py": """
        from repro.solvers.base import ComponentSolver

        def _pool(component):
            return set(component.queries)

        def _materialize(bucket):
            out = []
            for item in bucket:
                out.append(item)
            return out

        class TwoHopSolver(ComponentSolver):
            def solve_component(self, component):
                return _materialize(_pool(component)), {}
        """,
}

TWO_HOP_GOOD = {
    "src/repro/solvers/twohop.py": """
        from repro.solvers.base import ComponentSolver

        def _pool(component):
            return set(component.queries)

        def _materialize(bucket):
            out = []
            for item in bucket:
                out.append(item)
            return out

        class TwoHopSolver(ComponentSolver):
            def solve_component(self, component):
                return _materialize(sorted(_pool(component))), {}
        """,
}


def test_two_hop_taint_invisible_to_per_file_rules(tmp_path):
    """The defining fixture: the set is built in helper A, materialised
    in helper B, and returned from solve_component — three functions,
    each individually clean under RPL101/RPL204."""
    for rel, source in {**MINI_PACKAGE, **TWO_HOP_BAD}.items():
        write_module(tmp_path, rel, source)
    per_file = lint_paths([tmp_path])  # full per-file rule set
    assert per_file.ok, "\n".join(v.render() for v in per_file.violations)


def test_two_hop_taint_caught_by_rpl501(tmp_path):
    for rel, source in {**MINI_PACKAGE, **TWO_HOP_BAD}.items():
        write_module(tmp_path, rel, source)
    result = lint_paths([tmp_path], select=["RPL501"], analyze=True)
    assert rule_ids(result) == {"RPL501"}
    (violation,) = result.violations
    assert "solvers/twohop.py" in violation.path
    assert "unsorted-iteration" in violation.message  # origin is named


def test_two_hop_sorted_twin_is_clean(tmp_path):
    for rel, source in {**MINI_PACKAGE, **TWO_HOP_GOOD}.items():
        write_module(tmp_path, rel, source)
    result = lint_paths([tmp_path], select=["RPL501"], analyze=True)
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_rpl501_solution_ctor_through_wrapper(tmp_path):
    """A tainted argument reaching Solution() inside a *callee* is
    reported at the call site that supplied the taint."""
    write_module(
        tmp_path,
        "src/repro/engine/report.py",
        """
        import time

        def wrap(payload):
            return Solution(payload)

        def build_report():
            elapsed = time.perf_counter()
            return wrap(elapsed)
        """,
    )
    result = lint_paths([tmp_path], select=["RPL501"], analyze=True)
    assert rule_ids(result) == {"RPL501"}
    assert any("time@" in v.message for v in result.violations)


def test_rpl501_solution_ctor_clean_twin(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/report.py",
        """
        def wrap(payload):
            return Solution(payload)

        def build_report(count):
            return wrap(count)
        """,
    )
    result = lint_paths([tmp_path], select=["RPL501"], analyze=True)
    assert result.ok


MERGE_SOLVER_TEMPLATE = """
    import time

    from repro.solvers.base import ComponentSolver

    def _timed_parts(component):
        out = []
        for part in component.parts:
            out.append((part, time.perf_counter()))
        return out

    class MergeSolver(ComponentSolver):
        def solve_component(self, component):
            selected = set()
            for part, _seconds in _timed_parts(component):
                selected |= part.classifiers{annotation}
            return sorted(selected), {{}}
    """


def test_rpl501_sanitize_annotation_is_honoured(tmp_path):
    """The engine.py pattern: telemetry rides next to the classifiers,
    so tuple unpacking smears clock taint onto them; the sanitize
    annotation records the human judgment that the classifier sets are
    deterministic.  The same code without the comment must fire, so the
    annotation is provably what clears it."""
    for rel, source in MINI_PACKAGE.items():
        write_module(tmp_path, rel, source)
    write_module(
        tmp_path,
        "src/repro/solvers/merge.py",
        MERGE_SOLVER_TEMPLATE.format(annotation="  # reprolint: sanitize"),
    )
    result = lint_paths([tmp_path], select=["RPL501"], analyze=True)
    assert result.ok, "\n".join(v.render() for v in result.violations)

    write_module(
        tmp_path,
        "src/repro/solvers/merge.py",
        MERGE_SOLVER_TEMPLATE.format(annotation=""),
    )
    unsanitized = lint_paths([tmp_path], select=["RPL501"], analyze=True)
    assert rule_ids(unsanitized) == {"RPL501"}
    assert any("time@" in v.message for v in unsanitized.violations)


# ----------------------------------------------------------------------
# RPL502: taint reaching cache-key material
# ----------------------------------------------------------------------


def test_rpl502_fingerprint_argument(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/keys.py",
        """
        def keyed(component):
            seed = hash(component)
            return component_fingerprint(component, seed)
        """,
    )
    result = lint_paths([tmp_path], select=["RPL502"], analyze=True)
    assert rule_ids(result) == {"RPL502"}
    (violation,) = result.violations
    assert "component_fingerprint" in violation.message
    assert "hash@" in violation.message


def test_rpl502_fingerprint_clean_twin(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/keys.py",
        """
        def keyed(component, salt):
            return component_fingerprint(component, salt)
        """,
    )
    result = lint_paths([tmp_path], select=["RPL502"], analyze=True)
    assert result.ok


def test_rpl502_content_token_return(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/tokens.py",
        """
        def content_token(record):
            return str(set(record.item_list))
        """,
    )
    result = lint_paths([tmp_path], select=["RPL502"], analyze=True)
    assert rule_ids(result) == {"RPL502"}
    (violation,) = result.violations
    assert "content_token" in violation.message


def test_rpl502_content_token_clean_twin(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/tokens.py",
        """
        def content_token(record):
            return str(sorted(record.item_list))
        """,
    )
    result = lint_paths([tmp_path], select=["RPL502"], analyze=True)
    assert result.ok


SCOPED_TOKEN = """
    import hashlib

    def _digest(*parts):
        digest = hashlib.blake2b(digest_size=16)
        for part in parts:
            digest.update(part)
        return digest.digest()

    class Overlay:
        def __init__(self):
            self.overrides = {}
            self.by_lowest = {}

        def content_token(self, scope):
            inside = frozenset(scope)
            entries = []
            for prop in scope:
                for clf in self.by_lowest.get(prop, ()):
                    if clf <= inside:
                        entries.append(("+".join(sorted(clf)), self.overrides[clf]))
            parts = [b"overlay"]
            for label, weight in %s:
                parts.append(label.encode())
                parts.append(str(weight).encode())
            return _digest(*parts)

    def fingerprint(overlay, properties):
        return overlay.content_token(frozenset(properties))
    """


def test_rpl502_scoped_token_iterated_in_scope_order(tmp_path):
    # The scope may arrive as a set and each property's bucket is a set:
    # entries appended in that iteration order and digested unsorted
    # make the token depend on the hash seed, even though every entry's
    # own label is sorted.
    write_module(tmp_path, "src/repro/core/overlay.py", SCOPED_TOKEN % "entries")
    result = lint_paths([tmp_path], select=["RPL502"], analyze=True)
    assert rule_ids(result) == {"RPL502"}
    (violation,) = result.violations
    assert "content_token" in violation.message
    assert "unsorted-iteration@" in violation.message


def test_rpl502_scoped_token_clean_twin(tmp_path):
    write_module(
        tmp_path, "src/repro/core/overlay.py", SCOPED_TOKEN % "sorted(entries)"
    )
    result = lint_paths([tmp_path], select=["RPL502"], analyze=True)
    assert result.ok


# ----------------------------------------------------------------------
# RPL503: kernel purity
# ----------------------------------------------------------------------


def test_rpl503_flags_global_write_arg_mutation_and_env_read(tmp_path):
    write_module(
        tmp_path,
        "src/repro/core/kernels/impure.py",
        """
        import os

        _CACHE = {}

        def greedy_wsc(instance):
            global _CACHE
            _CACHE = {}
            instance.rows.sort()
            instance.sets.append(0)
            mode = os.environ.get("REPRO_MODE")
            return mode
        """,
    )
    result = lint_paths([tmp_path], select=["RPL503"], analyze=True)
    messages = [violation.message for violation in result.violations]
    assert any("global" in message for message in messages)
    assert any(".sort()" in message for message in messages)
    assert any(".append()" in message for message in messages)
    assert any("os.environ" in message for message in messages)


def test_rpl503_pure_kernel_and_overlay_writes_are_clean(tmp_path):
    write_module(
        tmp_path,
        "src/repro/core/kernels/pure.py",
        """
        def make_dominated_pruner(instance, overlay):
            for index in range(len(overlay)):
                overlay[index] = False
            overlay.append(True)
            local = list(instance.rows)
            local.sort()
            return local
        """,
    )
    result = lint_paths([tmp_path], select=["RPL503"], analyze=True)
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_rpl503_does_not_apply_outside_kernel_package(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/mutator.py",
        """
        def accumulate(bucket, item):
            bucket.append(item)
            return bucket
        """,
    )
    result = lint_paths([tmp_path], select=["RPL503"], analyze=True)
    assert result.ok


# ----------------------------------------------------------------------
# RPL504: unseeded randomness reachable from solve_component
# ----------------------------------------------------------------------


def test_rpl504_flags_global_random_in_solver_path(tmp_path):
    sources = dict(MINI_PACKAGE)
    sources["src/repro/solvers/rand.py"] = """
        import random

        from repro.solvers.base import ComponentSolver

        def _jitter():
            return random.random()

        class RandomSolver(ComponentSolver):
            def solve_component(self, component):
                return _jitter(), {}
        """
    for rel, source in sources.items():
        write_module(tmp_path, rel, source)
    result = lint_paths([tmp_path], select=["RPL504"], analyze=True)
    assert rule_ids(result) == {"RPL504"}
    (violation,) = result.violations
    assert "random.random" in violation.message
    assert "reachable from solve_component" in violation.message


def test_rpl504_seeded_rng_threading_is_clean(tmp_path):
    sources = dict(MINI_PACKAGE)
    sources["src/repro/solvers/rand.py"] = """
        import random

        from repro.solvers.base import ComponentSolver

        def _jitter(rng):
            return rng.random()

        class SeededSolver(ComponentSolver):
            def solve_component(self, component):
                rng = random.Random(1234)
                return _jitter(rng), {}
        """
    for rel, source in sources.items():
        write_module(tmp_path, rel, source)
    result = lint_paths([tmp_path], select=["RPL504"], analyze=True)
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_rpl504_ignores_randomness_off_the_solver_path(tmp_path):
    sources = dict(MINI_PACKAGE)
    sources["src/repro/devtools/shuffle.py"] = """
        import random

        def scramble(items):
            random.shuffle(items)
            return items
        """
    for rel, source in sources.items():
        write_module(tmp_path, rel, source)
    result = lint_paths([tmp_path], select=["RPL504"], analyze=True)
    assert result.ok


# ----------------------------------------------------------------------
# RPL505: taint reaching service state (journal append / planner apply)
# ----------------------------------------------------------------------

SERVICE_STATE_TEMPLATE = """
    import time  # reprolint: ignore[RPL102]

    def _resolve_budget():
        return time.monotonic()  # reprolint: ignore[RPL102]

    def journal_write(journal, batch):
        stamp = _resolve_budget(){annotation}
        journal.append_batch([batch, stamp])

    def apply_batch(planner, batch):
        stamp = _resolve_budget(){annotation}
        planner.add_batch([batch, stamp])
    """


def test_rpl505_flags_both_recovery_sinks(tmp_path):
    """Clock taint crossing a helper call before landing in an
    append_batch() or add_batch() argument fires once per sink, with
    the origin named."""
    write_module(
        tmp_path,
        "src/repro/service/state.py",
        SERVICE_STATE_TEMPLATE.format(annotation=""),
    )
    result = lint_paths([tmp_path], select=["RPL505"], analyze=True)
    assert rule_ids(result) == {"RPL505"}
    messages = sorted(v.message for v in result.violations)
    assert len(messages) == 2
    assert "journal append_batch" in messages[0]
    assert "planner add_batch" in messages[1]
    assert all("time@" in message for message in messages)


def test_rpl505_sanitize_annotation_is_honoured(tmp_path):
    """The daemon.py pattern: the resolved deadline budget is clock-
    derived on purpose, sanitized exactly once at the line where it is
    resolved."""
    write_module(
        tmp_path,
        "src/repro/service/state.py",
        SERVICE_STATE_TEMPLATE.format(annotation="  # reprolint: sanitize"),
    )
    result = lint_paths([tmp_path], select=["RPL505"], analyze=True)
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# RPL506: float sum over a set, or over a parameter that may be one
# ----------------------------------------------------------------------

FLOAT_SUM_BAD = """
    from typing import Iterable

    class Load:
        def total_weight(self, classifiers):
            return sum(self.weight(clf) for clf in classifiers)

        def total_annotated(self, classifiers: Iterable[frozenset]):
            return sum(self.weight(clf) for clf in classifiers)

    def _covered(queries):
        return {q for q in queries if q}

    def covered_weight(weights, queries):
        covered = _covered(queries)
        return sum(weights[q] for q in covered)

    class Token:
        def content_token(self, scope):
            return sum(self.cost(prop) for prop in scope)
    """

FLOAT_SUM_GOOD = """
    from typing import Iterable, Sequence

    from repro.core.properties import classifier_sort_key

    class Load:
        def __iter__(self):
            return iter(self._items)

        def total_weight(self, classifiers: Iterable[frozenset]):
            return sum(
                self.weight(clf)
                for clf in sorted(classifiers, key=classifier_sort_key)
            )

        def total_in_order(self, classifiers: Sequence[frozenset]):
            return sum(self.weight(clf) for clf in classifiers)

        def total_of_self(self):
            return sum(item.cost for item in self)

    def sizes(groups: Iterable[set]):
        return sum(len(group) for group in groups)

    def covered_weight(weights, queries: Sequence[frozenset]):
        covered = {q for q in queries if q}
        return sum(weights[q] for q in queries if q in covered)

    def pairs_total(cost, queries: Sequence[frozenset]):
        for q in queries:
            pair = frozenset(q)
        neighbourhood = [pair for pair in queries]
        return sum(cost(pair) for pair in neighbourhood)
    """


def test_rpl506_flags_float_sums_in_hash_order(tmp_path):
    """An unannotated or Iterable parameter may arrive as a set, and a
    helper may return one: all four sums add floats in hash order.  The
    content token's sum sits in a return the report pass evaluates
    twice, and is still one finding."""
    write_module(tmp_path, "src/repro/datasets/load.py", FLOAT_SUM_BAD)
    result = lint_paths([tmp_path], select=["RPL506"], analyze=True)
    assert rule_ids(result) == {"RPL506"}
    messages = sorted(v.message for v in result.violations)
    assert len(messages) == 4
    assert sum("unordered-param:classifiers@" in m for m in messages) == 2
    assert sum("unsorted-iteration@" in m for m in messages) == 2


def test_rpl506_sorted_sequence_self_and_integer_sums_are_clean(tmp_path):
    write_module(tmp_path, "src/repro/datasets/load.py", FLOAT_SUM_GOOD)
    result = lint_paths([tmp_path], select=["RPL506"], analyze=True)
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# RPL102 service-scope leg
# ----------------------------------------------------------------------

SERVICE_CLOCK_TEMPLATE = """
    import time{annotation}

    def now():
        return time.monotonic(){annotation}
    """


def test_rpl102_service_scope_flags_clock_access(tmp_path):
    write_module(
        tmp_path,
        "src/repro/service/clock.py",
        SERVICE_CLOCK_TEMPLATE.format(annotation=""),
    )
    result = lint_paths([tmp_path], select=["RPL102"])
    assert rule_ids(result) == {"RPL102"}
    assert len(result.violations) == 2
    assert all("service/" in v.message for v in result.violations)
    # The message routes the author to the fix, not to deletion.
    assert any("annotated" in v.message for v in result.violations)


def test_rpl102_service_scope_ignore_is_honoured(tmp_path):
    write_module(
        tmp_path,
        "src/repro/service/clock.py",
        SERVICE_CLOCK_TEMPLATE.format(
            annotation="  # reprolint: ignore[RPL102]"
        ),
    )
    result = lint_paths([tmp_path], select=["RPL102"])
    assert result.ok, "\n".join(v.render() for v in result.violations)


def test_rpl102_module_wide_scan_is_service_scoped(tmp_path):
    # The same source outside service/ (and outside core/ and any
    # solve_component body) is legitimate timing code.
    write_module(
        tmp_path,
        "src/repro/devtools/clock.py",
        SERVICE_CLOCK_TEMPLATE.format(annotation=""),
    )
    result = lint_paths([tmp_path], select=["RPL102"])
    assert result.ok, "\n".join(v.render() for v in result.violations)


# ----------------------------------------------------------------------
# Analysis rules stay out of plain lint runs
# ----------------------------------------------------------------------


def test_analysis_rules_excluded_without_analyze(tmp_path):
    for rel, source in {**MINI_PACKAGE, **TWO_HOP_BAD}.items():
        write_module(tmp_path, rel, source)
    result = lint_paths([tmp_path])
    assert "RPL501" not in result.rule_ids
    result = lint_paths([tmp_path], analyze=True)
    assert "RPL501" in result.rule_ids


# ----------------------------------------------------------------------
# SARIF reporter
# ----------------------------------------------------------------------


def test_sarif_golden_document(tmp_path):
    write_module(
        tmp_path,
        "src/repro/setcover/newpass.py",
        """
        def drain(pending):
            bucket = {3, 1, 2}
            out = []
            for item in bucket:
                out.append(item)
            return out
        """,
    )
    result = lint_paths([tmp_path], select=["RPL101"])
    document = json.loads(
        json.dumps(as_sarif_document(result)).replace(
            tmp_path.as_posix(), "<ROOT>"
        )
    )
    rule = get_rule("RPL101")
    (violation,) = result.violations
    assert document == {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": "docs/devtools.md",
                        "rules": [
                            {
                                "id": "RPL101",
                                "name": rule.name,
                                "shortDescription": {"text": rule.summary},
                                "fullDescription": {"text": rule.rationale},
                            }
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": "RPL101",
                        "level": "error",
                        "message": {"text": violation.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": (
                                            "<ROOT>/src/repro/setcover/"
                                            "newpass.py"
                                        )
                                    },
                                    "region": {
                                        "startLine": violation.line,
                                        "startColumn": violation.column + 1,
                                    },
                                }
                            }
                        ],
                    }
                ],
            }
        ],
    }


def test_cli_sarif_format(tmp_path, capsys):
    write_module(
        tmp_path,
        "src/repro/setcover/loop.py",
        """
        def drain(bucket):
            return [item for item in {1, 2, 3}]
        """,
    )
    exit_code = reprolint_main(["--format", "sarif", str(tmp_path)])
    document = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["results"]


# ----------------------------------------------------------------------
# --jobs parity
# ----------------------------------------------------------------------


def test_jobs_output_is_byte_identical_to_serial(tmp_path):
    for index in range(8):
        write_module(
            tmp_path,
            f"src/repro/setcover/mod{index}.py",
            f"""
            def drain{index}(pending):
                bucket = {{3, 1, {index}}}
                out = []
                for item in bucket:
                    out.append(item)
                return out
            """,
        )
    write_module(tmp_path, "src/repro/setcover/broken.py", "def oops(:\n")
    serial = render_json(lint_paths([tmp_path], jobs=1))
    pooled = render_json(lint_paths([tmp_path], jobs=4))
    assert serial == pooled
    assert '"RPL101"' in serial
    assert '"RPL000"' in serial  # the syntax error surfaces identically


# ----------------------------------------------------------------------
# CLI / collect_files path handling
# ----------------------------------------------------------------------


def test_missing_path_raises_path_error(tmp_path):
    try:
        collect_files([tmp_path / "does-not-exist"])
    except PathError as error:
        assert "does not exist" in str(error)
    else:
        raise AssertionError("PathError not raised")


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    exit_code = reprolint_main([str(tmp_path / "does-not-exist")])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "does not exist" in captured.err


def test_non_python_direct_file_is_skipped_with_warning(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_text("not python\n", encoding="utf-8")
    write_module(tmp_path, "ok.py", "x = 1\n")
    warnings: list = []
    files = collect_files([notes, tmp_path / "ok.py"], warnings=warnings)
    assert files == [tmp_path / "ok.py"]
    assert warnings and "notes.txt" in warnings[0]
    exit_code = reprolint_main([str(notes), str(tmp_path / "ok.py")])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "warning" in captured.out and "notes.txt" in captured.out


# ----------------------------------------------------------------------
# RPL001: unused suppressions
# ----------------------------------------------------------------------


def test_rpl001_flags_stale_suppression(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/stale.py",
        """
        def fine():
            return 1  # reprolint: ignore[RPL103] nothing fires here
        """,
    )
    result = lint_paths([tmp_path])
    assert rule_ids(result) == {"RPL001"}
    (violation,) = result.violations
    assert "RPL103" in violation.message


def test_rpl001_silent_for_used_suppression(tmp_path):
    write_module(
        tmp_path,
        "src/repro/setcover/used.py",
        """
        def pick(a_cost, b_cost):
            if a_cost == b_cost:  # reprolint: ignore[RPL103] exact tie
                return 0
            return 1
        """,
    )
    result = lint_paths([tmp_path])
    assert result.ok
    assert result.suppressed == 1


def test_rpl001_flags_unknown_rule_id(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/typo.py",
        "x = 1  # reprolint: ignore[RPL999] no such rule\n",
    )
    result = lint_paths([tmp_path])
    assert rule_ids(result) == {"RPL001"}
    assert "unknown rule id" in result.violations[0].message


def test_rpl001_allow_flag_silences(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/stale.py",
        "x = 1  # reprolint: ignore[RPL103] stale\n",
    )
    result = lint_paths([tmp_path], allow_unused_suppressions=True)
    assert result.ok


def test_rpl001_skips_named_rule_that_did_not_run(tmp_path):
    # On a --select run the named rule never executed, so this run
    # cannot know the suppression is dead — it must stay silent.
    write_module(
        tmp_path,
        "src/repro/engine/stale.py",
        "x = 1  # reprolint: ignore[RPL103] judged elsewhere\n",
    )
    result = lint_paths([tmp_path], select=["RPL401", "RPL001"])
    assert result.ok


def test_rpl001_bare_ignore_judged_only_on_full_analyze_run(tmp_path):
    write_module(
        tmp_path,
        "src/repro/engine/bare.py",
        "x = 1  # reprolint: ignore\n",
    )
    assert lint_paths([tmp_path]).ok  # per-file run: cannot judge
    analyzed = lint_paths([tmp_path], analyze=True)
    assert rule_ids(analyzed) == {"RPL001"}
    assert "bare" in analyzed.violations[0].message


# ----------------------------------------------------------------------
# Baseline gate
# ----------------------------------------------------------------------

BASELINE_BAD_MODULE = (
    "src/repro/engine/keys.py",
    """
    def keyed(component):
        seed = hash(component)
        return component_fingerprint(component, seed)
    """,
)


def _run_analyze(tmp_path, *extra):
    return reprolint_main(
        [
            "--analyze",
            "--select",
            "RPL502",
            *extra,
            str(tmp_path),
        ]
    )


def test_write_baseline_then_gate_passes(tmp_path, capsys):
    write_module(tmp_path, *BASELINE_BAD_MODULE)
    baseline_file = tmp_path / "baseline.json"
    assert _run_analyze(tmp_path, "--write-baseline", str(baseline_file)) == 0
    capsys.readouterr()
    document = json.loads(baseline_file.read_text(encoding="utf-8"))
    assert document["tool"] == "reprolint"
    assert len(document["findings"]) == 1
    assert document["findings"][0]["justification"] == "TODO: justify or fix"

    exit_code = _run_analyze(tmp_path, "--baseline", str(baseline_file))
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "1 matched, 0 new, 0 stale" in captured.out


def test_new_finding_fails_the_gate(tmp_path, capsys):
    write_module(tmp_path, *BASELINE_BAD_MODULE)
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(
        json.dumps({"tool": "reprolint", "version": 1, "findings": []}),
        encoding="utf-8",
    )
    exit_code = _run_analyze(tmp_path, "--baseline", str(baseline_file))
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "RPL502" in captured.out
    assert "1 new" in captured.out


def test_stale_entry_fails_the_gate(tmp_path, capsys):
    write_module(tmp_path, *BASELINE_BAD_MODULE)
    baseline_file = tmp_path / "baseline.json"
    assert _run_analyze(tmp_path, "--write-baseline", str(baseline_file)) == 0
    capsys.readouterr()
    # The flagged line gets fixed, but the baseline entry is left behind:
    # the gate must fail until the entry is deleted (shrink-only).
    write_module(
        tmp_path,
        "src/repro/engine/keys.py",
        """
        def keyed(component, salt):
            return component_fingerprint(component, salt)
        """,
    )
    exit_code = _run_analyze(tmp_path, "--baseline", str(baseline_file))
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "stale baseline entry" in captured.err


def test_baseline_keys_are_content_addressed(tmp_path):
    path = write_module(tmp_path, *BASELINE_BAD_MODULE)
    result = lint_paths([tmp_path], select=["RPL502"], analyze=True)
    keys_before = [key for _, key in finding_keys(
        result.violations, result.modules_by_path
    )]
    # Prepend unrelated code: line numbers shift, content key survives.
    path.write_text(
        "UNRELATED = 1\n\n" + path.read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    shifted = lint_paths([tmp_path], select=["RPL502"], analyze=True)
    keys_after = [key for _, key in finding_keys(
        shifted.violations, shifted.modules_by_path
    )]
    assert keys_before == keys_after
    assert shifted.violations[0].line != result.violations[0].line


def test_rewrite_preserves_justifications(tmp_path):
    write_module(tmp_path, *BASELINE_BAD_MODULE)
    result = lint_paths([tmp_path], select=["RPL502"], analyze=True)
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(
        render_baseline(result.violations, result.modules_by_path),
        encoding="utf-8",
    )
    entries = load_baseline(baseline_file)
    key = next(iter(entries))
    entries[key]["justification"] = "seed is pinned by the cache contract"
    regenerated = render_baseline(
        result.violations, result.modules_by_path, entries
    )
    assert "seed is pinned by the cache contract" in regenerated
    new, matched, stale = apply_baseline(
        result.violations, result.modules_by_path, entries
    )
    assert (new, matched, stale) == ([], 1, [])
