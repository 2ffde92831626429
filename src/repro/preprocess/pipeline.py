"""Algorithm 1: the complete preprocessing pipeline.

Runs the four pruning steps over an :class:`~repro.core.instance.MC3Instance`
and produces a :class:`PreprocessResult` holding

* the *forced* classifiers (selected by the pruning rules — they appear
  in at least one optimal solution and are paid for up front),
* the property-disjoint residual sub-instances still to be solved, each
  priced by an :class:`~repro.core.costs.OverlayCost` in which forced
  classifiers cost 0 and removed classifiers cost ``∞``, and
* a :class:`~repro.preprocess.report.PreprocessReport` of what happened.

Every solver in :mod:`repro.solvers` starts here (the paper's
Algorithms 2 and 3 both begin with "Run preprocessing procedure").
The pipeline preserves at least one optimal solution (Observations
3.1–3.4), so the k = 2 solver remains exact after it.
"""

from __future__ import annotations

import math
import time
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.core.costs import CostModel, OverlayCost
from repro.core.coverage import CoverageChecker
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier, Query, classifier_sort_key
from repro.core.solution import Solution
from repro.exceptions import UncoverableQueryError
from repro.preprocess.decompose import partition_queries
from repro.preprocess.dominated import DominatedPruner
from repro.preprocess.k2_prune import prune_k2_singletons
from repro.preprocess.report import PreprocessReport

ALL_STEPS: Tuple[int, ...] = (1, 2, 3, 4)

#: One sub-group's step-3 outcome: the classifiers removed, in removal
#: order, and the classifiers forced, in selection order.
Step3Outcome = Tuple[Tuple[Classifier, ...], Tuple[Classifier, ...]]


class Step3Lookup(Protocol):
    """What :func:`preprocess` needs of a step-3 memo: whether a
    sub-group is worth a key, and a lookup in which the ``None`` key
    (an unkeyed sub-group) always misses."""

    def recurs(self, group: Sequence[Query]) -> bool: ...

    def get(self, key: Optional[Hashable]) -> Optional[Step3Outcome]: ...

    def put(self, key: Hashable, outcome: Step3Outcome) -> None: ...


class _InstanceCost(CostModel):
    """Adapter exposing ``MC3Instance.weight`` (which honours the
    instance-level classifier length cap) as a cost model.

    Weights are memoised: lazy models (hash costs) pay a digest per
    lookup and preprocessing queries the same classifiers many times.
    """

    def __init__(self, instance: MC3Instance):
        self._instance = instance
        self._cache: Dict[Classifier, float] = {}

    def cost(self, clf: Classifier) -> float:
        cached = self._cache.get(clf)
        if cached is None:
            cached = self._instance.weight(clf)
            self._cache[clf] = cached
        return cached

    def content_token(self, scope):
        # Memoisation never changes pricing, so the adapter is exactly
        # as content-addressable as the instance it wraps.
        return self._instance.cost_content_token(scope)


class PreprocessResult:
    """Outcome of running Algorithm 1 on an instance."""

    def __init__(
        self,
        instance: MC3Instance,
        forced: FrozenSet[Classifier],
        overlay: OverlayCost,
        components: List[MC3Instance],
        report: PreprocessReport,
    ):
        self.instance = instance
        self.forced = forced
        self.overlay = overlay
        self.components = components
        self.report = report
        # Sorted accumulation: float addition is order-sensitive, and
        # ``forced`` is a set — summing in hash order would make the
        # reported base cost depend on the interpreter's hash seed.
        self.base_cost = sum(
            instance.weight(clf) for clf in sorted(forced, key=classifier_sort_key)
        )

    @property
    def fully_covered(self) -> bool:
        """Whether preprocessing alone covered the entire query load."""
        return not self.components

    def finalize(self, residual_classifiers: Iterable[Classifier] = ()) -> Solution:
        """Combine the forced selections with a residual solution into a
        full solution priced against the *original* instance."""
        union = set(self.forced)
        union.update(residual_classifiers)
        return Solution.from_instance(union, self.instance)


def preprocess(
    instance: MC3Instance,
    steps: Sequence[int] = ALL_STEPS,
    memo: Optional[Step3Lookup] = None,
) -> PreprocessResult:
    """Run (a subset of) Algorithm 1.

    ``steps`` selects which pruning steps run — the ablation benchmarks
    disable them individually.  Step 4 runs only on residual components
    whose queries all have length exactly 2 (its precondition).  When
    steps 1 and 2 both run, step 3 runs per free-property sub-group
    (docs/algorithms.md §2).  ``memo`` (a
    :class:`~repro.engine.cache.Step3MemoRun`) replays the step-3
    outcome of a sub-group it has seen instead of pruning it again; the
    result is the same either way.
    """
    started = time.perf_counter()
    step_set = set(steps)
    unknown = step_set - set(ALL_STEPS)
    if unknown:
        raise ValueError(f"unknown preprocessing steps: {sorted(unknown)}")

    report = PreprocessReport(steps_run=tuple(sorted(step_set)))
    overlay = OverlayCost(_InstanceCost(instance))
    forced: Dict[Classifier, None] = {}  # insertion-ordered set

    def select(clf: Classifier) -> None:
        overlay.select(clf)
        forced.setdefault(clf, None)

    # ------------------------------------------------------------------
    # Step 1: singleton queries and zero-weight classifiers.
    # ------------------------------------------------------------------
    if 1 in step_set:
        for q in instance.queries:
            if len(q) == 1:
                if not math.isfinite(instance.weight(q)):
                    raise UncoverableQueryError(q)
                select(q)
                report.singleton_queries_selected += 1
        scan_zero = _may_have_zero_weights(instance)
        if scan_zero:
            seen: Set[Classifier] = set()
            for q in instance.queries:
                for clf in instance.candidates(q):
                    if clf not in seen:
                        seen.add(clf)
                        if instance.weight(clf) == 0:
                            select(clf)
                            report.zero_weight_selected += 1

    checker = CoverageChecker(instance.queries)
    uncovered = checker.uncovered_queries(forced) if forced else list(instance.queries)
    report.queries_covered_step1 = instance.n - len(uncovered)

    # ------------------------------------------------------------------
    # Step 2: decomposition into property-disjoint components.
    # ------------------------------------------------------------------
    if 2 in step_set:
        groups = partition_queries(uncovered) if uncovered else []
    else:
        groups = [list(uncovered)] if uncovered else []
    report.num_components = len(groups)

    # ------------------------------------------------------------------
    # Step 3, per free-property sub-group; step 4, per component.
    # ------------------------------------------------------------------
    if 3 in step_set:
        # Properties whose singleton step 1 selected: weight 0 from now on.
        free = {next(iter(clf)) for clf in forced if len(clf) == 1}
        step3_groups = groups
        if free and 2 in step_set and uncovered:
            # Classifiers made only of free properties are the one thing
            # sub-groups share (docs/algorithms.md §2): settle them first,
            # once, with the pruner's own removal pass.
            free_parts = [q & free for q in uncovered]
            free_parts = [part for part in free_parts if len(part) >= 2]
            if free_parts:
                pruner = DominatedPruner(
                    free_parts, overlay, instance.max_classifier_length
                )
                removed_count, _ = pruner.run(())
                report.classifiers_removed_step3 += removed_count
            step3_groups = partition_queries(uncovered, ignore=free)
        for group in step3_groups:
            removed, forced_now = _prune_dominated(instance, group, overlay, memo, free)
            report.classifiers_removed_step3 += len(removed)
            report.forced_covers_step3 += len(forced_now)
            for clf in forced_now:
                forced.setdefault(clf, None)
    if 4 in step_set:
        for group in groups:
            if group and all(len(q) == 2 for q in group):
                removed_singletons, forced_pairs = prune_k2_singletons(group, overlay)
                report.singletons_removed_step4 += len(removed_singletons)
                for clf in forced_pairs:
                    forced.setdefault(clf, None)

    # ------------------------------------------------------------------
    # Residual components: queries still uncovered after all selections.
    # ------------------------------------------------------------------
    final_uncovered = checker.uncovered_queries(forced) if forced else uncovered
    report.queries_covered_step34 = len(uncovered) - len(final_uncovered)

    components: List[MC3Instance] = []
    residual_groups = (
        partition_queries(final_uncovered) if 2 in step_set else (
            [final_uncovered] if final_uncovered else []
        )
    )
    for index, group in enumerate(residual_groups):
        if not group:
            continue
        components.append(
            MC3Instance(
                group,
                overlay,
                max_classifier_length=instance.max_classifier_length,
                name=f"{instance.name}#c{index}" if instance.name else f"component{index}",
            )
        )

    report.elapsed_seconds = time.perf_counter() - started
    return PreprocessResult(
        instance,
        frozenset(forced),
        overlay,
        components,
        report,
    )


def _prune_dominated(
    instance: MC3Instance,
    group: List[Query],
    overlay: OverlayCost,
    memo: Optional[Step3Lookup],
    free: Set[str],
) -> Step3Outcome:
    """Step 3 over one sub-group: ``(removed, forced)``, both in order."""
    key = None
    if memo is not None and memo.recurs(group):
        key = _step3_key(instance, group, free)
    outcome = memo.get(key) if memo is not None else None
    if outcome is not None:
        # Selections first: a forced classifier the pruner later
        # removed must end removed, as it did the first time.
        removed, forced_now = outcome
        for clf in forced_now:
            overlay.select(clf)
        for clf in removed:
            overlay.remove(clf)
        return outcome
    pruner = DominatedPruner(group, overlay, instance.max_classifier_length)
    _, forced_now = pruner.run(group)
    outcome = (tuple(pruner.removed), tuple(forced_now))
    if key is not None:
        memo.put(key, outcome)
    return outcome


def _step3_key(
    instance: MC3Instance, group: List[Query], free: Set[str]
) -> Optional[Hashable]:
    """The memo key of a sub-group, or ``None`` when its pricing has no
    content token.

    It pins everything the pruner reads: the queries in order, the
    length cap, the pricing inside the sub-group's properties, and the
    step-1 selections there.  Of those selections, only the free
    singletons change a price (every other one is a zero-weight
    classifier the token already prices at 0), so the free properties
    in scope stand for them.  Free-only classifiers were settled
    before, from those same inputs, and no other sub-group prices a
    classifier inside this scope.
    """
    scope = sorted({prop for q in group for prop in q})
    token = instance.cost_content_token(scope)
    if token is None:
        return None
    return (
        tuple(group),
        instance.max_classifier_length,
        token,
        tuple(prop for prop in scope if prop in free),
    )


def _may_have_zero_weights(instance: MC3Instance) -> bool:
    """Skip the zero-weight scan when the cost model provably has none.

    Lazy models used by the large synthetic loads draw costs from
    ``[1, 50]``; scanning millions of candidates for zeros would be pure
    waste there.
    """
    model = instance.cost
    low = getattr(model, "low", None)
    if low is not None and low > 0:
        return False
    value = getattr(model, "value", None)
    if value is not None and value > 0:
        return False
    return True
