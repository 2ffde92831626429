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
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.core.costs import CostModel, OverlayCost
from repro.core.coverage import CoverageChecker
from repro.core.instance import MC3Instance
from repro.core.kernels.pyjit import DominatedPruner
from repro.core.properties import Classifier, Query, canonical_sum
from repro.core.solution import Solution
from repro.exceptions import UncoverableQueryError
from repro.preprocess.decompose import partition_queries
from repro.preprocess.k2_prune import prune_k2_singletons
from repro.preprocess.report import PreprocessReport

ALL_STEPS: Tuple[int, ...] = (1, 2, 3, 4)

#: One sub-group's step-3 outcome: the classifiers removed, in removal
#: order, and the classifiers forced, in selection order.
Step3Outcome = Tuple[Tuple[Classifier, ...], Tuple[Classifier, ...]]


class GroupOutcome(NamedTuple):
    """One step-2 group's whole outcome in a plan, for the plan memo.

    ``forced`` are the classifiers steps 3 and 4 forced in the group;
    ``counts`` its share of ``classifiers_removed_step3``,
    ``forced_covers_step3``, ``singletons_removed_step4`` and
    ``queries_covered_step34``; ``components`` its residual components
    as ``(first query, solved outcome)``, where the outcome is whatever
    the engine stored; ``step3`` the sub-group memo entries the group
    used, which a replay keeps alive for the next plan.
    """

    forced: Tuple[Classifier, ...]
    counts: Tuple[int, int, int, int]
    components: Tuple[Tuple[Query, object], ...]
    step3: Tuple[Tuple[Hashable, Step3Outcome], ...]


class Step3Lookup(Protocol):
    """What :func:`preprocess` needs of the plan memo: whether a group
    is worth a key, and lookups in which the ``None`` key (an unkeyed
    group) always misses.  ``token`` pins what the engine adds to a
    step-2 group's outcome (solver, routes, rung); ``None`` turns the
    whole-group granularity off."""

    token: Optional[Hashable]

    def recurs(self, group: Sequence[Query]) -> bool: ...

    def get(self, key: Optional[Hashable]) -> Optional[Step3Outcome]: ...

    def put(self, key: Hashable, outcome: Step3Outcome) -> None: ...

    def get_group(self, key: Optional[Hashable]) -> Optional[GroupOutcome]: ...


class PendingGroup:
    """A keyed step-2 group this plan preprocessed, with its share of the
    report; the engine stores it once its components are solved."""

    __slots__ = (
        "key",
        "size",
        "forced",
        "removed_step3",
        "forced_covers_step3",
        "singletons_removed_step4",
        "residual",
        "components",
        "step3",
    )

    def __init__(self, key: Hashable, size: int):
        self.key = key
        self.size = size
        self.forced: List[Classifier] = []
        self.removed_step3 = 0
        self.forced_covers_step3 = 0
        self.singletons_removed_step4 = 0
        self.residual = 0
        #: ``(component index, first query)`` of its residual components.
        self.components: List[Tuple[int, Query]] = []
        self.step3: List[Tuple[Hashable, Step3Outcome]] = []

    def outcome(self, solved: Sequence[object]) -> GroupOutcome:
        """The memo entry, given each component's solved outcome."""
        return GroupOutcome(
            tuple(self.forced),
            (
                self.removed_step3,
                self.forced_covers_step3,
                self.singletons_removed_step4,
                self.size - self.residual,
            ),
            tuple((first, done) for (_, first), done in zip(self.components, solved)),
            tuple(self.step3),
        )


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
    """Outcome of running Algorithm 1 on an instance.

    ``components`` are the residual components still to be solved and
    ``indices`` their positions in the plan's component order.  With a
    plan memo, ``replayed`` holds ``(position, stored outcome)`` for the
    components of the step-2 groups replayed whole, and
    ``pending_groups`` the keyed groups preprocessed afresh.
    """

    def __init__(
        self,
        instance: MC3Instance,
        forced: FrozenSet[Classifier],
        overlay: OverlayCost,
        components: List[MC3Instance],
        report: PreprocessReport,
        indices: Optional[List[int]] = None,
        replayed: Sequence[Tuple[int, object]] = (),
        pending_groups: Sequence[PendingGroup] = (),
    ):
        self.instance = instance
        self.forced = forced
        self.overlay = overlay
        self.components = components
        self.report = report
        self.indices = list(range(len(components))) if indices is None else indices
        self.replayed = list(replayed)
        self.pending_groups = list(pending_groups)
        # Canonical accumulation: float addition is order-sensitive, and
        # ``forced`` is a set — summing in hash order would make the
        # reported base cost depend on the interpreter's hash seed.
        self.base_cost = canonical_sum(instance.weight, forced)

    @property
    def fully_covered(self) -> bool:
        """Whether preprocessing alone covered the entire query load."""
        return not self.components and not self.replayed

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
    :class:`~repro.engine.cache.Step3MemoRun`) replays what the previous
    plan stored: whole step-2 groups, with their solved components
    (handed back in :attr:`PreprocessResult.replayed`), and the step-3
    outcome of each sub-group of the groups it did not replay.  The
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

    step1_forced = list(forced)
    uncovered = (
        CoverageChecker(instance.queries).uncovered_queries(step1_forced)
        if forced
        else list(instance.queries)
    )
    report.queries_covered_step1 = instance.n - len(uncovered)

    # ------------------------------------------------------------------
    # Step 2: decomposition into property-disjoint components.
    # ------------------------------------------------------------------
    if 2 in step_set:
        groups = partition_queries(uncovered) if uncovered else []
    else:
        groups = [list(uncovered)] if uncovered else []
    report.num_components = len(groups)

    # Properties whose singleton step 1 selected: weight 0 from now on.
    free = {next(iter(clf)) for clf in step1_forced if len(clf) == 1}

    # A step-2 group the previous plan stored is replayed whole; the
    # rest go through steps 3 and 4 (docs/algorithms.md §2).
    token = memo.token if memo is not None else None
    engine = (tuple(sorted(step_set)), token)
    replayed: List[Tuple[Query, object]] = []
    fresh: List[List[Query]] = []
    pending_groups: List[PendingGroup] = []
    owner: Dict[Query, PendingGroup] = {}
    for group in groups:
        if token is not None:
            key = None
            if memo.recurs(group):
                key = _group_key(instance, group, free, engine)
            outcome = memo.get_group(key)
            if outcome is not None:
                _replay_group(outcome, forced, report)
                replayed.extend(outcome.components)
                continue
            if key is not None:
                record = PendingGroup(key, len(group))
                pending_groups.append(record)
                owner.update(dict.fromkeys(group, record))
        fresh.append(group)
    pending = uncovered if len(fresh) == len(groups) else [q for g in fresh for q in g]

    # ------------------------------------------------------------------
    # Step 3, per free-property sub-group; step 4, per component.
    # ------------------------------------------------------------------
    fresh_forced: List[Classifier] = []
    if 3 in step_set:
        split = bool(free) and 2 in step_set
        step3_groups = fresh
        if split and pending:
            # Classifiers made only of free properties are the one thing
            # sub-groups share (docs/algorithms.md §2): settle them first,
            # once, with the pruner's own removal pass.
            free_parts = [q & free for q in pending]
            free_parts = [part for part in free_parts if len(part) >= 2]
            if free_parts:
                pruner = DominatedPruner(
                    free_parts, overlay, instance.max_classifier_length
                )
                removed_count, _ = pruner.run(())
                report.classifiers_removed_step3 += removed_count
                if owner:
                    _charge_free_removals(pruner.removed, owner, free)
            step3_groups = partition_queries(pending, ignore=free)
        for group in step3_groups:
            key = None
            if memo is not None and memo.recurs(group):
                key = _step3_key(instance, group, free)
            removed, forced_now = _prune_dominated(instance, group, overlay, memo, key)
            report.classifiers_removed_step3 += len(removed)
            report.forced_covers_step3 += len(forced_now)
            fresh_forced.extend(forced_now)
            record = owner.get(group[0]) if owner else None
            if record is not None:
                record.removed_step3 += len(removed)
                record.forced_covers_step3 += len(forced_now)
                record.forced.extend(forced_now)
                if key is not None:
                    record.step3.append((key, (removed, forced_now)))
    if 4 in step_set:
        for group in fresh:
            if group and all(len(q) == 2 for q in group):
                removed_singletons, forced_pairs = prune_k2_singletons(group, overlay)
                report.singletons_removed_step4 += len(removed_singletons)
                fresh_forced.extend(forced_pairs)
                record = owner.get(group[0]) if owner else None
                if record is not None:
                    record.singletons_removed_step4 += len(removed_singletons)
                    record.forced.extend(forced_pairs)
    for clf in fresh_forced:
        forced.setdefault(clf, None)

    # ------------------------------------------------------------------
    # Residual components: queries still uncovered after all selections.
    # Only the fresh groups' queries can be: a replayed group's residual
    # is stored, and no other group's selection reaches into it.
    # ------------------------------------------------------------------
    final_uncovered = pending
    if fresh_forced:
        final_uncovered = CoverageChecker(pending).uncovered_queries(
            step1_forced + fresh_forced
        )
    report.queries_covered_step34 += len(pending) - len(final_uncovered)

    residual_groups = (
        partition_queries(final_uncovered) if 2 in step_set else (
            [final_uncovered] if final_uncovered else []
        )
    )
    slots: List[Tuple[Query, Optional[List[Query]], object]] = [
        (group[0], group, None) for group in residual_groups
    ]
    if len(fresh) < len(groups):
        # Components keep the order of their first queries in the load.
        position = {q: i for i, q in enumerate(uncovered)}
        slots.extend((first, None, stored) for first, stored in replayed)
        slots.sort(key=lambda slot: position[slot[0]])

    components: List[MC3Instance] = []
    indices: List[int] = []
    replays: List[Tuple[int, object]] = []
    for index, (first, part, stored) in enumerate(slots):
        if part is None:
            replays.append((index, stored))
            continue
        components.append(
            MC3Instance(
                part,
                overlay,
                max_classifier_length=instance.max_classifier_length,
                name=f"{instance.name}#c{index}" if instance.name else f"component{index}",
            )
        )
        indices.append(index)
        record = owner.get(first) if owner else None
        if record is not None:
            record.components.append((index, first))
            record.residual += len(part)

    report.elapsed_seconds = time.perf_counter() - started
    return PreprocessResult(
        instance,
        frozenset(forced),
        overlay,
        components,
        report,
        indices=indices,
        replayed=replays,
        pending_groups=pending_groups,
    )


def _replay_group(
    outcome: GroupOutcome, forced: Dict[Classifier, None], report: PreprocessReport
) -> None:
    """Apply a stored group's forced classifiers and report counts.

    Its overlay edits are not replayed: they lie inside the group's own
    properties, where nothing in this plan prices any more.
    """
    for clf in outcome.forced:
        forced.setdefault(clf, None)
    removed, covers, singletons, covered = outcome.counts
    report.classifiers_removed_step3 += removed
    report.forced_covers_step3 += covers
    report.singletons_removed_step4 += singletons
    report.queries_covered_step34 += covered


def _charge_free_removals(
    removed: Iterable[Classifier], owner: Dict[Query, PendingGroup], free: Set[str]
) -> None:
    """Charge each free-only removal to the keyed group it lies in.

    A free-only classifier is a subset of one query's free properties,
    so all of them belong to one step-2 group; its first one names it.
    """
    by_property = {
        prop: record for q, record in owner.items() for prop in q if prop in free
    }
    for clf in removed:
        record = by_property.get(next(iter(clf)))
        if record is not None:
            record.removed_step3 += 1


def _prune_dominated(
    instance: MC3Instance,
    group: List[Query],
    overlay: OverlayCost,
    memo: Optional[Step3Lookup],
    key: Optional[Hashable],
) -> Step3Outcome:
    """Step 3 over one sub-group: ``(removed, forced)``, both in order."""
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
    props = set().union(*group)
    token = instance.cost_content_token(sorted(props))
    if token is None:
        return None
    return (
        tuple(group),
        instance.max_classifier_length,
        token,
        tuple(sorted(props & free)),
    )


def _group_key(
    instance: MC3Instance, group: List[Query], free: Set[str], engine: Hashable
) -> Optional[Hashable]:
    """The memo key of a step-2 group, or ``None`` when its pricing has
    no content token.

    On top of what :func:`_step3_key` pins for the group's queries, it
    pins ``engine``: the steps that run, the solver's cache token, the
    routes and the primary rung, everything a component fingerprint
    pins beyond content.  Steps 3 and 4 and the residual components
    read prices inside the group's properties only, and no other group
    writes there.
    """
    content = _step3_key(instance, group, free)
    return None if content is None else (content, engine)


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
