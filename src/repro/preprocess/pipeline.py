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
    Container,
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


class GroupRecord(NamedTuple):
    """A step-2 group the plan memo stored, filed under its first query:
    its queries in order, their properties (``props``, sorted in
    ``scope``), the token of the plan's pricing over the scope (the
    length cap included) and the group's outcome.  With the plan's
    steps, engine token and free properties, that is everything the
    outcome was derived from (see :func:`_carries`)."""

    queries: List[Query]
    props: FrozenSet[str]
    scope: Tuple[str, ...]
    token: bytes
    outcome: GroupOutcome


class ComponentRecord:
    """A residual component the plan memo kept, filed under its first
    query: the clean outcome the engine served from the cache or could
    insert into it, and the component it was solved as.

    Its pricing over the component's sorted properties (``scope``,
    :func:`component_pricing`) is read only when a later plan first
    tries to carry it, so a plan whose components never recur pays
    nothing for it.  The base model's part of it is the token the
    component's fingerprint read when it was solved
    (:meth:`_InstanceCost.token_read`), not a fresh one: a caller's cost
    model that changed in place since must not pass for the old one.
    The overrides are the plan's own overlay's, which nothing edits
    after its plan."""

    __slots__ = ("queries", "outcome", "_component", "_scope", "_pricing")

    def __init__(self, component: MC3Instance, outcome: object):
        self.queries = component.queries
        self.outcome = outcome
        self._component: Optional[MC3Instance] = component
        self._scope: Tuple[str, ...] = ()
        self._pricing: Optional[Tuple[bytes, Dict[Classifier, float]]] = None

    def carries(self, part: List[Query], overlay: OverlayCost) -> bool:
        """Whether ``part``, priced by ``overlay``, is this component:
        the same queries in the same order, priced the same in scope."""
        if self.queries != tuple(part):
            return False
        component = self._component
        if component is not None:
            self._component = None
            self._scope = scope = tuple(sorted(component.properties))
            base = component.cost.base.token_read(scope)
            if base is not None:
                self._pricing = base, component.cost.overrides_in(scope)
        return self._pricing is not None and (
            component_pricing(overlay, self._scope) == self._pricing
        )


def component_pricing(
    overlay: OverlayCost, scope: Sequence[str]
) -> Optional[Tuple[bytes, Dict[Classifier, float]]]:
    """What the overlay's token over ``scope`` digests: the base model's
    token and the overrides inside the scope (``None`` without a base
    token).  Two of these are equal exactly when the two tokens are, so
    a carried component compares them instead of hashing."""
    base = overlay.base.content_token(scope)
    if base is None:
        return None
    return base, overlay.overrides_in(scope)


class PlanRecords(NamedTuple):
    """What one plan leaves the next to carry over: its stored step-2
    groups and its kept residual components, each by first query.
    Every record assumes the plan's ``engine`` (steps and engine
    token), and the groups its step-1 ``free`` properties; ``queries``
    holds the plan's uncovered queries (see
    :meth:`~repro.engine.cache.Step3MemoRun.recurs`)."""

    engine: Hashable
    free: Set[str]
    queries: Container[Query]
    groups: Dict[Query, GroupRecord]
    components: Dict[Query, ComponentRecord]


class Step3Lookup(Protocol):
    """What :func:`preprocess` needs of the plan memo: the previous
    plan's records, whether a group is worth a record or a key, and
    sub-group lookups in which the ``None`` key (an unkeyed sub-group)
    always misses.  ``token`` pins what the engine adds to a step-2
    group's outcome (solver, routes, rung); ``None`` turns the
    whole-group and component granularities off.  Preprocessing sets
    ``plan``, this plan's records, and counts the step-2 groups it does
    not carry over in ``group_misses``."""

    token: Optional[Hashable]
    previous: Optional[PlanRecords]
    plan: Optional[PlanRecords]
    group_misses: int

    def recurs(self, group: Sequence[Query]) -> bool: ...

    def get(self, key: Optional[Hashable]) -> Optional[Step3Outcome]: ...

    def put(self, key: Hashable, outcome: Step3Outcome) -> None: ...

    def carry_group(self, record: GroupRecord) -> None: ...

    def carry_component(self, record: ComponentRecord) -> None: ...


class PendingGroup:
    """A step-2 group this plan preprocessed and may store, with its
    share of the report; the engine stores it once its components are
    solved."""

    __slots__ = (
        "queries",
        "props",
        "scope",
        "token",
        "size",
        "forced",
        "removed_step3",
        "forced_covers_step3",
        "singletons_removed_step4",
        "residual",
        "components",
        "step3",
    )

    def __init__(
        self, queries: List[Query], props: FrozenSet[str], scope: Tuple[str, ...], token: bytes
    ):
        self.queries = queries
        self.props = props
        self.scope = scope
        self.token = token
        self.size = len(queries)
        self.forced: List[Classifier] = []
        self.removed_step3 = 0
        self.forced_covers_step3 = 0
        self.singletons_removed_step4 = 0
        self.residual = 0
        #: ``(component index, first query)`` of its residual components.
        self.components: List[Tuple[int, Query]] = []
        self.step3: List[Tuple[Hashable, Step3Outcome]] = []

    def record(self, solved: Sequence[object]) -> GroupRecord:
        """The memo record, given each component's solved outcome."""
        return GroupRecord(
            self.queries, self.props, self.scope, self.token, self.outcome(solved)
        )

    def outcome(self, solved: Sequence[object]) -> GroupOutcome:
        """The group's outcome, given each component's solved outcome."""
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
        self._tokens: Dict[Tuple[str, ...], Optional[bytes]] = {}

    def cost(self, clf: Classifier) -> float:
        cached = self._cache.get(clf)
        if cached is None:
            cached = self._instance.weight(clf)
            self._cache[clf] = cached
        return cached

    def content_token(self, scope):
        # Memoisation never changes pricing, so the adapter is exactly
        # as content-addressable as the instance it wraps.
        token = self._instance.cost_content_token(scope)
        self._tokens[tuple(scope)] = token
        return token

    def token_read(self, scope: Tuple[str, ...]) -> Optional[bytes]:
        """The token :meth:`content_token` last returned for ``scope``,
        ``None`` if it was never asked: what the instance's pricing was
        then, whatever it is now."""
        return self._tokens.get(scope)


class PreprocessResult:
    """Outcome of running Algorithm 1 on an instance.

    ``components`` are the residual components still to be solved and
    ``indices`` their positions in the plan's component order.  With a
    plan memo, ``replayed`` holds ``(position, stored outcome)`` for the
    components of the step-2 groups carried over whole and for the
    residual components carried over, and ``pending_groups`` the groups
    preprocessed afresh that the memo may store.
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
    plan kept: whole step-2 groups, with their solved components, and
    the residual components it solved cleanly (both handed back in
    :attr:`PreprocessResult.replayed`), and the step-3 outcome of each
    sub-group of the groups it did not replay.  The result is the same
    either way.
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

    # A step-2 group the previous plan stored is carried over whole when
    # nothing its outcome was derived from has moved (docs/algorithms.md
    # §2); the rest go through steps 3 and 4.
    token = memo.token if memo is not None else None
    engine = (tuple(sorted(step_set)), token)
    position: Dict[Query, int] = {}
    previous: Optional[PlanRecords] = None
    if memo is not None:
        position = dict(zip(uncovered, range(len(uncovered))))
        memo.plan = PlanRecords(engine, free, position, {}, {})
        if token is not None and memo.previous is not None:
            if memo.previous.engine == engine:
                previous = memo.previous
    # Properties that turned free or stopped being free since.
    changed = free ^ previous.free if previous is not None else set()
    replayed: List[Tuple[Query, object]] = []
    fresh: List[List[Query]] = []
    pending_groups: List[PendingGroup] = []
    owner: Dict[Query, PendingGroup] = {}
    for group in groups:
        if token is not None:
            record = previous.groups.get(group[0]) if previous is not None else None
            if record is not None and _carries(record, group, changed, instance):
                memo.carry_group(record)
                _replay_group(record.outcome, forced, report)
                replayed.extend(record.outcome.components)
                continue
            memo.group_misses += 1
            if memo.recurs(group):
                props = frozenset().union(*group)
                scope = tuple(sorted(props))
                scoped = instance.cost_content_token(scope)
                if scoped is not None:
                    pending_group = PendingGroup(group, props, scope, scoped)
                    pending_groups.append(pending_group)
                    owner.update(dict.fromkeys(group, pending_group))
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
            # once, with the pruner's own removal pass.  Most pending
            # queries hold no free property; those skip the intersection.
            free_parts = [q & free for q in pending if not free.isdisjoint(q)]
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
        slots.extend((first, None, stored) for first, stored in replayed)
        slots.sort(key=lambda slot: position[slot[0]])

    # A residual component the previous plan solved cleanly is carried
    # over when it has the same queries in the same order and the
    # overlay prices its properties as it did then; the rest are built
    # and solved (or served by the cache).
    kept = previous.components if previous is not None else {}
    components: List[MC3Instance] = []
    indices: List[int] = []
    replays: List[Tuple[int, object]] = []
    for index, (first, part, stored) in enumerate(slots):
        if part is None:
            replays.append((index, stored))
            continue
        carried = kept.get(first) if kept else None
        if carried is not None and carried.carries(part, overlay):
            memo.carry_component(carried)
            replays.append((index, carried.outcome))
        else:
            components.append(
                MC3Instance(
                    part,
                    overlay,
                    max_classifier_length=instance.max_classifier_length,
                    name=(
                        f"{instance.name}#c{index}" if instance.name else f"component{index}"
                    ),
                )
            )
            indices.append(index)
        pending_group = owner.get(first) if owner else None
        if pending_group is not None:
            pending_group.components.append((index, first))
            pending_group.residual += len(part)

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


def _carries(
    record: GroupRecord, group: List[Query], changed: Set[str], instance: MC3Instance
) -> bool:
    """Whether a stored step-2 group stands for ``group`` in this plan.

    The caller has checked the steps and the engine token (the solver's
    cache token, the routes and the primary rung: everything a component
    fingerprint pins beyond content).  What is left is what
    :func:`_step3_key` pins for the group's queries: the queries in
    order, the pricing over their properties with the length cap, and
    the free properties among them, unchanged when none of the
    properties whose freedom ``changed`` is one of them.  Steps 3 and 4
    and the residual components read prices inside the group's
    properties only, and no other group writes there.
    """
    return (
        record.queries == group
        and changed.isdisjoint(record.props)
        and instance.cost_content_token(record.scope) == record.token
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
