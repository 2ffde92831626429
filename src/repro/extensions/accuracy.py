"""Accuracy-aware classifier construction (Section 8 future work).

The paper fixes every classifier's accuracy at an implicit threshold
("the cost of each classifier is fixed to match a predefined (implicit)
accuracy threshold") and names the cost/accuracy trade-off as future
work.  This extension models it:

* every classifier comes in *tiers* — (cost, accuracy) pairs; more
  labelled data buys higher accuracy;
* answering a query through a conjunction of classifiers multiplies
  their error-free probabilities, so a query ``q`` with requirement
  ``τ_q`` is covered by picks ``{(c_i, a_i)}`` iff ``⋃ c_i = q`` and
  ``Π a_i ≥ τ_q``;
* the goal is again minimum total cost.

Algorithms:

* :func:`min_cover_with_accuracy` — exact single-query optimum via a DP
  over (property mask, quantised accuracy budget);
* :class:`AccuracyAwarePlanner` — a Local-Greedy-style global loop with
  *tier upgrades*: a classifier already bought at a low tier can be
  upgraded by paying the cost difference (relabelling more data), so
  sharing across queries stays beneficial.

Choosing fewer, longer classifiers now has a second advantage the paper
hints at: a single classifier must clear ``τ`` alone, while a conjunction
of three must clear it jointly — exactly the trade-off this model makes
quantifiable.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.properties import Classifier, Query, iter_nonempty_subsets
from repro.exceptions import InvalidInstanceError, UncoverableQueryError


class Tier(NamedTuple):
    """One buying option for a classifier."""

    cost: float
    accuracy: float


def validate_tiers(clf: Classifier, tiers: Sequence[Tier]) -> Tuple[Tier, ...]:
    """Tiers must have positive finite cost ordering and accuracy in
    (0, 1]; they are normalised to strictly-improving (cost, accuracy)
    pairs (dominated tiers dropped)."""
    if not tiers:
        raise InvalidInstanceError(f"classifier {sorted(clf)!r} has no tiers")
    cleaned = []
    for tier in tiers:
        cost, accuracy = float(tier[0]), float(tier[1])
        if cost < 0 or math.isnan(cost) or math.isinf(cost):
            raise InvalidInstanceError(f"tier cost must be finite >= 0, got {cost}")
        if not 0 < accuracy <= 1:
            raise InvalidInstanceError(f"tier accuracy must be in (0, 1], got {accuracy}")
        cleaned.append(Tier(cost, accuracy))
    cleaned.sort()
    result: List[Tier] = []
    for tier in cleaned:
        if result and tier.accuracy <= result[-1].accuracy:
            continue  # dominated: costs more (or equal), no better accuracy
        result.append(tier)
    return tuple(result)


class TieredCostModel:
    """Maps classifiers to their buying tiers.

    Built either from an explicit table or from a base
    :class:`~repro.core.costs.CostModel` plus a *accuracy curve*: tier
    ``i`` costs ``base · multiplier_i`` and reaches ``accuracy_i``
    (labelled-example counts scale superlinearly with target accuracy).
    """

    def __init__(self, table: Mapping[Classifier, Sequence[Tier]]):
        self._table: Dict[Classifier, Tuple[Tier, ...]] = {}
        for clf, tiers in table.items():
            key = frozenset(clf)
            self._table[key] = validate_tiers(key, [Tier(*t) for t in tiers])

    @classmethod
    def from_cost_model(
        cls,
        base,
        queries: Iterable[Query],
        accuracies: Sequence[float] = (0.9, 0.95, 0.99),
        multipliers: Sequence[float] = (1.0, 1.7, 3.0),
        max_classifier_length: Optional[int] = None,
    ) -> "TieredCostModel":
        """Derive tiers for every finite-cost candidate classifier of the
        query load."""
        if len(accuracies) != len(multipliers):
            raise InvalidInstanceError("accuracies and multipliers must align")
        table: Dict[Classifier, List[Tier]] = {}
        for q in queries:
            for clf in iter_nonempty_subsets(q, max_classifier_length):
                if clf in table:
                    continue
                cost = base.cost(clf)
                if math.isfinite(cost):
                    table[clf] = [
                        Tier(cost * m, a) for m, a in zip(multipliers, accuracies)
                    ]
        return cls(table)

    def tiers(self, clf: Classifier) -> Tuple[Tier, ...]:
        return self._table.get(frozenset(clf), ())

    def classifiers(self) -> List[Classifier]:
        return sorted(self._table, key=lambda c: (len(c), tuple(sorted(c))))

    def __contains__(self, clf: Classifier) -> bool:
        return frozenset(clf) in self._table


class TierPick(NamedTuple):
    """A purchased (classifier, tier) pair."""

    classifier: Classifier
    tier: Tier


class AccuracyCover(NamedTuple):
    """Minimum-cost accuracy-feasible cover of one query."""

    picks: Tuple[TierPick, ...]
    cost: float
    accuracy: float


#: Quantisation steps for the accuracy-budget dimension of the DP.
DEFAULT_RESOLUTION = 200


def min_cover_with_accuracy(
    q: Query,
    model: TieredCostModel,
    threshold: float,
    upgrades: Optional[Mapping[Classifier, Tier]] = None,
    resolution: int = DEFAULT_RESOLUTION,
) -> Optional[AccuracyCover]:
    """Exact (up to quantisation) single-query optimum.

    DP over ``(covered mask, consumed accuracy budget)`` where the budget
    is ``-ln(threshold)`` cut into ``resolution`` steps and each pick
    consumes ``ceil(-ln(accuracy) / step)`` — a conservative rounding, so
    the returned cover always truly satisfies the threshold.

    ``upgrades`` prices already-bought classifiers: a tier's incremental
    cost is ``max(0, tier.cost - bought.cost)``.
    """
    if not 0 < threshold <= 1:
        raise InvalidInstanceError(f"threshold must be in (0, 1], got {threshold}")
    props = sorted(q)
    index = {prop: i for i, prop in enumerate(props)}
    full = (1 << len(props)) - 1
    budget_total = -math.log(threshold)
    step = budget_total / resolution if budget_total > 0 else 0.0

    def units(accuracy: float) -> int:
        if accuracy >= 1.0:
            return 0
        if step == 0.0:
            return resolution + 1  # any inaccuracy breaks a τ = 1 requirement
        return math.ceil((-math.log(accuracy)) / step - 1e-12)

    options: List[Tuple[int, int, float, Classifier, Tier]] = []
    upgrades = upgrades or {}
    for clf in model.classifiers():
        if not clf <= q:
            continue
        mask = 0
        for prop in clf:
            mask |= 1 << index[prop]
        bought = upgrades.get(clf)
        for tier in model.tiers(clf):
            consumed = units(tier.accuracy)
            if consumed > resolution:
                continue
            incremental = tier.cost
            if bought is not None:
                if tier.accuracy <= bought.accuracy:
                    incremental = 0.0
                    consumed = min(consumed, units(bought.accuracy))
                    tier = bought
                else:
                    incremental = max(0.0, tier.cost - bought.cost)
            options.append((mask, consumed, incremental, clf, tier))

    size = full + 1
    INF = math.inf
    # dp[mask] = list over budget-units of (cost, picks-backpointer)
    dp_cost = [[INF] * (resolution + 1) for _ in range(size)]
    back: List[List[Optional[Tuple[int, int, int]]]] = [
        [None] * (resolution + 1) for _ in range(size)
    ]
    dp_cost[0][0] = 0.0

    for mask in range(size):
        row = dp_cost[mask]
        for used in range(resolution + 1):
            cost_here = row[used]
            if cost_here is INF:
                continue
            for option_index, (clf_mask, consumed, incremental, _clf, _tier) in enumerate(options):
                next_mask = mask | clf_mask
                if next_mask == mask:
                    continue
                next_used = used + consumed
                if next_used > resolution:
                    continue
                new_cost = cost_here + incremental
                if new_cost < dp_cost[next_mask][next_used]:
                    dp_cost[next_mask][next_used] = new_cost
                    back[next_mask][next_used] = (mask, used, option_index)

    best_used = None
    best_cost = INF
    for used in range(resolution + 1):
        if dp_cost[full][used] < best_cost:
            best_cost = dp_cost[full][used]
            best_used = used
    if best_used is None or best_cost is INF:
        return None

    picks: List[TierPick] = []
    mask, used = full, best_used
    accuracy = 1.0
    total = 0.0
    while mask:
        pointer = back[mask][used]
        assert pointer is not None
        mask, used, option_index = pointer
        _m, _c, incremental, clf, tier = options[option_index]
        picks.append(TierPick(clf, tier))
        accuracy *= tier.accuracy
        total += incremental
    picks.reverse()
    return AccuracyCover(tuple(picks), total, accuracy)


class AccuracyAwarePlan:
    """Outcome of the global accuracy-aware planning loop."""

    def __init__(self, picks: Mapping[Classifier, Tier], cost: float):
        self.picks: Dict[Classifier, Tier] = dict(picks)
        self.cost = float(cost)

    def accuracy_of(self, q: Query) -> float:
        """Best achievable accuracy for ``q`` from the purchased picks:
        maximise the accuracy product over subsets whose union is ``q``
        (exact DP over the property mask — queries are short)."""
        props = sorted(q)
        index = {prop: i for i, prop in enumerate(props)}
        full = (1 << len(props)) - 1
        best = [-math.inf] * (full + 1)
        best[0] = 0.0  # log-accuracy
        usable = [
            (clf, self.picks[clf]) for clf in self.picks if clf <= q
        ]
        for mask in range(full + 1):
            if best[mask] == -math.inf:
                continue
            for clf, tier in usable:
                clf_mask = 0
                for prop in clf:
                    clf_mask |= 1 << index[prop]
                next_mask = mask | clf_mask
                if next_mask == mask:
                    continue
                candidate = best[mask] + math.log(tier.accuracy)
                if candidate > best[next_mask]:
                    best[next_mask] = candidate
        if best[full] == -math.inf:
            return 0.0
        return math.exp(best[full])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AccuracyAwarePlan cost={self.cost} picks={len(self.picks)}>"


class AccuracyAwarePlanner:
    """Local-Greedy-style global loop with tier upgrades.

    Iteratively covers the query whose cheapest accuracy-feasible
    residual cover is globally cheapest; classifiers bought for earlier
    queries can be *upgraded* (pay the tier difference) when a later
    query needs more accuracy.
    """

    def __init__(
        self,
        model: TieredCostModel,
        threshold: float = 0.9,
        per_query_thresholds: Optional[Mapping[Query, float]] = None,
        resolution: int = DEFAULT_RESOLUTION,
    ):
        if not 0 < threshold <= 1:
            raise InvalidInstanceError(f"threshold must be in (0, 1], got {threshold}")
        self.model = model
        self.threshold = threshold
        self.per_query_thresholds = dict(per_query_thresholds or {})
        self.resolution = resolution

    def threshold_of(self, q: Query) -> float:
        return float(self.per_query_thresholds.get(q, self.threshold))

    def plan(self, queries: Sequence[Query]) -> AccuracyAwarePlan:
        bought: Dict[Classifier, Tier] = {}
        total = 0.0
        remaining: List[Query] = list(dict.fromkeys(queries))

        while remaining:
            best_index = None
            best_cover: Optional[AccuracyCover] = None
            for position, q in enumerate(remaining):
                cover = min_cover_with_accuracy(
                    q,
                    self.model,
                    self.threshold_of(q),
                    upgrades=bought,
                    resolution=self.resolution,
                )
                if cover is None:
                    raise UncoverableQueryError(
                        q,
                        f"query {sorted(q)!r} cannot reach accuracy "
                        f"{self.threshold_of(q)} with the available tiers",
                    )
                if best_cover is None or cover.cost < best_cover.cost:
                    best_cover = cover
                    best_index = position
            assert best_cover is not None and best_index is not None
            for clf, tier in best_cover.picks:
                current = bought.get(clf)
                if current is None or tier.accuracy > current.accuracy:
                    bought[clf] = tier
            total += best_cover.cost
            remaining.pop(best_index)

        return AccuracyAwarePlan(bought, total)


def verify_plan(
    plan: AccuracyAwarePlan,
    queries: Sequence[Query],
    model: TieredCostModel,
    threshold: float,
    per_query_thresholds: Optional[Mapping[Query, float]] = None,
) -> None:
    """Independent feasibility check of an accuracy-aware plan."""
    per_query_thresholds = per_query_thresholds or {}
    for q in queries:
        required = float(per_query_thresholds.get(q, threshold))
        achieved = plan.accuracy_of(q)
        if achieved + 1e-12 < required:
            raise InvalidInstanceError(
                f"query {sorted(q)!r} reaches accuracy {achieved:.4f} < {required}"
            )
    recomputed = sum(tier.cost for tier in plan.picks.values())
    if plan.cost > recomputed + 1e-9:
        raise InvalidInstanceError(
            f"plan cost {plan.cost} exceeds the sum of tier prices {recomputed}"
        )
