"""Pre-bitset reference implementations of the rewritten hot paths.

The bitset property-space rewrite (:mod:`repro.core.bitspace`) promises
*bit-identical* outputs: same removals, same forced selections, same WSC
set ids, same solution costs.  That promise is only worth something if
it stays executable, so this module keeps the original frozenset-based
implementations — dominated pruning, the single-query min-cover DP,
the MC³ → WSC reduction, and both greedy set-cover variants — verbatim.

They serve two callers:

* ``tests/test_bitspace.py`` asserts, under hypothesis, that every
  rewritten path agrees with its reference here, and that every
  registered solver returns the identical solution with the reference
  kernels patched in (:func:`patch_reference_kernels`);
* ``benchmarks/bench_bitspace.py`` times reference vs. rewritten paths
  and records the speedup in ``BENCH_core.json``.

Nothing in the package proper imports this module — it is an oracle,
not a fallback.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.costs import OverlayCost
from repro.core.instance import MC3Instance
from repro.core.mincover import QueryCover
from repro.core.properties import (
    Classifier,
    PropertySet,
    Query,
    iter_nonempty_subsets,
    iter_two_covers,
    iter_two_partitions,
)
from repro.exceptions import SolverError, UncoverableQueryError
from repro.preprocess.dominated import (
    FORCED_COVER_MAX_CANDIDATES,
    FORCED_COVER_MAX_LENGTH,
    FORCED_COVER_NODE_BUDGET,
    FULL_ENUMERATION_MAX_LENGTH,
)
from repro.setcover.instance import WSCInstance, WSCSolution

# ----------------------------------------------------------------------
# Single-query min cover (pre-change core of repro.core.mincover)
# ----------------------------------------------------------------------


def reference_min_cover(
    q: Query,
    candidates: Iterable[Tuple[Classifier, float]],
    required: bool = True,
) -> Optional[QueryCover]:
    """Original frozenset-marshalling min-cover DP."""
    props = sorted(q)
    index = {prop: i for i, prop in enumerate(props)}
    full = (1 << len(props)) - 1

    usable: List[Tuple[int, float, Classifier]] = []
    for clf, weight in candidates:
        if not clf or not clf <= q or not math.isfinite(weight):
            continue
        mask = 0
        for prop in clf:
            mask |= 1 << index[prop]
        usable.append((mask, weight, clf))

    INF = math.inf
    size = full + 1
    dp_cost = [INF] * size
    dp_count = [0] * size
    back: List[Optional[Tuple[int, int]]] = [None] * size
    dp_cost[0] = 0.0

    for mask in range(size):
        cost_here = dp_cost[mask]
        if cost_here is INF:
            continue
        count_here = dp_count[mask]
        for idx, (clf_mask, weight, _clf) in enumerate(usable):
            nxt = mask | clf_mask
            if nxt == mask:
                continue
            new_cost = cost_here + weight
            if new_cost < dp_cost[nxt] or (
                new_cost == dp_cost[nxt] and count_here + 1 < dp_count[nxt]
            ):
                dp_cost[nxt] = new_cost
                dp_count[nxt] = count_here + 1
                back[nxt] = (mask, idx)

    if dp_cost[full] is INF:
        if required:
            raise UncoverableQueryError(q)
        return None

    chosen: List[Classifier] = []
    mask = full
    while mask:
        prev_mask, idx = back[mask]  # type: ignore[misc]
        chosen.append(usable[idx][2])
        mask = prev_mask
    chosen.reverse()
    return QueryCover(q, tuple(chosen), dp_cost[full])


def reference_enumerate_covers(
    q: Query,
    candidates: Sequence[Tuple[Classifier, float]],
    limit: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> List[QueryCover]:
    """Original irredundant-cover enumeration (sentinel semantics kept)."""
    props = sorted(q)
    index = {prop: i for i, prop in enumerate(props)}
    full = (1 << len(props)) - 1
    usable = []
    for clf, weight in candidates:
        if clf and clf <= q and math.isfinite(weight):
            mask = 0
            for prop in clf:
                mask |= 1 << index[prop]
            usable.append((mask, weight, clf))

    results: List[QueryCover] = []
    nodes = [0]
    exhausted = [False]

    def is_irredundant(indices: List[int]) -> bool:
        for skip in range(len(indices)):
            mask = 0
            for pos, idx in enumerate(indices):
                if pos != skip:
                    mask |= usable[idx][0]
            if mask == full:
                return False
        return True

    def done() -> bool:
        if limit is not None and len(results) >= limit:
            return True
        if node_budget is not None and nodes[0] > node_budget:
            exhausted[0] = True
            return True
        return False

    def recurse(start: int, mask: int, picked: List[int]) -> None:
        nodes[0] += 1
        if done():
            return
        if mask == full:
            if is_irredundant(picked):
                clfs = tuple(usable[i][2] for i in picked)
                cost = sum(usable[i][1] for i in picked)
                results.append(QueryCover(q, clfs, cost))
            return
        for idx in range(start, len(usable)):
            if done():
                return
            clf_mask = usable[idx][0]
            if clf_mask | mask == mask:
                continue
            picked.append(idx)
            recurse(idx + 1, mask | clf_mask, picked)
            picked.pop()

    recurse(0, 0, [])
    if exhausted[0] and results:
        results.append(results[-1])
    return results


# ----------------------------------------------------------------------
# Dominated pruning (pre-change repro.preprocess.dominated)
# ----------------------------------------------------------------------


class ReferenceDominatedPruner:
    """Original frozenset step-3 pass; drop-in for
    :class:`~repro.preprocess.dominated.DominatedPruner`."""

    def __init__(
        self,
        queries: Sequence[Query],
        overlay: OverlayCost,
        max_classifier_length: Optional[int] = None,
    ):
        self.queries = list(queries)
        self.overlay = overlay
        self.max_classifier_length = max_classifier_length
        self._effective: Dict[PropertySet, float] = {}
        # Insertion-ordered set, as in the mask kernel.
        self.removed: Dict[Classifier, None] = {}
        self.forced: List[Classifier] = []
        self._universe_cache: Optional[List[Classifier]] = None
        self._decomposition_cache: Dict[
            Classifier, Tuple[Tuple[Classifier, Classifier], ...]
        ] = {}

    def _universe(self) -> List[Classifier]:
        if self._universe_cache is None:
            seen: Set[Classifier] = set()
            ordered: List[Classifier] = []
            for q in self.queries:
                for clf in iter_nonempty_subsets(q, self.max_classifier_length):
                    if clf not in seen:
                        seen.add(clf)
                        ordered.append(clf)
            ordered.sort(key=len)
            self._universe_cache = ordered
        return self._universe_cache

    def effective_weight(self, clf: Classifier) -> float:
        memo = self._effective.get(clf)
        direct = self.overlay.cost(clf)
        if memo is None:
            return direct
        return min(memo, direct)

    def _decompositions(self, clf: Classifier):
        cached = self._decomposition_cache.get(clf)
        if cached is not None:
            return cached
        if len(clf) == 2:
            x, y = clf
            pairs: Tuple[Tuple[Classifier, Classifier], ...] = (
                (frozenset((x,)), frozenset((y,))),
            )
        elif len(clf) <= FULL_ENUMERATION_MAX_LENGTH:
            pairs = tuple(iter_two_covers(clf))
        else:
            pairs = tuple(iter_two_partitions(clf))
        self._decomposition_cache[clf] = pairs
        return pairs

    def _cheapest_decomposition(self, clf: Classifier) -> float:
        best = math.inf
        memo = self._effective
        overlay_cost = self.overlay.cost
        for part_a, part_b in self._decompositions(clf):
            weight = overlay_cost(part_a)
            cached = memo.get(part_a)
            if cached is not None and cached < weight:
                weight = cached
            direct_b = overlay_cost(part_b)
            cached_b = memo.get(part_b)
            if cached_b is not None and cached_b < direct_b:
                direct_b = cached_b
            weight += direct_b
            if weight < best:
                best = weight
        return best

    def _pass_remove(self, targets: Optional[Iterable[Classifier]] = None) -> int:
        if targets is None:
            universe = self._universe()
        else:
            universe = sorted(set(targets), key=len)
        removed_count = 0
        overlay_cost = self.overlay.cost
        effective = self._effective
        for clf in universe:
            if len(clf) < 2 or clf in self.removed:
                continue
            if len(clf) == 2:
                x, y = clf
                decomposition_cost = overlay_cost(frozenset((x,))) + overlay_cost(
                    frozenset((y,))
                )
            else:
                decomposition_cost = self._cheapest_decomposition(clf)
            direct = overlay_cost(clf)
            effective[clf] = min(direct, decomposition_cost)
            if math.isfinite(direct) and decomposition_cost <= direct:
                self.overlay.remove(clf)
                self.removed[clf] = None
                removed_count += 1
        return removed_count

    def _available_candidates(self, q: Query) -> List[Tuple[Classifier, float]]:
        pairs = []
        for clf in iter_nonempty_subsets(q, self.max_classifier_length):
            weight = self.overlay.cost(clf)
            if math.isfinite(weight):
                pairs.append((clf, weight))
        return pairs

    def _detect_forced_covers(self, uncovered: Sequence[Query]) -> List[Classifier]:
        newly_forced: List[Classifier] = []
        for q in uncovered:
            if len(q) > FORCED_COVER_MAX_LENGTH:
                continue
            if len(q) == 2:
                unique = self._unique_cover_k2(q)
            else:
                candidates = self._available_candidates(q)
                if len(candidates) > FORCED_COVER_MAX_CANDIDATES:
                    continue
                covers = reference_enumerate_covers(
                    q, candidates, limit=2, node_budget=FORCED_COVER_NODE_BUDGET
                )
                unique = covers[0].classifiers if len(covers) == 1 else None
            if unique is not None:
                for clf in unique:
                    if self.overlay.cost(clf) > 0:
                        self.overlay.select(clf)
                        newly_forced.append(clf)
        return newly_forced

    def _unique_cover_k2(self, q: Query) -> Optional[Tuple[Classifier, ...]]:
        x, y = sorted(q)
        singleton_x = frozenset((x,))
        singleton_y = frozenset((y,))
        pair = frozenset(q)
        pair_ok = math.isfinite(self.overlay.cost(pair))
        singles_ok = math.isfinite(self.overlay.cost(singleton_x)) and math.isfinite(
            self.overlay.cost(singleton_y)
        )
        if pair_ok and not singles_ok:
            return (pair,)
        if singles_ok and not pair_ok:
            return (singleton_x, singleton_y)
        return None

    def run(self, uncovered: Sequence[Query]) -> Tuple[int, List[Classifier]]:
        queries_by_property: Dict[str, List[Query]] = {}
        for q in uncovered:
            for prop in q:
                queries_by_property.setdefault(prop, []).append(q)
        alive: Dict[Query, None] = dict.fromkeys(uncovered)

        total_removed = self._pass_remove()
        pending: Sequence[Query] = list(alive)
        while True:
            forced_now = self._detect_forced_covers(pending)
            if not forced_now:
                break
            self.forced.extend(forced_now)
            affected_props = set().union(*forced_now)
            affected: List[Query] = []
            seen_affected = set()
            for prop in affected_props:
                for q in queries_by_property.get(prop, ()):
                    if q in alive and q not in seen_affected:
                        seen_affected.add(q)
                        affected.append(q)
            still_uncovered: List[Query] = []
            for q in affected:
                if self._covered_by_selected(q):
                    del alive[q]
                else:
                    still_uncovered.append(q)
            touched = set()
            for q in still_uncovered:
                for clf in iter_nonempty_subsets(q, self.max_classifier_length):
                    if clf & affected_props and clf not in self.removed:
                        touched.add(clf)
                        self._effective.pop(clf, None)
            total_removed += self._pass_remove(touched)
            pending = still_uncovered
        return total_removed, self.forced

    def _covered_by_selected(self, q: Query) -> bool:
        remaining = set(q)
        for clf in iter_nonempty_subsets(q, self.max_classifier_length):
            if self.overlay.cost(clf) == 0:
                remaining -= clf
                if not remaining:
                    return True
        return False


# ----------------------------------------------------------------------
# MC³ → WSC reduction (pre-change repro.reductions.mc3_to_wsc)
# ----------------------------------------------------------------------


def reference_mc3_to_wsc(instance: MC3Instance, space=None) -> WSCInstance:
    """Original label-marshalling reduction.

    ``space`` is accepted (and ignored) so this stays a drop-in for the
    rewritten reduction when patched under solvers that pass one.
    """
    wsc = WSCInstance()
    for query_index, q in enumerate(instance.queries):
        for prop in sorted(q):
            wsc.add_element((prop, query_index))

    members: Dict[Classifier, List[Tuple[str, int]]] = {}
    for query_index, q in enumerate(instance.queries):
        for clf in instance.candidates(q):
            bucket = members.setdefault(clf, [])
            for prop in clf:
                bucket.append((prop, query_index))

    for clf in sorted(members, key=lambda c: (len(c), tuple(sorted(c)))):
        weight = instance.weight(clf)
        if math.isfinite(weight):
            wsc.add_set(clf, members[clf], weight)

    try:
        wsc.validate_coverable()
    except UncoverableQueryError as exc:
        prop, query_index = next(iter(exc.query))
        raise UncoverableQueryError(instance.queries[query_index]) from exc
    return wsc


# ----------------------------------------------------------------------
# Greedy WSC (pre-change repro.setcover.greedy / bucket_greedy)
# ----------------------------------------------------------------------


def reference_greedy_wsc(instance: WSCInstance) -> WSCSolution:
    """Original per-element-scan Chvátal greedy."""
    import heapq

    instance.validate_coverable()

    universe_size = instance.universe_size
    covered = [False] * universe_size
    num_covered = 0
    selected: List[int] = []
    total_cost = 0.0

    heap: List = []
    for set_id in range(instance.num_sets):
        size = len(instance.set_members(set_id))
        cost = instance.set_cost(set_id)
        ratio = cost / size
        heapq.heappush(heap, (ratio, set_id, size))

    while num_covered < universe_size:
        if not heap:
            raise SolverError("greedy ran out of sets before covering the universe")
        ratio, set_id, recorded = heapq.heappop(heap)
        fresh = sum(1 for e in instance.set_members(set_id) if not covered[e])
        if fresh == 0:
            continue
        if fresh != recorded:
            cost = instance.set_cost(set_id)
            heapq.heappush(heap, (cost / fresh, set_id, fresh))
            continue
        selected.append(set_id)
        total_cost += instance.set_cost(set_id)
        for element_id in instance.set_members(set_id):
            if not covered[element_id]:
                covered[element_id] = True
                num_covered += 1

    return WSCSolution(selected, total_cost)


def reference_bucket_greedy_wsc(
    instance: WSCInstance, epsilon: float = 0.1
) -> WSCSolution:
    """Original per-element-scan bucketed greedy [CKW'10]."""
    from repro.exceptions import InvalidInstanceError

    if epsilon <= 0:
        raise InvalidInstanceError(f"epsilon must be > 0, got {epsilon}")
    instance.validate_coverable()
    base = 1.0 + epsilon
    log_base = math.log(base)

    def bucket_of(ratio: float) -> int:
        if ratio <= 0:
            return -(10**9)
        return math.floor(math.log(ratio) / log_base)

    universe_size = instance.universe_size
    covered = [False] * universe_size
    num_covered = 0
    selected: List[int] = []
    total_cost = 0.0

    buckets: Dict[int, List[int]] = {}

    def push(set_id: int, ratio: float) -> None:
        key = bucket_of(ratio)
        if key not in buckets:
            buckets[key] = []
        buckets[key].append(set_id)

    for set_id in range(instance.num_sets):
        size = len(instance.set_members(set_id))
        push(set_id, instance.set_cost(set_id) / size)

    while num_covered < universe_size:
        if not buckets:
            raise SolverError("bucket greedy ran out of sets")
        current_key = min(buckets)
        queue = buckets.pop(current_key)
        for set_id in queue:
            fresh = sum(1 for e in instance.set_members(set_id) if not covered[e])
            if fresh == 0:
                continue
            ratio = instance.set_cost(set_id) / fresh
            if bucket_of(ratio) > current_key:
                push(set_id, ratio)
                continue
            selected.append(set_id)
            total_cost += instance.set_cost(set_id)
            for element_id in instance.set_members(set_id):
                if not covered[element_id]:
                    covered[element_id] = True
                    num_covered += 1
            if num_covered == universe_size:
                break

    solution = WSCSolution(selected, total_cost)
    instance.verify_solution(solution)
    return solution


# ----------------------------------------------------------------------
# Whole-pipeline patching
# ----------------------------------------------------------------------


@contextmanager
def patch_reference_kernels():
    """Swap every rewritten kernel for its reference, package-wide.

    Within the context, registered solvers run on the pre-bitset code:
    dominated pruning, the MC³ → WSC reduction, both greedies, and the
    min-cover DP used by the baselines and the refinement pass.  Solving
    the same instance inside and outside the context must produce
    identical solutions — that is the rewrite's contract, and the
    equivalence tests/benchmarks enforce it through this switch.

    Only in-process solves are covered (``jobs=1``); process-pool
    workers import the real modules.
    """
    import importlib
    from unittest import mock

    # importlib.import_module rather than ``import a.b.c as c``: package
    # __init__ files re-export same-named callables (``repro.preprocess``
    # the module vs. ``preprocess`` the function), which break the
    # attribute walk the ``as`` form performs.
    multivalued = importlib.import_module("repro.extensions.multivalued")
    partial_cover = importlib.import_module("repro.extensions.partial_cover")
    pipeline = importlib.import_module("repro.preprocess.pipeline")
    setcover = importlib.import_module("repro.setcover")
    baselines = importlib.import_module("repro.solvers.baselines")
    exact = importlib.import_module("repro.solvers.exact")
    general = importlib.import_module("repro.solvers.general")
    refined = importlib.import_module("repro.solvers.refined")
    robust = importlib.import_module("repro.solvers.robust")

    targets = [
        (pipeline, "DominatedPruner", ReferenceDominatedPruner),
        (general, "mc3_to_wsc", reference_mc3_to_wsc),
        (general, "greedy_wsc", reference_greedy_wsc),
        (exact, "mc3_to_wsc", reference_mc3_to_wsc),
        (robust, "mc3_to_wsc", reference_mc3_to_wsc),
        (multivalued, "mc3_to_wsc", reference_mc3_to_wsc),
        (setcover, "greedy_wsc", reference_greedy_wsc),
        (setcover, "bucket_greedy_wsc", reference_bucket_greedy_wsc),
        (baselines, "min_cover", reference_min_cover),
        (refined, "min_cover", reference_min_cover),
        (partial_cover, "min_cover", reference_min_cover),
    ]
    with ExitStack() as stack:
        for module, attribute, replacement in targets:
            stack.enter_context(mock.patch.object(module, attribute, replacement))
        yield
