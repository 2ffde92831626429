"""The mask kernels: every bitmask hot path of the solvers, in one module.

Four kernels take interned integer bitmasks in and hand deterministic
decisions back: dominated-classifier pruning (Algorithm 1 step 3,
:class:`DominatedPruner`), Chvátal greedy WSC (:func:`greedy_wsc`), the
single-query min-cover subset DP (:func:`min_cover_dp`) and the
sampled greedy's gain counts (:func:`sampled_gains`).  Each is
bit-identical to its frozenset original in :mod:`repro.core.reference`
— same selections, same tie-breaks, same costs — which the equivalence
suite and ``benchmarks/bench_bitspace.py`` keep executable.

Two-cover tables, in brief (docs/algorithms.md §11 has the full
derivation): the decompositions step 3 prices for a classifier of
length ``L`` are the unordered pairs of proper non-empty submasks whose
union is the classifier.  Which pairs those are depends only on ``L``,
so :data:`TWO_COVER_TABLES` enumerates them once per length, as local
bit indices into the classifier's own submask lattice.  A classifier
gathers its ``2^L - 2`` effective weights once and takes the minimum
pair sum over the table — the same float sums the per-pair walk
formed, so the same minimum.

min-cover DP bound, in brief (docs/algorithms.md §11): with
``cheapest[b]`` the lightest candidate covering bit ``b``, the
heuristic ``h(mask) = max over missing bits b of cheapest[b]`` is an
admissible *and consistent* lower bound on the cost of finishing a
partial cover ``mask`` — any completion must cover every missing bit
``b`` with some candidate weighing at least ``cheapest[b]``, and for a
transition adding candidate ``(s, w)``, every bit of ``s`` has
``cheapest ≤ w``, so ``h(mask) ≤ max(h(mask|s), w) ≤ w + h(mask|s)``.
Expansions with ``dp_cost[mask] + h(mask) > incumbent`` are skipped.
Consistency makes the skip *bit-identical*, not merely cost-identical:
every update that wins or ties a surviving entry comes from a state with
``dp_cost + h ≤ opt`` (never pruned, relative order unchanged), while
updates from pruned states satisfy ``new_cost + h(target) > opt`` and so
can neither win nor tie any entry on the final backtrack path.  Negative
weights would break admissibility, so they disable pruning entirely.
"""

from __future__ import annotations

import heapq
import math
from operator import add, itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

# A module import, not ``from … import enumerate_covers_local``:
# ``core/mincover`` imports this module for its DP, so either of the two
# may be the one still initialising.
from repro.core import mincover
from repro.core.bitspace import PropertySpace, mask_union
from repro.core.costs import OverlayCost
from repro.core.properties import Classifier, Query
from repro.core.wsc import WSCInstance, WSCSolution
from repro.exceptions import SolverError

# ----------------------------------------------------------------------
# Dominated-pruning tuning constants
# ----------------------------------------------------------------------

#: Beyond this classifier length the ``O(3^len)`` full decomposition
#: enumeration switches to the ``O(2^len)`` disjoint-only family (still a
#: sound pruning rule, merely less aggressive).
FULL_ENUMERATION_MAX_LENGTH = 7

#: Forced-cover detection enumerates irredundant covers, which is
#: exponential in the query length; skip it for longer queries.
FORCED_COVER_MAX_LENGTH = 5

#: Per-query budget for the uniqueness search; exhausting it means the
#: query conservatively counts as having multiple covers.
FORCED_COVER_NODE_BUDGET = 3000

#: Queries with more available candidates than this skip the uniqueness
#: test outright — a unique cover among that many candidates is
#: vanishingly rare and the search is the expensive part.
FORCED_COVER_MAX_CANDIDATES = 24

#: ``min_cover_dp`` outcome: ``(cost, chosen candidate indices in
#: selection order)``, or ``None`` when the target mask is unreachable.
MinCoverOutcome = Optional[Tuple[float, List[int]]]


def _two_cover_table(length: int) -> Tuple[itemgetter, itemgetter]:
    """Getters for the two sides of every two-cover of the full
    ``length``-bit mask, as local indices (``a < b`` orientation)."""
    full = (1 << length) - 1
    pairs = list(PropertySpace.iter_two_cover_masks(full))
    return itemgetter(*(a for a, _ in pairs)), itemgetter(*(b for _, b in pairs))


#: ``TWO_COVER_TABLES[L]`` for ``3 <= L <= FULL_ENUMERATION_MAX_LENGTH``:
#: applied to a classifier's local weight list (index ``i`` = the
#: submask whose ``j``-th bit is the classifier's ``j``-th lowest bit
#: iff bit ``j`` of ``i`` is set), the two getters return the weights of
#: each pair's sides.  Built once at import; read-only afterwards.
TWO_COVER_TABLES: Dict[int, Tuple[itemgetter, itemgetter]] = {
    length: _two_cover_table(length)
    for length in range(3, FULL_ENUMERATION_MAX_LENGTH + 1)
}


#: Queries up to this length take their uniqueness answer from
#: :data:`~repro.core.mincover.unique_cover_table`; longer ones, up to
#: :data:`FORCED_COVER_MAX_LENGTH`, search live.
UNIQUE_COVER_TABLE_MAX_LENGTH = 4

#: ``LOCAL_LATTICES[L]`` for ``1 <= L <= FULL_ENUMERATION_MAX_LENGTH``:
#: the non-empty submasks of the full ``L``-bit mask in
#: ``iter_subset_masks`` order.  Position ``i`` of a length-``L`` query's
#: lattice is the query's submask with local index
#: ``LOCAL_LATTICES[L][i]`` (local relabelling keeps the bits' order).
LOCAL_LATTICES: Dict[int, Tuple[int, ...]] = {
    length: tuple(PropertySpace.iter_subset_masks((1 << length) - 1))
    for length in range(1, FULL_ENUMERATION_MAX_LENGTH + 1)
}

def _submasks_by_local_index(mask: int) -> List[int]:
    """Every submask of ``mask``, the empty one and ``mask`` included, at
    its local index (doubling over the bits, lowest first)."""
    subs = [0]
    while mask:
        low = mask & -mask
        subs += [sub | low for sub in subs]
        mask ^= low
    return subs


class DominatedPruner:
    """Stateful step-3 pass over one property-disjoint component.

    Preprocessing step 3 (Observation 3.3): remove classifiers whose
    covering contribution is subsumed by a set of shorter classifiers of
    at most the same cost.  Iterates classifiers by increasing length;
    for each classifier ``S`` it evaluates decompositions into two
    classifiers whose union is ``S`` (Algorithm 1, line 8), pricing
    previously removed (or never-available) parts by their own cheapest
    decomposition — the *effective weight* memo.  After a pass, queries
    left with a single irredundant cover get that cover *selected*
    (line 10) and the pass repeats for classifiers intersecting the
    selections (line 11).

    Lengths 3 to :data:`FULL_ENUMERATION_MAX_LENGTH` price every
    two-cover through :data:`TWO_COVER_TABLES`; longer classifiers price
    their two-partitions, materialised once per mask.

    One run does each piece of per-query work once.  A query's
    *lattice*, its submasks within the length cap in
    ``iter_subset_masks`` order, is built once and read by the universe,
    the uniqueness test, the selected-cover check and the re-pass
    targets.  Every lattice mask is priced once into a mask-keyed price
    table that the hot loops index directly; the pruner's selections
    (:meth:`_select`) and removals (:meth:`_pass_remove`) keep it
    current and write through to the overlay, whose only writer the
    pruner is while it runs.  A mask in no lattice (the pair of a
    length-2 query under a length cap of 1) is priced on demand by
    :meth:`_cost`.  Decompositions read a third table, the part weights
    (a mask's price, or its effective weight where that is lower).
    """

    def __init__(
        self,
        queries: Sequence[Query],
        overlay: OverlayCost,
        max_classifier_length: Optional[int] = None,
    ):
        self.queries = list(queries)
        self.overlay = overlay
        self.max_classifier_length = max_classifier_length
        # The component's property universe, interned once; every hot
        # structure below is keyed by mask, not frozenset.
        self.space = PropertySpace.from_queries(self.queries)
        mask_of = self.space.mask_of
        self._query_masks: Dict[Query, int] = {q: mask_of(q) for q in self.queries}
        self._lattices: Dict[int, List[int]] = {}
        self._price: Dict[int, float] = {}
        # Effective weight: cheapest way to obtain S's covering power from
        # shorter classifiers (or S itself).
        self._effective: Dict[int, float] = {}
        # What a decomposition reads for a part: its price, or its
        # memoised effective weight where that is strictly lower.  Kept
        # current for every mask a decomposition can read (see
        # _pass_remove and _select).
        self._part_weight: Dict[int, float] = {}
        # Insertion-ordered set: the removals in the order they happened.
        self.removed: Dict[Classifier, None] = {}
        self._removed_masks: Set[int] = set()
        self.forced: List[Classifier] = []
        self._universe_cache: Optional[List[int]] = None
        # Two-partitions of classifiers longer than the tables reach:
        # they never change (only their costs do), so they are
        # materialised once and reused across the fixpoint re-passes.
        self._partition_cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    def _lattice(self, qmask: int) -> List[int]:
        """The query's submasks within the length cap, in
        ``iter_subset_masks`` order, each priced on first sight."""
        lattice = self._lattices.get(qmask)
        if lattice is None:
            lattice = list(
                self.space.iter_subset_masks(qmask, self.max_classifier_length)
            )
            price = self._price
            part_weight = self._part_weight
            overlay_cost = self.overlay.cost
            set_of = self.space.set_of
            for mask in lattice:
                if mask not in price:
                    price[mask] = part_weight[mask] = overlay_cost(set_of(mask))
            self._lattices[qmask] = lattice
        return lattice

    def _cost(self, mask: int) -> float:
        """Weight of any mask: the table's, else the overlay's (kept).
        No decomposition reads a mask outside the lattices, so it gets
        no part weight."""
        weight = self._price.get(mask)
        if weight is None:
            weight = self.overlay.cost(self.space.set_of(mask))
            self._price[mask] = weight
        return weight

    def _select(self, mask: int) -> None:
        """Weight 0 (selected), in the tables and in the overlay."""
        self.overlay.select(self.space.set_of(mask))
        self._price[mask] = 0.0
        weight = 0.0
        cached = self._effective.get(mask)
        if cached is not None and cached < weight:
            weight = cached
        self._part_weight[mask] = weight

    def _universe(self) -> List[int]:
        """All candidate classifier masks of the component, by increasing
        length then label, deduplicated.  Computed once — removals are
        tracked separately and never shrink this list."""
        if self._universe_cache is None:
            seen: Set[int] = set()
            ordered: List[int] = []
            for qmask in self._query_masks.values():
                for mask in self._lattice(qmask):
                    if mask not in seen:
                        seen.add(mask)
                        ordered.append(mask)
            # Stable sort by length keeps the deterministic per-query
            # enumeration order within each length class.
            ordered.sort(key=int.bit_count)
            self._universe_cache = ordered
        return self._universe_cache

    def effective_weight(self, clf: Classifier) -> float:
        """Weight of ``clf`` or of its cheapest recorded decomposition."""
        mask = self.space.mask_of(clf)
        memo = self._effective.get(mask)
        direct = self._cost(mask)
        if memo is None:
            return direct
        return min(memo, direct)

    def _cheapest_decomposition(self, mask: int, length: int) -> float:
        """Cheapest ``effective(a) + effective(b)`` over the
        decompositions of a classifier of ``length >= 3`` bits."""
        table = TWO_COVER_TABLES.get(length)
        if table is None:
            return self._cheapest_partition(mask)
        # weights[i] = part weight of the submask with local index i.
        # The tables never read index 0 (the empty mask, no entry) nor
        # the last (the classifier itself).
        weights = list(map(self._part_weight.get, _submasks_by_local_index(mask)))
        first, second = table
        return min(map(add, first(weights), second(weights)))

    def _cheapest_partition(self, mask: int) -> float:
        pairs = self._partition_cache.get(mask)
        if pairs is None:
            pairs = tuple(self.space.iter_two_partition_masks(mask))
            self._partition_cache[mask] = pairs
        best = math.inf
        part_weight = self._part_weight
        for part_a, part_b in pairs:
            weight = part_weight[part_a] + part_weight[part_b]
            if weight < best:
                best = weight
        return best

    # ------------------------------------------------------------------

    def _pass_remove(self, targets: Optional[Iterable[int]] = None) -> int:
        """One removal sweep over ``targets`` (distinct masks; the whole
        universe when ``None``); returns the number of removals.

        Classifiers are processed by increasing length so shorter parts'
        effective weights are final before longer classifiers consult
        them; within a length the decisions do not depend on the order
        (decompositions use strictly shorter classifiers only), and the
        removals keep the order the targets come in.
        """
        if targets is None:
            universe = self._universe()
        else:
            universe = sorted(targets, key=int.bit_count)
        removed_count = 0
        price = self._price
        effective = self._effective
        part_weight = self._part_weight
        removed_masks = self._removed_masks
        removed = self.removed
        remove = self.overlay.remove
        set_of = self.space.set_of
        for mask in universe:
            length = mask.bit_count()
            if length < 2 or mask in removed_masks:
                continue
            if length == 2:
                # Inlined fast path: the only decomposition is (X, Y), and
                # singletons are never removed by this step, so their
                # effective weight is just their overlay weight.
                low = mask & -mask
                decomposition_cost = price[low] + price[mask ^ low]
            else:
                decomposition_cost = self._cheapest_decomposition(mask, length)
            direct = price[mask]
            # min() keeps ``direct`` on a tie, which is what the part
            # weight keeps too.  A removal below leaves the part weight
            # as it is: the effective weight is finite, so it stays
            # strictly below the new price of ∞.
            effective[mask] = part_weight[mask] = min(direct, decomposition_cost)
            if math.isfinite(direct) and decomposition_cost <= direct:
                clf = set_of(mask)
                remove(clf)
                price[mask] = math.inf
                removed_masks.add(mask)
                removed[clf] = None
                removed_count += 1
        return removed_count

    def _detect_forced_covers(self, uncovered: Sequence[int]) -> List[int]:
        """Queries with a single irredundant cover force its classifiers
        (Algorithm 1, line 10).  Takes and returns masks."""
        newly_forced: List[int] = []
        price = self._price
        for qmask in uncovered:
            length = qmask.bit_count()
            if length > FORCED_COVER_MAX_LENGTH:
                continue
            if length == 2:
                unique = self._unique_cover_k2(qmask)
            else:
                unique = self._unique_cover(qmask, length)
            if unique is not None:
                for mask in unique:
                    if price[mask] > 0:
                        self._select(mask)
                        newly_forced.append(mask)
        return newly_forced

    def _unique_cover(self, qmask: int, length: int) -> Optional[Tuple[int, ...]]:
        """Mask-level uniqueness test via the irredundant-cover search.

        The available (finite-weight) lattice masks are handed over as
        query-local subsets (ascending component bits → ascending local
        bits) in lattice order, so the search order, and therefore the
        budget-exhaustion behaviour, matches the frozenset-era
        enumeration exactly.
        """
        price = self._price
        masks: List[int] = []
        subsets: List[int] = []
        for mask, local in zip(self._lattice(qmask), LOCAL_LATTICES[length]):
            if math.isfinite(price[mask]):
                masks.append(mask)
                subsets.append(local)
        if len(masks) > FORCED_COVER_MAX_CANDIDATES:
            return None
        if length <= UNIQUE_COVER_TABLE_MAX_LENGTH:
            search = mincover.unique_cover_table
        else:
            search = mincover.unique_cover_local
        picked = search(length, tuple(subsets), FORCED_COVER_NODE_BUDGET)
        if picked is None:
            return None
        return tuple(masks[idx] for idx in picked)

    def _unique_cover_k2(self, qmask: int) -> Optional[Tuple[int, ...]]:
        """Closed form of the uniqueness test for length-2 queries: the
        only irredundant covers are {XY} and {X, Y}."""
        singleton_x = qmask & -qmask
        singleton_y = qmask ^ singleton_x
        price = self._price
        pair = price.get(qmask)
        if pair is None:
            # Outside the lattice: the query's length exceeds the cap.
            pair = self._cost(qmask)
        pair_ok = math.isfinite(pair)
        singles_ok = math.isfinite(price[singleton_x]) and math.isfinite(
            price[singleton_y]
        )
        if pair_ok and not singles_ok:
            return (qmask,)
        if singles_ok and not pair_ok:
            return (singleton_x, singleton_y)
        return None

    # ------------------------------------------------------------------

    def run(self, uncovered: Sequence[Query]) -> Tuple[int, List[Classifier]]:
        """Run removal + forced-cover detection to a fixpoint.

        Returns ``(total removals, forced classifiers)``.  Per the paper,
        re-passes only re-examine classifiers that intersect a selection
        (weights only ever drop to 0 on selection), and re-detection only
        re-examines queries touching the affected properties — the rest
        cannot have changed.
        """
        space = self.space
        effective = self._effective
        removed_masks = self._removed_masks
        known = self._query_masks.get
        uncovered_masks = [known(q) or space.mask_of(q) for q in uncovered]
        alive: Dict[int, None] = dict.fromkeys(uncovered_masks)
        for qmask in alive:
            self._lattice(qmask)  # prices every mask the tests below read
        # Built on the first selection; half the runs of a drift re-plan
        # select nothing.
        queries_by_bit: Optional[Dict[int, List[int]]] = None

        total_removed = self._pass_remove()
        pending: Sequence[int] = list(alive)
        while True:
            forced_now = self._detect_forced_covers(pending)
            if not forced_now:
                break
            if queries_by_bit is None:
                queries_by_bit = {}
                for qmask in uncovered_masks:
                    for bit in space.bits_of(qmask):
                        queries_by_bit.setdefault(bit, []).append(qmask)
            self.forced.extend([space.set_of(mask) for mask in forced_now])
            affected_mask = mask_union(forced_now)
            # Queries sharing a property with the selections are the only
            # ones whose cover options changed; of those, the ones the
            # selections fully covered leave the game entirely.
            affected: List[int] = []
            seen_affected: Set[int] = set()
            for bit in space.bits_of(affected_mask):
                for qmask in queries_by_bit.get(bit, ()):
                    if qmask in alive and qmask not in seen_affected:
                        seen_affected.add(qmask)
                        affected.append(qmask)
            still_uncovered: List[int] = []
            for qmask in affected:
                if self._covered_by_selected(qmask):
                    del alive[qmask]
                else:
                    still_uncovered.append(qmask)
            # Re-examine only classifiers of still-uncovered queries:
            # removals among covered queries' classifiers can never
            # influence the residual problem.
            touched: Dict[int, None] = {}
            for qmask in still_uncovered:
                for mask in self._lattice(qmask):
                    if mask & affected_mask and mask not in removed_masks:
                        touched[mask] = None
                        # Invalidate memo so the zeroed selections are
                        # seen (the re-pass sets the part weight anew
                        # before any longer target reads it).
                        effective.pop(mask, None)
            total_removed += self._pass_remove(touched)
            pending = still_uncovered
        return total_removed, self.forced

    def _covered_by_selected(self, qmask: int) -> bool:
        """Whether zero-weight (selected) classifiers already cover the
        query."""
        remaining = qmask
        price = self._price
        for mask in self._lattice(qmask):
            if price[mask] == 0:
                remaining &= ~mask
                if not remaining:
                    return True
        return False


def greedy_wsc(instance: WSCInstance) -> WSCSolution:
    """Chvátal's greedy WSC with a lazy-deletion priority queue.

    At each step, select the set minimising ``cost / newly-covered``
    (Theorem 2.6's ``ln Δ + 1`` factor).  The heap holds stale entries —
    an entry is trusted only if its recorded coverage count still matches
    reality, otherwise the set is re-keyed and pushed back.  Coverage
    state is a single integer bitmask over element ids.  Raises if some
    element is uncoverable.
    """
    instance.validate_coverable()

    universe_size = instance.universe_size
    member_masks = instance.member_masks()
    covered = 0
    num_covered = 0
    selected: List[int] = []
    total_cost = 0.0

    # uncovered_count[set_id] is maintained lazily: the authoritative value
    # is recomputed when a heap entry is popped.  Ties on ratio resolve by
    # lowest set_id (then recorded size) through the tuple ordering.
    heap: List = []
    for set_id in range(instance.num_sets):
        size = len(instance.set_members(set_id))
        if size == 0:
            # Degenerate empty set: can never cover anything; skipping it
            # here keeps the seeding total instead of dividing by zero.
            continue
        cost = instance.set_cost(set_id)
        heap.append((cost / size, set_id, size))
    heapq.heapify(heap)

    while num_covered < universe_size:
        if not heap:
            raise SolverError("greedy ran out of sets before covering the universe")
        ratio, set_id, recorded = heapq.heappop(heap)
        fresh_mask = member_masks[set_id] & ~covered
        fresh = fresh_mask.bit_count()
        if fresh == 0:
            continue
        if fresh != recorded:
            # Stale entry: re-key with the up-to-date coverage.
            cost = instance.set_cost(set_id)
            heapq.heappush(heap, (cost / fresh, set_id, fresh))
            continue
        # Entry is accurate and minimal: select the set.
        selected.append(set_id)
        total_cost += instance.set_cost(set_id)
        covered |= fresh_mask
        num_covered += fresh

    return WSCSolution(selected, total_cost)


def admissible_tables(
    full: int, usable: Sequence[Tuple[int, float]]
) -> Optional[Tuple[List[float], float]]:
    """Shared pruning precomputation for the min-cover DP.

    Returns ``(h, incumbent)`` — the per-state admissible bound table
    and a feasible upper bound to seed the incumbent — or ``None`` when
    the candidate union does not reach ``full`` (the DP outcome is then
    ``None`` without touching the lattice).  When any weight is negative
    the bound is unusable; ``h`` is all-zero and the incumbent infinite,
    which turns the caller into the exhaustive sweep.
    """
    num_bits = full.bit_length()
    cheapest = [math.inf] * num_bits
    union = 0
    nonnegative = True
    for clf_mask, weight in usable:
        union |= clf_mask
        if weight < 0:
            nonnegative = False
        sub = clf_mask
        while sub:
            low = sub & -sub
            bit = low.bit_length() - 1
            if weight < cheapest[bit]:
                cheapest[bit] = weight
            sub ^= low
    if union != full:
        return None
    size = full + 1
    h = [0.0] * size
    if not nonnegative:
        return h, math.inf
    # Descending sweep: the lowest missing bit either dominates the max
    # or defers to the rest (mask | low > mask, so h there is final).
    for mask in range(full - 1, -1, -1):
        missing = full & ~mask
        low = missing & -missing
        rest = h[mask | low]
        bit_bound = cheapest[low.bit_length() - 1]
        h[mask] = bit_bound if bit_bound > rest else rest
    return h, _greedy_upper_bound(full, usable)


def _greedy_upper_bound(full: int, usable: Sequence[Tuple[int, float]]) -> float:
    """Cost of the ratio-greedy cover: a cheap feasible incumbent.

    Only seeds the DP's pruning bound and never appears in any output,
    so any feasible cover's cost is sound; the caller has already
    checked that the candidate union reaches ``full``, so every pass
    clears at least one bit.
    """
    remaining = full
    total = 0.0
    while remaining:
        best_ratio = math.inf
        best_mask = 0
        best_weight = 0.0
        for clf_mask, weight in usable:
            gain = (clf_mask & remaining).bit_count()
            if not gain:
                continue
            ratio = weight / gain
            if ratio < best_ratio:
                best_ratio = ratio
                best_mask = clf_mask
                best_weight = weight
        remaining &= ~best_mask
        total += best_weight
    return total


def sampled_gains(member_masks: Sequence[int], covered: int) -> List[int]:
    """Batch fresh-coverage counts over sample-local member masks.

    ``gains[i] = popcount(member_masks[i] & ~covered)`` — the seeding
    step of the sampling-based greedy's restricted sub-instance solve.
    Counts are exact integers, so the result is bit-identical to the
    per-element count by construction.
    """
    if covered == 0:
        return [mask.bit_count() for mask in member_masks]
    uncovered = ~covered
    return [(mask & uncovered).bit_count() for mask in member_masks]


def min_cover_dp(full: int, usable: Sequence[Tuple[int, float]]) -> MinCoverOutcome:
    """Bound-pruned mask-native min-cover DP.

    Same contract, tie-breaks, and outputs as the historical exhaustive
    sweep (:func:`~repro.core.reference.reference_min_cover`): ``usable`` holds ``(mask, weight)`` pairs
    over query-local bits, the return is ``(cost, chosen indices)`` in
    selection order or ``None`` when ``full`` is unreachable, and ties
    break toward fewer sets then earliest ``usable`` order.  The only
    change is that states provably unable to beat (or tie) the incumbent
    skip their expansion — see the module docstring for why that leaves
    every surviving entry bit-identical.
    """
    if full == 0:
        return 0.0, []
    tables = admissible_tables(full, usable)
    if tables is None:
        # Some bit belongs to no candidate: full is unreachable, which
        # the exhaustive sweep would discover only after the full pass.
        return None
    h, incumbent = tables

    INF = math.inf
    # Negative weights leave the incumbent infinite and pruning off —
    # tightening it to dp_cost[full] would be unsound too, since a
    # costlier state can still finish cheaper.
    prune = incumbent < INF
    size = full + 1
    dp_cost = [INF] * size
    dp_count = [0] * size
    back: List[Optional[Tuple[int, int]]] = [None] * size  # (prev_mask, usable_idx)
    dp_cost[0] = 0.0

    # Masks only ever grow when a set is added, so a single ascending pass
    # over masks relaxes every useful transition exactly once.
    for mask in range(size):
        cost_here = dp_cost[mask]
        if cost_here is INF:
            continue
        if prune:
            full_cost = dp_cost[full]
            if full_cost < incumbent:
                incumbent = full_cost
            if cost_here + h[mask] > incumbent:
                # No completion from here can beat or tie the incumbent,
                # so skipping the expansion cannot change any surviving
                # entry.
                continue
        count_here = dp_count[mask]
        for idx, (clf_mask, weight) in enumerate(usable):
            nxt = mask | clf_mask
            if nxt == mask:
                continue
            new_cost = cost_here + weight
            # RPL103 suppressed below — deliberate exact tie-break: at
            # equal DP cost prefer fewer classifiers.  Both sides are
            # produced by the same left-to-right accumulation over the
            # deterministic candidate order, so equality is exact and
            # pinned by the test_determinism tie-break suite.
            if new_cost < dp_cost[nxt] or (
                new_cost == dp_cost[nxt]  # reprolint: ignore[RPL103]
                and count_here + 1 < dp_count[nxt]
            ):
                dp_cost[nxt] = new_cost
                dp_count[nxt] = count_here + 1
                back[nxt] = (mask, idx)

    if dp_cost[full] is INF:
        return None

    chosen: List[int] = []
    mask = full
    while mask:
        prev_mask, idx = back[mask]  # type: ignore[misc]
        chosen.append(idx)
        mask = prev_mask
    chosen.reverse()
    return dp_cost[full], chosen
