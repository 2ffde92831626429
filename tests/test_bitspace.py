"""Equivalence suite for the bitset property-space rewrite.

Every hot path that moved onto interned integer masks —
:mod:`repro.core.bitspace` helpers, the min-cover DP, dominated
pruning, the MC³ → WSC reduction, and the greedy set cover —
is checked here against the verbatim pre-change implementations kept in
:mod:`repro.core.reference`.  The promise under test is *bit-identical*
output: same orders, same tie-breaks, same costs, same solutions, for
every registered solver.
"""

import itertools
import math
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, OverlayCost, TableCost
from repro.core.bitspace import (
    PropertySpace,
    compress_masks,
    iter_bits,
    mask_union,
    popcount,
)
from repro.core.kernels.pyjit import (
    FORCED_COVER_NODE_BUDGET,
    LOCAL_LATTICES,
    DominatedPruner,
    greedy_wsc,
)
from repro.core.mincover import (
    enumerate_covers,
    enumerate_covers_local,
    min_cover,
    unique_cover_table,
)
from repro.core.properties import (
    classifier_sort_key,
    iter_nonempty_subsets,
    iter_two_covers,
    iter_two_partitions,
)
from repro.core.reference import (
    ReferenceDominatedPruner,
    patch_reference_kernels,
    reference_enumerate_covers,
    reference_greedy_wsc,
    reference_mc3_to_wsc,
    reference_min_cover,
)
from repro.exceptions import ReductionError, SolverError, UncoverableQueryError
from repro.reductions import mc3_to_wsc
from repro.solvers import available_solvers, make_solver
from tests.strategies import PROPERTY_NAMES, mc3_instances
from tests.test_setcover import random_wsc

properties = st.sampled_from(PROPERTY_NAMES)
small_sets = st.frozensets(properties, min_size=1, max_size=6)


class TestMaskPrimitives:
    @given(small_sets)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_and_popcount(self, props):
        space = PropertySpace.from_queries([props])
        mask = space.mask_of(props)
        assert space.set_of(mask) == props
        assert popcount(mask) == len(props)
        assert [space.properties[b] for b in iter_bits(mask)] == sorted(props)

    def test_mask_union(self):
        assert mask_union([]) == 0
        assert mask_union([0b001, 0b100, 0b010]) == 0b111

    @given(small_sets, st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_subset_masks_match_frozenset_order(self, props, max_length):
        """Order-exact: subsets come out in the historical order."""
        space = PropertySpace.from_queries([props])
        mask = space.mask_of(props)
        via_masks = [
            space.set_of(sub) for sub in space.iter_subset_masks(mask, max_length)
        ]
        assert via_masks == list(iter_nonempty_subsets(props, max_length))

    @given(st.frozensets(properties, min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_two_partition_masks_match_family(self, props):
        """Same family of unordered partitions (order may differ)."""
        space = PropertySpace.from_queries([props])
        mask = space.mask_of(props)
        via_masks = Counter(
            frozenset((space.set_of(a), space.set_of(b)))
            for a, b in space.iter_two_partition_masks(mask)
        )
        via_sets = Counter(
            frozenset((a, b)) for a, b in iter_two_partitions(props)
        )
        assert via_masks == via_sets

    @given(st.frozensets(properties, min_size=2, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_two_cover_masks_match_family(self, props):
        space = PropertySpace.from_queries([props])
        mask = space.mask_of(props)
        via_masks = Counter(
            frozenset((space.set_of(a), space.set_of(b)))
            for a, b in space.iter_two_cover_masks(mask)
        )
        via_sets = Counter(frozenset((a, b)) for a, b in iter_two_covers(props))
        assert via_masks == via_sets

    def test_compress_masks_filters_to_submasks(self):
        full, local = compress_masks(0b0110, [0b0010, 0b1000, 0b0110, 0b0111])
        assert full == 0b11
        assert local == [0b01, 0b11]  # non-submasks dropped


class TestPrunerOverlayWriteThrough:
    def test_select_and_remove_reach_the_overlay(self):
        """The pruner's price table and the overlay agree after a run:
        ``a+b`` is removed (1 + 2 <= 4), which leaves ``{a, b}`` the only
        cover of its query, and ``c+d``, the only cover of its own, is
        selected."""
        table = TableCost({"a": 1, "b": 2, "a b": 4, "c d": 5})
        queries = [frozenset("ab"), frozenset("cd")]
        overlay = OverlayCost(table)
        pruner = DominatedPruner(queries, overlay)
        removed, forced = pruner.run(queries)
        assert removed == 1
        assert forced == [frozenset("a"), frozenset("b"), frozenset("cd")]
        assert overlay.is_removed(frozenset("ab"))
        assert overlay.cost(frozenset("a")) == 0.0
        assert overlay.cost(frozenset("cd")) == 0.0
        assert pruner.effective_weight(frozenset("a")) == 0.0
        assert math.isinf(pruner.effective_weight(frozenset("c")))
        assert pruner.effective_weight(frozenset("ab")) == 3
        assert pruner.effective_weight(frozenset("cd")) == 0.0


def _candidates(instance, q):
    return [
        (clf, instance.cost.cost(clf)) for clf in iter_nonempty_subsets(q)
    ]


class TestMinCoverEquivalence:
    @given(mc3_instances(price_all=False))
    @settings(max_examples=40, deadline=None)
    def test_min_cover_matches_reference(self, instance):
        for q in instance.queries:
            candidates = _candidates(instance, q)
            new = min_cover(q, candidates, required=False)
            ref = reference_min_cover(q, candidates, required=False)
            if ref is None:
                assert new is None
                continue
            assert new is not None
            assert new.cost == ref.cost
            assert new.classifiers == ref.classifiers

    @given(mc3_instances(price_all=False), st.sampled_from([None, 1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_enumerate_covers_matches_reference(self, instance, limit):
        for q in instance.queries:
            candidates = _candidates(instance, q)
            new = enumerate_covers(q, candidates, limit=limit, node_budget=200)
            ref = reference_enumerate_covers(
                q, candidates, limit=limit, node_budget=200
            )
            assert [(c.classifiers, c.cost) for c in new] == [
                (c.classifiers, c.cost) for c in ref
            ]


#: A query of every length from 1 to 8 (lengths 3–7 price two-covers
#: through the per-length tables, length 8 its two-partitions).  The
#: concave, unevenly scaled prices make step 3 remove some classifiers
#: of every length from 2 to 7 and keep others; the ``p1 p3`` hole
#: makes a part with no direct price.
LONG_QUERIES = [frozenset(f"p{i}" for i in range(length)) for length in range(1, 9)]
LONG_TABLE = {
    clf: len(clf) ** 0.5 * (1 + sum(int(p[1:]) for p in clf) % 4)
    for q in LONG_QUERIES
    for clf in iter_nonempty_subsets(q)
    if clf != frozenset(("p1", "p3"))
}


def _assert_pruner_matches_reference(instance, max_length=None, edits=()):
    """Run both pruners on equal overlays (after ``edits``, a sequence
    of ``("select" | "remove", classifier)``) and compare everything
    they decide: the result, the order of removals and selections, the
    overlay's overrides in write order, and every effective weight."""
    overlay_new = OverlayCost(instance.cost)
    overlay_ref = OverlayCost(instance.cost)
    for action, clf in edits:
        getattr(overlay_new, action)(clf)
        getattr(overlay_ref, action)(clf)
    pruner = DominatedPruner(instance.queries, overlay_new, max_length)
    reference = ReferenceDominatedPruner(instance.queries, overlay_ref, max_length)
    assert pruner.run(instance.queries) == reference.run(instance.queries)
    assert pruner.forced == reference.forced
    assert list(pruner.removed) == list(reference.removed)
    assert list(overlay_new.overrides.items()) == list(overlay_ref.overrides.items())
    for q in instance.queries:
        for clf in iter_nonempty_subsets(q):
            new = pruner.effective_weight(clf)
            assert float(new).hex() == float(reference.effective_weight(clf)).hex()


@st.composite
def preprocessing_edits(draw, instance):
    """Overlay edits of the kind preprocessing hands step 3: some
    singletons selected (step 1's free properties), then some
    classifiers removed (an earlier pruning pass)."""
    candidates = sorted(
        {clf for q in instance.queries for clf in iter_nonempty_subsets(q)},
        key=classifier_sort_key,
    )
    singletons = [clf for clf in candidates if len(clf) == 1]
    selected = draw(st.lists(st.sampled_from(singletons), unique=True, max_size=3))
    removed = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4))
    return [("select", clf) for clf in selected] + [("remove", clf) for clf in removed]


class TestDominatedPrunerEquivalence:
    @given(mc3_instances(), st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_run_matches_reference(self, instance, max_length):
        _assert_pruner_matches_reference(instance, max_length)

    @given(
        st.one_of(mc3_instances(), mc3_instances(price_all=False)),
        st.sampled_from([None, 1, 2, 3]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_run_matches_reference_on_an_edited_overlay(
        self, instance, max_length, data
    ):
        edits = data.draw(preprocessing_edits(instance))
        _assert_pruner_matches_reference(instance, max_length, edits)

    @example(MC3Instance(LONG_QUERIES, TableCost(LONG_TABLE)))
    @given(
        st.one_of(
            mc3_instances(max_queries=3, max_query_length=8),
            mc3_instances(max_queries=3, max_query_length=8, price_all=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_run_matches_reference_up_to_length_8(self, instance):
        _assert_pruner_matches_reference(instance)

    def test_forced_cover_is_selected_in_lattice_order(self):
        """``{c, a+b}`` is the only cover of ``a b c``; both pruners
        select ``c`` first, the order the query's subsets are listed in
        (by length, then label)."""
        instance = MC3Instance([frozenset("abc")], TableCost({"c": 1, "a b": 2}))
        _assert_pruner_matches_reference(instance)
        pruner = DominatedPruner(instance.queries, OverlayCost(instance.cost))
        assert pruner.run(instance.queries)[1] == [frozenset("c"), frozenset("ab")]

    @given(
        mc3_instances(max_queries=3, max_query_length=6, price_all=False),
        st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_run_matches_reference_under_a_cap_below_the_query_length(
        self, instance, max_length
    ):
        _assert_pruner_matches_reference(instance, max_length)


def _expected_unique_cover(length, subsets, weights):
    covers, exhausted = enumerate_covers_local(
        (1 << length) - 1,
        list(zip(subsets, weights)),
        limit=2,
        node_budget=FORCED_COVER_NODE_BUDGET,
    )
    if exhausted or len(covers) != 1:
        return None
    return covers[0][0]


def _lookup(length, subsets):
    return unique_cover_table(length, tuple(subsets), FORCED_COVER_NODE_BUDGET)


class TestUniqueCoverTable:
    """The step-3 uniqueness table answers exactly as the live
    irredundant-cover search, whatever the weights, and the pruner never
    fills it past one entry per lattice pattern."""

    def test_every_length_3_pattern(self):
        lattice = LOCAL_LATTICES[3]
        patterns = [
            tuple(sub for pos, sub in enumerate(lattice) if keep >> pos & 1)
            for keep in range(1 << len(lattice))
        ]
        # Every ordering of up to four subsets too: the search order, and
        # so the picked indices, depend on the order the subsets come in.
        for size in range(1, 5):
            patterns.extend(itertools.permutations(lattice, size))
        for subsets in patterns:
            weights = [float(sub) for sub in subsets]
            for length in (3, 4):
                assert _lookup(length, subsets) == _expected_unique_cover(
                    length, subsets, weights
                )

    @given(
        st.lists(st.integers(min_value=1, max_value=15), unique=True, max_size=15),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_length_4_patterns(self, subsets, data):
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=30.0),
                min_size=len(subsets),
                max_size=len(subsets),
            )
        )
        assert _lookup(4, subsets) == _expected_unique_cover(4, subsets, weights)

    def test_pruner_keeps_one_entry_per_pattern(self):
        """All 2^7 availability patterns of a length-3 query, each at two
        price levels: the table ends with at most 2^7 entries."""
        unique_cover_table.cache_clear()
        query = frozenset(("a", "b", "c"))
        lattice = list(iter_nonempty_subsets(query))
        for keep in range(1 << len(lattice)):
            for scale in (1.0, 7.0):
                # Concave prices: nothing is dominated, so the pattern
                # reaches the uniqueness test as drawn.
                table = {
                    clf: scale * len(clf) ** 0.5
                    for pos, clf in enumerate(lattice)
                    if keep >> pos & 1
                }
                pruner = DominatedPruner([query], OverlayCost(TableCost(table)))
                pruner.run([query])
        assert 0 < unique_cover_table.cache_info().currsize <= 2**7


class TestReductionEquivalence:
    @given(mc3_instances())
    @settings(max_examples=30, deadline=None)
    def test_mc3_to_wsc_matches_reference(self, instance):
        new = mc3_to_wsc(instance)
        ref = reference_mc3_to_wsc(instance)
        assert new.universe_size == ref.universe_size
        assert new.num_sets == ref.num_sets
        for element_id in range(new.universe_size):
            assert new.element_label(element_id) == ref.element_label(element_id)
        for set_id in range(new.num_sets):
            assert new.set_label(set_id) == ref.set_label(set_id)
            assert new.set_cost(set_id) == ref.set_cost(set_id)
            assert new.set_members(set_id) == ref.set_members(set_id)


class TestGreedyEquivalence:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_greedy_matches_reference(self, seed):
        instance = random_wsc(seed)
        new = greedy_wsc(instance)
        ref = reference_greedy_wsc(instance)
        assert new.set_ids == ref.set_ids
        assert new.cost == ref.cost


def _solve_or_exception(solver, instance):
    try:
        result = solver.solve(instance)
    except (ReductionError, SolverError, UncoverableQueryError) as error:
        return type(error).__name__
    return (frozenset(result.solution.classifiers), result.cost)


class TestSolversBitIdentical:
    """Every registered solver returns the identical solution whether it
    runs on the mask kernels or the patched-in frozenset references."""

    @given(mc3_instances(max_queries=4))
    @settings(max_examples=10, deadline=None)
    def test_all_registered_solvers(self, instance):
        kwargs = {"mc3-robust": {"redundancy": 1}}
        for name in available_solvers():
            solver = make_solver(name, **kwargs.get(name, {}))
            current = _solve_or_exception(solver, instance)
            with patch_reference_kernels():
                patched = _solve_or_exception(solver, instance)
            assert current == patched, name
