"""Step 3 split at free properties, and the step-3 memo.

Algorithm 1 runs step 3 per *sub-group*: the queries of a step-2 group
linked through properties step 1 has not made free (docs/algorithms.md
§2).  Classifiers made only of free properties are settled first; a
memo owned by the solution-cache store replays the outcome of a
sub-group it has seen.  :func:`legacy_preprocess` below is the
per-group loop this replaced, kept here as the oracle: with or without
a warm memo, the split must produce exactly what it produced.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from typing import Dict, FrozenSet, List, Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost
from repro.core.costs import CallableCost, CostModel, OverlayCost
from repro.core.coverage import CoverageChecker
from repro.core.properties import Classifier, iter_nonempty_subsets
from repro.devtools.chaos import ChaosInjector
from repro.engine.cache import (
    CacheConfig,
    MemorySolutionCache,
    Step3Memo,
    Step3MemoRun,
    resolve_cache,
)
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import UncoverableQueryError
from repro.preprocess import ALL_STEPS, preprocess
from repro.preprocess.decompose import partition_queries
from repro.core.kernels.pyjit import DominatedPruner
from repro.preprocess.k2_prune import prune_k2_singletons
from repro.preprocess.pipeline import (
    PreprocessResult,
    _InstanceCost,
    _may_have_zero_weights,
)
from repro.preprocess.report import PreprocessReport
from repro.solvers import make_solver


def legacy_preprocess(instance: MC3Instance, steps: Sequence[int]) -> PreprocessResult:
    """Algorithm 1 as it ran before the split: step 3 over each whole
    step-2 group, then step 4 on that group."""
    step_set = set(steps)
    report = PreprocessReport(steps_run=tuple(sorted(step_set)))
    overlay = OverlayCost(_InstanceCost(instance))
    forced: Dict[Classifier, None] = {}

    def select(clf: Classifier) -> None:
        overlay.select(clf)
        forced.setdefault(clf, None)

    if 1 in step_set:
        for q in instance.queries:
            if len(q) == 1:
                if not math.isfinite(instance.weight(q)):
                    raise UncoverableQueryError(q)
                select(q)
                report.singleton_queries_selected += 1
        if _may_have_zero_weights(instance):
            seen = set()
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
    if 2 in step_set:
        groups = partition_queries(uncovered) if uncovered else []
    else:
        groups = [list(uncovered)] if uncovered else []
    report.num_components = len(groups)

    for group in groups:
        if 3 in step_set:
            pruner = DominatedPruner(group, overlay, instance.max_classifier_length)
            removed_count, forced_now = pruner.run(group)
            report.classifiers_removed_step3 += removed_count
            report.forced_covers_step3 += len(forced_now)
            for clf in forced_now:
                forced.setdefault(clf, None)
        if 4 in step_set and group and all(len(q) == 2 for q in group):
            removed_singletons, forced_pairs = prune_k2_singletons(group, overlay)
            report.singletons_removed_step4 += len(removed_singletons)
            for clf in forced_pairs:
                forced.setdefault(clf, None)

    final_uncovered = checker.uncovered_queries(forced) if forced else uncovered
    report.queries_covered_step34 = len(uncovered) - len(final_uncovered)
    residual_groups = (
        partition_queries(final_uncovered)
        if 2 in step_set
        else ([final_uncovered] if final_uncovered else [])
    )
    components = [
        MC3Instance(
            group,
            overlay,
            max_classifier_length=instance.max_classifier_length,
            name=f"{instance.name}#c{index}" if instance.name else f"component{index}",
        )
        for index, group in enumerate(residual_groups)
        if group
    ]
    return PreprocessResult(instance, frozenset(forced), overlay, components, report)


def signature(prep: PreprocessResult):
    """Everything a solve reads off preprocessing, timing excluded."""
    report = prep.report.as_dict()
    report.pop("elapsed_seconds")
    return (
        prep.forced,
        prep.overlay.overrides,
        report,
        [(component.name, component.queries) for component in prep.components],
        float(prep.base_cost).hex(),
    )


def run_with(memo: Step3Memo, instance: MC3Instance, steps=ALL_STEPS):
    run = memo.open()
    prep = preprocess(instance, steps=steps, memo=run)
    run.commit()
    return prep, run


# ----------------------------------------------------------------------
# Draws
# ----------------------------------------------------------------------

NAMES = [f"p{i}" for i in range(9)]

#: ``{f1, f2}`` is free-only and shared by the sub-groups of
#: ``{f1, f2, x}`` and ``{f1, f2, y}``.  The memo stores the second
#: sub-group while both are present and serves it once the first has
#: slid out of the window.
SHARED_FREE_PAIR = [
    frozenset({"f1", "f2", "x"}),
    frozenset({"f1"}),
    frozenset({"f2"}),
    frozenset({"f1", "f2", "y"}),
    frozenset({"y", "z"}),
]


class SignedTable(CostModel):
    """A cost table that also admits negative weights (``TableCost``
    rejects them); its token names the whole table, as ``TableCost``'s
    does.  Absent classifiers cost infinity."""

    def __init__(self, table: Dict[FrozenSet[str], float]):
        self.table = dict(table)
        self._token = repr(sorted((sorted(clf), w) for clf, w in self.table.items()))

    def cost(self, clf):
        return self.table.get(clf, math.inf)

    def content_token(self, scope):
        return self._token.encode("utf-8")


weights = st.one_of(
    st.integers(min_value=0, max_value=12).map(float),
    st.integers(min_value=-4, max_value=-1).map(float),
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def sliding_loads(draw):
    """``(windows, steps)``: windows slid over one query log, all priced
    by one cost table (zero, negative and missing weights) under one
    length cap."""
    query = st.frozensets(st.sampled_from(NAMES), min_size=1, max_size=4)
    log: List[FrozenSet[str]] = draw(st.lists(query, min_size=3, max_size=14, unique=True))
    shared = draw(st.booleans())
    if shared:
        # Windows 0 and 1 both hold the pattern (the memo stores a
        # sub-group the second time its queries come round); window 2
        # has lost {f1, f2, x} only.
        log = log[:1] + SHARED_FREE_PAIR + log[1:]
    table: Dict[FrozenSet[str], float] = {}
    for q in log:
        for clf in iter_nonempty_subsets(q):
            if clf in table:
                continue
            if len(clf) > 1 and draw(st.integers(0, 4)) == 0:
                continue  # never priced: weight infinity
            table[clf] = draw(weights)
    cap = draw(st.sampled_from([None, None, 2, 3]))
    if shared:
        # Slide one query at a time, over windows holding the whole
        # pattern: the second window drops {f1, f2, x} only.
        size, step = draw(st.integers(len(SHARED_FREE_PAIR) + 1, len(log) - 2)), 1
    else:
        size = draw(st.integers(min_value=1, max_value=len(log)))
        step = draw(st.integers(min_value=1, max_value=3))
    cost = SignedTable(table)
    windows = [
        MC3Instance(log[start : start + size], cost, max_classifier_length=cap)
        for start in range(0, len(log) - size + 1, step)
    ]
    steps = draw(
        st.sampled_from(
            [ALL_STEPS, ALL_STEPS, (1, 2, 3), (1, 3), (2, 3), (1, 2, 3, 4), (3,), (1, 2)]
        )
    )
    return windows, steps


def _assert_matches_legacy(memo: Step3Memo, instance: MC3Instance, steps) -> None:
    try:
        expected = signature(legacy_preprocess(instance, steps))
    except UncoverableQueryError:
        with pytest.raises(UncoverableQueryError):
            run_with(memo, instance, steps)
        return
    assert signature(preprocess(instance, steps=steps)) == expected
    assert signature(run_with(memo, instance, steps)[0]) == expected


class TestEquivalence:
    @given(sliding_loads())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_warm_memo_matches_per_group_loop(self, load):
        windows, steps = load
        memo = Step3Memo()
        for instance in windows:
            _assert_matches_legacy(memo, instance, steps)

    def test_shared_free_only_pair(self):
        cost = TableCost(
            {
                frozenset({"f1"}): 4.0,
                frozenset({"f2"}): 6.0,
                frozenset({"f1", "f2"}): 3.0,
                frozenset({"x"}): 2.0,
                frozenset({"y"}): 2.0,
                frozenset({"z"}): 5.0,
                frozenset({"y", "z"}): 1.0,
                frozenset({"f1", "x"}): 1.0,
                frozenset({"f2", "y"}): 1.0,
                frozenset({"u"}): 1.0,
                frozenset({"v"}): 1.0,
            }
        )
        first = MC3Instance(SHARED_FREE_PAIR, cost)
        second = MC3Instance(SHARED_FREE_PAIR[1:] + [frozenset({"u", "v"})], cost)
        memo = Step3Memo()
        # The first window's second plan stores {f1, f2, y}'s outcome;
        # the second window replays it.  The shared pair is still
        # removed there, and counted once.
        for instance in (first, first, second):
            _assert_matches_legacy(memo, instance, ALL_STEPS)
        prep, run = run_with(memo, second)
        assert run.hits >= 1
        assert prep.overlay.is_removed(frozenset({"f1", "f2"}))

    def test_split_only_when_steps_one_and_two_run(self):
        table = {
            clf: float(3 * len(clf) - 1)
            for q in SHARED_FREE_PAIR
            for clf in iter_nonempty_subsets(q)
        }
        calls = []

        class Recording(Step3MemoRun):
            def recurs(self, group):
                calls.append(len(group))
                return super().recurs(group)

        for steps, sizes in (
            (ALL_STEPS, [1, 2]),  # {f1,f2,x} | {f1,f2,y},{y,z}
            ((1, 3), [3]),  # one group, not split
        ):
            calls.clear()
            preprocess(
                MC3Instance(SHARED_FREE_PAIR, TableCost(table)),
                steps=steps,
                memo=Recording(Step3Memo()),
            )
            assert calls == sizes


    def test_no_memo_without_a_content_token(self):
        table = {
            clf: float(3 * len(clf) - 1)
            for q in SHARED_FREE_PAIR
            for clf in iter_nonempty_subsets(q)
        }
        opaque = MC3Instance(SHARED_FREE_PAIR, CallableCost(lambda clf: table[clf]))
        assert opaque.cost_content_token() is None
        memo = Step3Memo()
        for _ in range(3):
            _, run = run_with(memo, opaque)
            assert run.hits == 0
        assert len(memo) == 0


class TestPartitionIgnore:
    def test_ignored_properties_link_nothing(self):
        queries = [frozenset("ab"), frozenset("bc"), frozenset("cd")]
        assert partition_queries(queries, ignore={"b"}) == [
            [frozenset("ab")],
            [frozenset("bc"), frozenset("cd")],
        ]

    def test_fully_ignored_query_stands_alone(self):
        queries = [frozenset("ab"), frozenset("b"), frozenset("bc")]
        assert partition_queries(queries, ignore={"b"}) == [
            [frozenset("ab")],
            [frozenset("b")],
            [frozenset("bc")],
        ]

    def test_no_ignore_is_step_two(self):
        queries = [frozenset("ab"), frozenset("bc"), frozenset("xy")]
        assert partition_queries(queries, ignore=set()) == partition_queries(queries)


# ----------------------------------------------------------------------
# Memo scope, through the engine
# ----------------------------------------------------------------------


def window_log():
    """Two overlapping windows of a small BestBuy-like log."""
    from repro.datasets import bestbuy_like

    base = bestbuy_like(n=240, seed=3)
    log = list(base.queries)
    return [
        MC3Instance(log[start : start + 160], base.cost, name=f"w{start}")
        for start in (0, 20, 40)
    ]


def plan_signature(result):
    return (sorted(map(sorted, result.solution.classifiers)), result.cost.hex())


class TestMemoScope:
    def test_hits_on_a_slid_window_and_identical_output(self):
        store = MemorySolutionCache()
        solver = make_solver("mc3-general", cache=store)
        reference = make_solver("mc3-general", cache="off")
        section = None
        for instance in window_log():
            warm = solver.solve(instance)
            cold = reference.solve(instance)
            assert plan_signature(warm) == plan_signature(cold)
            assert warm.details["preprocess"] == {
                **cold.details["preprocess"],
                "elapsed_seconds": warm.details["preprocess"]["elapsed_seconds"],
            }
            section = warm.details["engine"]["cache"]
            assert "step3_hits" not in warm.details["preprocess"]
        assert section["step3_hits"] > 0
        assert section["step3_hits"] + section["step3_misses"] > 0

    def test_cache_off_never_consults_the_memo(self, monkeypatch):
        def refuse(self):
            raise AssertionError("memo consulted")

        monkeypatch.setattr(Step3Memo, "open", refuse)
        result = make_solver("mc3-general", cache="off").solve(window_log()[0])
        assert "cache" not in result.details["engine"]

    def test_chaos_never_consults_the_memo(self, monkeypatch):
        store = MemorySolutionCache()
        monkeypatch.setattr(store.step3_memo, "open", lambda: pytest.fail("memo consulted"))
        policy = ResiliencePolicy(chaos=ChaosInjector(seed=0, fault_rate=0.0))
        result = make_solver("mc3-general", cache=store, resilience=policy).solve(
            window_log()[0]
        )
        assert "cache" not in result.details["engine"]

    def test_bespoke_store_gets_no_memo(self):
        class DictStore:
            kind = "dict"

            def __init__(self):
                self.entries = {}

            def get(self, fingerprint):
                return self.entries.get(fingerprint)

            def put(self, fingerprint, blob):
                self.entries[fingerprint] = blob
                return True

            def stats(self):
                return {"entries": len(self.entries)}

            def clear(self):
                self.entries.clear()
                return 0

        store = DictStore()
        assert resolve_cache(store) is store
        solver = make_solver("mc3-general", cache=store)
        windows = window_log()
        for instance in windows[:2]:
            result = solver.solve(instance)
        section = result.details["engine"]["cache"]
        assert section["step3_hits"] == section["step3_misses"] == 0
        assert plan_signature(result) == plan_signature(
            make_solver("mc3-general", cache="off").solve(windows[1])
        )

    def test_memo_holds_only_the_last_plan(self):
        from repro.datasets import bestbuy_like, synthetic

        store = MemorySolutionCache()
        solver = make_solver("mc3-general", cache=store)
        # Disjoint property vocabularies, both priced by models with a
        # content token.
        first, second = bestbuy_like(n=120, seed=1), synthetic(n=150, seed=2)
        # The first plan of a load keys nothing: none of its queries
        # recur.  The second stores every sub-group it prunes.
        cold = solver.solve(first).details["engine"]["cache"]
        assert cold["step3_hits"] == 0 and len(store.step3_memo) == 0
        stored = solver.solve(first).details["engine"]["cache"]
        first_keys = set(store.step3_memo._entries)
        assert len(first_keys) == stored["step3_misses"] > 0
        for _ in range(2):
            section = solver.solve(second).details["engine"]["cache"]
        assert section["step3_hits"] == 0
        assert len(store.step3_memo) == section["step3_misses"] > 0
        second_queries = set(second.queries)
        assert all(set(key[0]) <= second_queries for key in store.step3_memo._entries)
        assert not first_keys & set(store.step3_memo._entries)

    def test_jobs_two_on_a_warm_memo(self, monkeypatch):
        pickled = []

        def refuse(self, protocol):
            pickled.append(type(self).__name__)
            raise TypeError("the step-3 memo must stay in the parent")

        monkeypatch.setattr(Step3Memo, "__reduce_ex__", refuse, raising=False)
        monkeypatch.setattr(Step3MemoRun, "__reduce_ex__", refuse, raising=False)
        windows = window_log()
        sequential = make_solver("mc3-general", cache=MemorySolutionCache())
        # A spec, not a live store: the solver itself crosses into the
        # workers, and a store (with its lock) cannot.
        spec = CacheConfig(backend="memory", max_entries=4099)
        resolve_cache(spec).clear()
        pooled = make_solver("mc3-general", cache=spec, jobs=2)
        for instance in windows:
            one = sequential.solve(instance)
            two = pooled.solve(instance)
            assert plan_signature(one) == plan_signature(two)
            assert two.details["engine"]["resilience"]["failures"] == 0
            assert two.details["engine"]["mode"] == "process-pool"
        assert two.details["engine"]["cache"]["step3_hits"] > 0
        assert pickled == []


def test_identical_across_hash_seeds():
    script = (
        "from repro.datasets import bestbuy_like\n"
        "from repro.core import MC3Instance\n"
        "from repro.solvers import make_solver\n"
        "base = bestbuy_like(n=240, seed=3)\n"
        "log = list(base.queries)\n"
        "solver = make_solver('mc3-general', cache='memory')\n"
        "for start in (0, 20, 40):\n"
        "    r = solver.solve(MC3Instance(log[start:start + 160], base.cost))\n"
        "    print(sorted(map(sorted, r.solution.classifiers)), r.cost.hex(),"
        " r.details['engine']['cache']['step3_hits'])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    outputs = []
    for hash_seed in ("0", "1", "424242"):
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
