"""Warm-vs-cold performance of the component-solution cache.

The content-addressed cache (:mod:`repro.engine.cache`) promises two
things on the engine pipeline:

* an **all-miss cold pass costs (almost) nothing** — fingerprinting and
  the failed lookup must stay under 3 % of the solve on a workload with
  realistically sized components, and
* a **warm pass is dramatically faster** — every component served from
  cache skips its solve entirely, so a fully warm run must be at least
  10x faster than the cold solve on the 2000-query workload.

A third pass re-plans a **sliding window** over a BestBuy-like log with
the full Algorithm 1, the way a planner re-plans as queries drift: each
re-plan must equal a cache-off solve of its window bit for bit, and
every warm re-plan must replay some step-3 sub-groups from the store's
plan memo (docs/algorithms.md §2); how many step-2 groups it replays
whole is reported.  Its cold pass (a fresh store, so
every sub-group misses the memo) gets the same 3 % overhead gate,
against the same store without a memo.  The pass in which every
sub-group is keyed and misses, a load's second plan, is reported.

Both claims are checked against the paper-scale shape: ~250
property-disjoint blocks x 8 queries of 4-6 properties each (~2000
queries, thousands of distinct candidate classifiers), solved by
``mc3-general`` with the paper's ``best_of`` WSC method.  Every timed
variant must return bit-identical classifiers and cost — a cache that
changes any answer loses, no matter how fast it is.  Every time is the
CPU time of the one solving process (``time.process_time``).

Standalone usage (mirrors ``bench_bitspace.py`` / BENCH_core.json)::

    python benchmarks/bench_cache.py --save BENCH_cache.json
    python benchmarks/bench_cache.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time
from typing import Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import MC3Instance, TableCost  # noqa: E402
from repro.core.properties import iter_nonempty_subsets  # noqa: E402
from repro.datasets import bestbuy_like  # noqa: E402
from repro.engine.cache import MemorySolutionCache  # noqa: E402
from repro.solvers import make_solver  # noqa: E402

BLOCKS = 250
QUERIES_PER_BLOCK = 8
REPEATS = 7
OVERHEAD_LIMIT = 0.03
SPEEDUP_FLOOR = 10.0

#: Sliding-window pass: window size, queries slid per re-plan, re-plans.
WINDOW = 1000
WINDOW_STEP = 20
WINDOW_PLANS = 20
SLIDING_ROUNDS = 15

#: Least number of alternating plain/cold pairs behind the all-miss
#: overhead gate, whatever ``repeats`` says (as many as the sliding
#: pass takes): three pairs let one slow round on a shared host move
#: the paired median past the limit.
CACHE_ROUNDS = 15


def cache_workload(
    blocks: int = BLOCKS,
    queries_per_block: int = QUERIES_PER_BLOCK,
    seed: int = 0,
):
    """``(instance, classifier_count)``: ~``blocks * queries_per_block``
    queries of 4-6 properties over property-disjoint 8-property blocks;
    costs a pure function of the classifier, so every run prices
    identically."""
    rng = random.Random(f"bench-cache-{seed}")
    queries = []
    costs: Dict[object, float] = {}
    for block in range(blocks):
        props = [f"b{block}p{i}" for i in range(8)]
        block_queries = set()
        while len(block_queries) < queries_per_block:
            block_queries.add(frozenset(rng.sample(props, rng.randint(4, 6))))
        for q in sorted(block_queries, key=sorted):
            queries.append(q)
            for clf in iter_nonempty_subsets(q):
                key = repr(tuple(sorted(clf)))
                costs.setdefault(clf, float(random.Random(key).randint(1, 50)))
    return MC3Instance(queries, TableCost(costs), name="bench-cache"), len(costs)


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def paired_overhead(base_rounds, variant_rounds) -> float:
    """Median of per-round variant/base ratios, minus one: paired
    ratios cancel load drift, the median discards hiccups."""
    return median(v / b for b, v in zip(base_rounds, variant_rounds)) - 1.0


def timed_solve(solver, instance):
    """CPU seconds of one in-process solve: unlike wall-clock time, a
    neighbour's load on a shared host does not enter the paired ratios
    the overhead gates read."""
    started = time.process_time()
    result = solver.solve(instance)
    return time.process_time() - started, result


def run_all(blocks: int = BLOCKS, repeats: int = REPEATS) -> Dict[str, object]:
    instance, classifiers = cache_workload(blocks=blocks)

    # Decomposition only (step 2): dominated pruning solves a large part
    # of this workload during *preprocessing*, which the cache neither
    # amortizes nor should be charged for — with step 1 in the pipeline
    # the warm pass is bounded by pruning time, not by cache service.
    def solver(cache=None):
        return make_solver(
            "mc3-general",
            wsc_method="best_of",
            preprocess_steps=(2,),
            cache=cache,
        )

    # Warmup outside timing: lazy imports, interned masks, allocator.
    baseline = solver(cache="off").solve(instance)

    warm_store = MemorySolutionCache(max_entries=65536)
    # The warm pass measures the component cache alone: with the plan
    # memo, a re-plan of the same load would replay every step-2 group
    # and never look a component up.
    warm_store.step3_memo = None
    solver(cache=warm_store).solve(instance)  # populate every entry

    plain_rounds: List[float] = []
    cold_rounds: List[float] = []
    warm_rounds: List[float] = []
    plain = cold = warm = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    rounds = max(repeats, CACHE_ROUNDS)
    try:
        for round_index in range(rounds):
            gc.collect()
            # A fresh store every round keeps the cold pass all-miss; the
            # pair alternates which side plans first.
            pair = [
                solver(cache="off"),
                solver(cache=MemorySolutionCache(max_entries=65536)),
            ]
            for side in (0, 1) if round_index % 2 == 0 else (1, 0):
                seconds, result = timed_solve(pair[side], instance)
                if side:
                    cold_rounds.append(seconds)
                    cold = result
                else:
                    plain_rounds.append(seconds)
                    plain = result
            seconds, warm = timed_solve(solver(cache=warm_store), instance)
            warm_rounds.append(seconds)
    finally:
        if gc_was_enabled:
            gc.enable()

    # The cache must never change the answer, hit or miss.
    for result in (plain, cold, warm):
        assert result.solution.classifiers == baseline.solution.classifiers
        assert result.cost == baseline.cost

    components = plain.details["components"]
    cold_cache = cold.details["engine"]["cache"]
    warm_cache = warm.details["engine"]["cache"]
    assert cold_cache["misses"] == components, cold_cache
    assert warm_cache["hits"] == components, warm_cache

    plain_s, cold_s, warm_s = (
        median(plain_rounds),
        median(cold_rounds),
        median(warm_rounds),
    )
    overhead = paired_overhead(plain_rounds, cold_rounds)
    speedup = plain_s / warm_s if warm_s > 0 else float("inf")

    print(f"workload            : {len(instance.queries)} queries, "
          f"{classifiers} classifiers, {components} components")
    print(f"no cache            : {plain_s:.4f}s (median of {rounds})")
    print(f"cold (all-miss)     : {cold_s:.4f}s ({overhead:+.2%} paired median)")
    print(f"warm (all-hit)      : {warm_s:.4f}s ({speedup:.1f}x vs no cache)")

    assert overhead < OVERHEAD_LIMIT, (
        f"all-miss cold-path overhead {overhead:+.2%} exceeds "
        f"{OVERHEAD_LIMIT:.0%} on the {len(instance.queries)}-query workload"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:.0f}x floor"
    )
    return {
        "benchmark": "solution_cache",
        "schema": 3,
        "python": sys.version.split()[0],
        "mode": "smoke" if blocks < BLOCKS else "full",
        "repeats": rounds,
        "workload": {
            "blocks": blocks,
            "queries_per_block": QUERIES_PER_BLOCK,
            "queries": len(instance.queries),
            "classifiers": classifiers,
            "components": components,
        },
        "plain_seconds": plain_s,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "overhead_fraction": overhead,
        "overhead_limit_fraction": OVERHEAD_LIMIT,
        "warm_speedup": speedup,
        "warm_speedup_floor": SPEEDUP_FLOOR,
    }


def plan_signature(result):
    return (
        sorted(sorted(clf) for clf in result.solution.classifiers),
        result.cost.hex(),
    )


def sliding_windows(window: int, plans: int):
    base = bestbuy_like(n=window + WINDOW_STEP * (plans - 1), seed=0)
    log = list(base.queries)
    return [
        MC3Instance(
            log[index * WINDOW_STEP : index * WINDOW_STEP + window],
            base.cost,
            name=f"window{index}",
        )
        for index in range(plans)
    ]


def run_sliding(
    window: int = WINDOW, plans: int = WINDOW_PLANS, repeats: int = REPEATS
) -> Dict[str, object]:
    """Re-plan a sliding window with the full Algorithm 1, cache on."""
    windows = sliding_windows(window, plans)
    plain_solver = make_solver("mc3-general", cache="off")
    plain_solver.solve(windows[0])  # warmup: lazy imports, allocator

    def store_solver(memo: bool):
        store = MemorySolutionCache(max_entries=65536)
        if not memo:
            store.step3_memo = None
        return make_solver("mc3-general", cache=store)

    def primed(memo: bool):
        solver = store_solver(memo)
        solver.solve(windows[0])
        return solver

    # Each round pairs a store with its memo against the same store with
    # the memo taken away, alternating which plans first.  Cold: a fresh
    # store, so every step-3 sub-group misses (none recurs yet, so none
    # is keyed).  Keyed: a store that planned the window once, so every
    # sub-group recurs, is keyed, and misses.  Only the cold pass is
    # gated; the keyed pass happens once per load, on its second plan.
    # A round is a single plan, so more rounds than the other passes.
    cold_pairs: List[List[float]] = [[], []]
    keyed_pairs: List[List[float]] = [[], []]
    pass_misses = [0, 0]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_index in range(max(repeats, SLIDING_ROUNDS)):
            for kind, (pairs, make) in enumerate(
                ((cold_pairs, store_solver), (keyed_pairs, primed))
            ):
                gc.collect()
                solvers = [make(memo=False), make(memo=True)]
                for side in (0, 1) if round_index % 2 == 0 else (1, 0):
                    seconds, result = timed_solve(solvers[side], windows[0])
                    pairs[side].append(seconds)
                    if side:
                        section = result.details["engine"]["cache"]
                        pass_misses[kind] = section["step3_misses"]
    finally:
        if gc_was_enabled:
            gc.enable()
    cold_misses, keyed_misses = pass_misses

    store = MemorySolutionCache(max_entries=65536)
    served_solver = make_solver("mc3-general", cache=store)
    plain_seconds: List[float] = []
    served_seconds: List[float] = []
    hits: List[int] = []
    misses: List[int] = []
    group_hits: List[int] = []
    group_misses: List[int] = []
    for index, instance in enumerate(windows):
        gc.collect()
        seconds, plain = timed_solve(plain_solver, instance)
        plain_seconds.append(seconds)
        gc.collect()
        seconds, served = timed_solve(served_solver, instance)
        served_seconds.append(seconds)
        # The memo must never change the answer, hit or miss.
        assert plan_signature(served) == plan_signature(plain), instance.name
        assert served.details["preprocess"]["classifiers_removed_step3"] == (
            plain.details["preprocess"]["classifiers_removed_step3"]
        )
        section = served.details["engine"]["cache"]
        # The first re-plan stores what the second replays.
        if index >= 2:
            hits.append(section["step3_hits"])
            misses.append(section["step3_misses"])
            group_hits.append(section["group_hits"])
            group_misses.append(section["group_misses"])

    overhead = paired_overhead(*cold_pairs)
    keyed_overhead = paired_overhead(*keyed_pairs)
    plain_s, served_s = median(plain_seconds[2:]), median(served_seconds[2:])
    print(f"sliding window      : {window} queries, {WINDOW_STEP} slid per re-plan, "
          f"{plans} re-plans")
    print(f"cold memo (all-miss): {median(cold_pairs[1]):.4f}s ({overhead:+.2%} paired "
          f"median vs no memo, {cold_misses} sub-groups)")
    print(f"keyed memo misses   : {median(keyed_pairs[1]):.4f}s ({keyed_overhead:+.2%} "
          f"paired median vs no memo, {keyed_misses} sub-groups)")
    print(f"re-plan, cache off  : {plain_s:.4f}s (median)")
    print(f"re-plan, cache on   : {served_s:.4f}s (median; step-3 memo hits "
          f"{median(hits):.0f}, misses {median(misses):.0f})")
    print(f"group replays       : {median(group_hits):.0f} step-2 groups replayed "
          f"whole, {median(group_misses):.0f} preprocessed (median per re-plan)")

    assert cold_misses > 0 and keyed_misses > 0
    assert hits and min(hits) > 0, f"a warm re-plan replayed no sub-group: {hits}"
    assert overhead < OVERHEAD_LIMIT, (
        f"all-miss step-3 memo overhead {overhead:+.2%} exceeds "
        f"{OVERHEAD_LIMIT:.0%} on the {window}-query window"
    )
    return {
        "window": window,
        "window_step": WINDOW_STEP,
        "plans": plans,
        "cold_memo_misses": cold_misses,
        "cold_memo_overhead_fraction": overhead,
        "keyed_memo_misses": keyed_misses,
        "keyed_memo_overhead_fraction": keyed_overhead,
        "replan_cache_off_seconds": plain_s,
        "replan_cache_on_seconds": served_s,
        "replan_step3_hits": median(hits),
        "replan_step3_misses": median(misses),
        "replan_group_hits": median(group_hits),
        "replan_group_misses": median(group_misses),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized subset (fewer blocks)"
    )
    parser.add_argument("--repeats", type=int, default=None)
    options = parser.parse_args(argv)
    repeats = options.repeats if options.repeats is not None else (
        3 if options.smoke else REPEATS
    )
    blocks = 40 if options.smoke else BLOCKS
    results = run_all(blocks=blocks, repeats=repeats)
    results["sliding"] = run_sliding(
        window=300 if options.smoke else WINDOW,
        plans=6 if options.smoke else WINDOW_PLANS,
        repeats=repeats,
    )
    if options.save:
        with open(options.save, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {options.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
