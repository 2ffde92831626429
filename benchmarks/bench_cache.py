"""Warm-vs-cold performance of the component-solution cache.

The content-addressed cache (:mod:`repro.engine.cache`) promises two
things on the engine pipeline:

* an **all-miss cold pass costs (almost) nothing** — fingerprinting and
  the failed lookup must stay under 3 % of the solve on a workload with
  realistically sized components, and
* a **warm pass is dramatically faster** — every component served from
  cache skips its solve entirely, so a fully warm run must be at least
  10x faster than the cold solve on the 2000-query workload.

Both claims are checked against the paper-scale shape: ~250
property-disjoint blocks x 8 queries of 4-6 properties each (~2000
queries, thousands of distinct candidate classifiers), solved by
``mc3-general`` with the paper's ``best_of`` WSC method.  Every timed
variant must return bit-identical classifiers and cost — a cache that
changes any answer loses, no matter how fast it is.

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
from repro.engine.cache import MemorySolutionCache  # noqa: E402
from repro.solvers import make_solver  # noqa: E402

BLOCKS = 250
QUERIES_PER_BLOCK = 8
REPEATS = 7
OVERHEAD_LIMIT = 0.03
SPEEDUP_FLOOR = 10.0


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
    started = time.perf_counter()
    result = solver.solve(instance)
    return time.perf_counter() - started, result


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
    solver(cache=warm_store).solve(instance)  # populate every entry

    plain_rounds: List[float] = []
    cold_rounds: List[float] = []
    warm_rounds: List[float] = []
    plain = cold = warm = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            seconds, plain = timed_solve(solver(cache="off"), instance)
            plain_rounds.append(seconds)
            # A fresh store every round keeps the cold pass all-miss.
            seconds, cold = timed_solve(
                solver(cache=MemorySolutionCache(max_entries=65536)), instance
            )
            cold_rounds.append(seconds)
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
    print(f"no cache            : {plain_s:.4f}s (median of {repeats})")
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
        "schema": 2,
        "python": sys.version.split()[0],
        "mode": "smoke" if blocks < BLOCKS else "full",
        "repeats": repeats,
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
    if options.save:
        with open(options.save, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {options.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
