"""Sub-linear set cover at scale: sampled greedy vs materialize-and-solve.

The scale-tier workloads (:mod:`repro.datasets.scale`) are weighted set
systems defined by arithmetic, so ``sampled_greedy_wsc`` can cover them
without ever holding the full membership structure.  It estimates gains
on sampled elements and repairs the residual exactly.  Two claims:

* **wall-clock** — at the 1M-element tier it must be at least
  ``SPEEDUP_FLOOR``x faster than materializing the workload and running
  the bucket greedy, while its cover costs at most ``RATIO_CEILING``x
  the bucket greedy's;
* **memory** — under an address-space cap that kills the materializing
  path outright, the sampled solver still finishes, which the memory-cap
  legs demonstrate in a capped subprocess.

Every lazy answer is feasibility-checked against the workload itself
(membership recomputed arithmetically), so a fast-but-wrong solver
cannot win.

Standalone usage (mirrors ``bench_cache.py`` / BENCH_cache.json)::

    python benchmarks/bench_setcover_sublinear.py --save BENCH_setcover.json
    python benchmarks/bench_setcover_sublinear.py --smoke        # CI-sized
    python benchmarks/bench_setcover_sublinear.py --scale-smoke  # capped 1M, sampled only
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.datasets.scale import ScaleTierWorkload  # noqa: E402
from repro.setcover import (  # noqa: E402
    bucket_greedy_wsc,
    greedy_wsc,
    sampled_greedy_wsc,
)

FULL_TIER = "1m"
FULL_N = 1_000_000
SMOKE_N = 100_000
SEED = 7
REPEATS_FAST = 3

#: Full-mode gates (the smoke tier is too small for the speedup claim —
#: fixed overheads dominate — so it only checks the cost ratio).
SPEEDUP_FLOOR = 10.0
RATIO_CEILING = 1.10

#: Address-space cap for the memory-cap legs: comfortably above the
#: sampled solver's footprint (tens of MB at 1M elements) and far below the
#: materialized instance + its 500MB of member masks.
MEMCAP_BYTES = 384 * 1024 * 1024


def check_cover(workload: ScaleTierWorkload, solution) -> None:
    """Independent feasibility + cost check via recomputed membership."""
    covered = bytearray(workload.universe_size)
    total = 0.0
    for set_id in solution.set_ids:
        total += workload.set_cost(set_id)
        for element_id in workload.set_members(set_id):
            covered[element_id] = 1
    uncovered = covered.count(0)
    assert uncovered == 0, f"{uncovered} elements uncovered"
    assert abs(total - solution.cost) < 1e-6, (total, solution.cost)


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def timed(fn, repeats: int = 1):
    """Median wall-clock of ``repeats`` runs plus the last result."""
    rounds: List[float] = []
    result = None
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        result = fn()
        rounds.append(time.perf_counter() - started)
    return median(rounds), result


def run_tier(n: int, include_exact_greedy: bool) -> Dict[str, object]:
    workload = ScaleTierWorkload(n, seed=SEED)
    tier: Dict[str, object] = {
        "n": n,
        "num_sets": workload.num_sets,
        "frequency": workload.frequency,
        "seed": SEED,
    }

    sampled_stats: Dict[str, object] = {}
    sampled_seconds, sampled = timed(
        lambda: sampled_greedy_wsc(workload, seed=SEED, stats=sampled_stats),
        repeats=REPEATS_FAST,
    )
    check_cover(workload, sampled)

    # The conventional path pays for materialization *and* the solve; the
    # sampled solver replaces both, so the honest baseline is their sum.
    materialize_seconds, instance = timed(workload.wsc_instance)
    bucket_seconds, bucket = timed(lambda: bucket_greedy_wsc(instance))
    instance.verify_solution(bucket)
    baseline_seconds = materialize_seconds + bucket_seconds

    speedup = baseline_seconds / sampled_seconds if sampled_seconds > 0 else float("inf")
    ratio = sampled.cost / bucket.cost if bucket.cost else 1.0

    tier.update(
        {
            "sampled_seconds": sampled_seconds,
            "sampled_cost": sampled.cost,
            "sampled_sets": len(sampled.set_ids),
            "sampled_stats": sampled_stats,
            "materialize_seconds": materialize_seconds,
            "bucket_seconds": bucket_seconds,
            "baseline_seconds": baseline_seconds,
            "bucket_cost": bucket.cost,
            "sampled_speedup": speedup,
            "sampled_cost_ratio": ratio,
        }
    )

    if include_exact_greedy:
        greedy_seconds, greedy = timed(lambda: greedy_wsc(instance))
        instance.verify_solution(greedy)
        tier["greedy_seconds"] = greedy_seconds
        tier["greedy_cost"] = greedy.cost

    print(
        f"n={n}: sampled {sampled_seconds:.3f}s (cost {sampled.cost:.0f}), "
        f"materialize+bucket {baseline_seconds:.3f}s (cost {bucket.cost:.0f}) "
        f"-> speedup {speedup:.1f}x, cost ratio {ratio:.4f}"
    )
    return tier


# ----------------------------------------------------------------------
# Memory-cap legs: each leg runs in a subprocess whose address space is
# capped below the materialized instance's footprint.  The materializing
# leg must die (MemoryError or a hard kill); the sampled leg must finish
# and produce a verified cover.
# ----------------------------------------------------------------------

MEMCAP_LEGS = ("materialize", "sampled")


def _memcap_child(leg: str, n: int, cap_bytes: int) -> int:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
    workload = ScaleTierWorkload(n, seed=SEED)
    try:
        if leg == "materialize":
            instance = workload.wsc_instance()
            solution = bucket_greedy_wsc(instance)
        else:
            solution = sampled_greedy_wsc(workload, seed=SEED)
            check_cover(workload, solution)
    except MemoryError:
        print(f"memcap-child {leg}: MemoryError", flush=True)
        return 42
    print(f"memcap-child {leg}: cost {solution.cost:.0f}", flush=True)
    return 0


def run_memcap(n: int, cap_bytes: int) -> Dict[str, object]:
    results: Dict[str, object] = {"cap_bytes": cap_bytes, "n": n}
    for leg in MEMCAP_LEGS:
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--_memcap-child",
                leg,
                str(n),
                str(cap_bytes),
            ],
            capture_output=True,
            text=True,
        )
        # 0 = finished under the cap; anything else (MemoryError exit 42,
        # or the allocator aborting the process) = the cap killed it.
        survived = proc.returncode == 0
        results[leg] = {
            "survived": survived,
            "returncode": proc.returncode,
            "output": (proc.stdout + proc.stderr).strip()[-400:],
        }
        print(f"memcap {leg:12s}: {'survived' if survived else 'killed'} "
              f"(rc={proc.returncode})")
    return results


def run_all(mode: str) -> Dict[str, object]:
    n = FULL_N if mode == "full" else SMOKE_N
    tier_name = FULL_TIER if mode == "full" else "100k"
    tier = run_tier(n, include_exact_greedy=(mode != "full"))

    results: Dict[str, object] = {
        "benchmark": "setcover_sublinear",
        "schema": 2,
        "python": sys.version.split()[0],
        "mode": mode,
        "speedup_floor": SPEEDUP_FLOOR,
        "ratio_ceiling": RATIO_CEILING,
        "tiers": {tier_name: tier},
    }

    # The cost gate holds at every size; the speedup and memory gates
    # are claims about the production tier, so full mode only.
    assert tier["sampled_cost_ratio"] <= RATIO_CEILING, (
        f"sampled cost ratio {tier['sampled_cost_ratio']:.4f} exceeds "
        f"{RATIO_CEILING}x bucket-greedy"
    )
    if mode == "full":
        assert tier["sampled_speedup"] >= SPEEDUP_FLOOR, (
            f"sampled speedup {tier['sampled_speedup']:.1f}x below the "
            f"{SPEEDUP_FLOOR:.0f}x floor vs materialize+bucket"
        )
        memcap = run_memcap(n, MEMCAP_BYTES)
        results["memcap"] = memcap
        assert not memcap["materialize"]["survived"], (
            "materializing path survived the memory cap — the cap no "
            "longer demonstrates anything; lower MEMCAP_BYTES"
        )
        assert memcap["sampled"]["survived"], memcap["sampled"]
    return results


def run_scale_smoke(cap_bytes: int = 512 * 1024 * 1024) -> int:
    """CI scale-smoke: the 1M tier, sampled solver only, in-process
    address-space cap.  Proves the sub-linear path works at production
    scale inside CI's minute budget without paying for the baseline."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
    started = time.perf_counter()
    workload = ScaleTierWorkload(FULL_N, seed=SEED)
    stats: Dict[str, object] = {}
    solution = sampled_greedy_wsc(workload, seed=SEED, stats=stats)
    check_cover(workload, solution)
    elapsed = time.perf_counter() - started
    print(
        f"scale-smoke: 1M tier covered under a {cap_bytes >> 20}MB cap in "
        f"{elapsed:.2f}s (cost {solution.cost:.0f}, "
        f"{stats['sets_selected']} sets, mode {stats['mode']})"
    )
    assert stats["mode"] == "sampled", stats
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized tier (100k elements)"
    )
    parser.add_argument(
        "--scale-smoke",
        action="store_true",
        help="memory-capped 1M tier, sampled solver only (CI scale job)",
    )
    parser.add_argument("--_memcap-child", nargs=3, metavar=("LEG", "N", "CAP"),
                        help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if options._memcap_child:
        leg, n, cap = options._memcap_child
        return _memcap_child(leg, int(n), int(cap))
    if options.scale_smoke:
        return run_scale_smoke()
    results = run_all("smoke" if options.smoke else "full")
    if options.save:
        with open(options.save, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {options.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
