"""Per-call cost of Algorithm 3's LP arm: ``milp`` against ``linprog``.

The ``f``-approximation arm solves the WSC relaxation through
:class:`repro.setcover.lp.LPRelaxation`, which hands HiGHS the model
through ``scipy.optimize.milp``.  This script replays the LPs a planner
daemon solves: the residual components of 10-query ``private_like``
plan requests, planned through :class:`IncrementalPlanner` with a memory
cache, as ``mc3 serve`` plans them.  Every component that
reaches the LP arm is captured, then solved by

* the reference: ``linprog(method="highs")`` on the COO-built sparse
  matrix, the path the package used before ``LPRelaxation``;
* ``LPRelaxation(instance).solve()``, matrix build included.

The two ``x`` vectors must be bit-identical (signed zeros included) on
every instance, or the script fails.  It reports the median time per
call of each path.  This explains the daemon's end-to-end number
(``perfbench/run.py --workload daemon``); it is not the claim itself.

Standalone usage::

    python benchmarks/bench_lp.py            # 100 requests, 7 rounds
    python benchmarks/bench_lp.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from typing import Dict, List

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import repro.solvers.general as general  # noqa: E402
from repro.datasets import private_like  # noqa: E402
from repro.extensions.incremental import IncrementalPlanner  # noqa: E402
from repro.setcover import WSCInstance  # noqa: E402
from repro.setcover.lp import LPRelaxation  # noqa: E402

DATASET_N = 10_000
DATASET_SEED = 0
BATCH_SIZE = 10
REQUESTS = 100
ROUNDS = 7


def linprog_relaxation(instance: WSCInstance) -> np.ndarray:
    """The relaxation as the package solved it through ``linprog``."""
    rows, cols = [], []
    for set_id in range(instance.num_sets):
        for element_id in instance.set_members(set_id):
            rows.append(element_id)
            cols.append(set_id)
    matrix = sparse.csr_matrix(
        (-np.ones(len(rows)), (np.array(rows), np.array(cols))),
        shape=(instance.universe_size, instance.num_sets),
    )
    costs = np.array([instance.set_cost(s) for s in range(instance.num_sets)])
    result = linprog(
        c=costs,
        A_ub=matrix,
        b_ub=-np.ones(instance.universe_size),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"linprog failed: {result.message}")
    return result.x


def milp_relaxation(instance: WSCInstance) -> np.ndarray:
    result = LPRelaxation(instance).solve()
    if not result.success:
        raise RuntimeError(f"LPRelaxation failed: {result.message}")
    return result.x


PATHS = {"linprog reference": linprog_relaxation, "LPRelaxation": milp_relaxation}


def daemon_lps(requests: int, seed: int) -> List[WSCInstance]:
    """The WSC instances the LP arm solves while a planner serves
    ``requests`` 10-query requests over P's log, in seeded order."""
    base = private_like(n=DATASET_N, seed=DATASET_SEED)
    order = [sorted(q) for q in base.queries]
    random.Random(seed).shuffle(order)
    captured: List[WSCInstance] = []
    arm = general.lp_rounding_wsc

    def capture(instance, prune=False):
        captured.append(instance)
        return arm(instance, prune=prune)

    planner = IncrementalPlanner(base.cost, solver_name="mc3-general", cache="memory")
    general.lp_rounding_wsc = capture
    try:
        for start in range(0, requests * BATCH_SIZE, BATCH_SIZE):
            planner.add_batch(order[start : start + BATCH_SIZE])
    finally:
        general.lp_rounding_wsc = arm
    return captured


def per_call_medians(instances: List[WSCInstance], rounds: int) -> Dict[str, float]:
    """Median seconds of one call of each path, the two paths
    interleaved per instance so that host noise hits both alike."""
    samples: Dict[str, List[float]] = {name: [] for name in PATHS}
    for _ in range(rounds):
        for instance in instances:
            for name, solve in PATHS.items():
                started = time.perf_counter()
                solve(instance)
                samples[name].append(time.perf_counter() - started)
    return {name: float(np.median(values)) for name, values in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    options = parser.parse_args(argv)
    requests = options.requests or (20 if options.smoke else REQUESTS)
    rounds = options.rounds or (3 if options.smoke else ROUNDS)

    instances = daemon_lps(requests, options.seed)
    if not instances:
        raise RuntimeError("no component reached the LP arm")
    for instance in instances:
        reference = linprog_relaxation(instance)
        if milp_relaxation(instance).tobytes() != reference.tobytes():
            raise RuntimeError(
                f"x differs on a {instance.universe_size}x{instance.num_sets} LP"
            )
    sizes = sorted(instance.universe_size for instance in instances)
    print(
        f"{len(instances)} LPs from {requests} requests "
        f"(elements {sizes[0]}-{sizes[-1]}): x bit-identical on all"
    )
    medians = per_call_medians(instances, rounds)
    for name, seconds in medians.items():
        print(f"{name:<18} {seconds * 1e3:.3f} ms per call (median)")
    print(f"ratio              {medians['LPRelaxation'] / medians['linprog reference']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
