"""Ablation: the WSC algorithm inside Algorithm 3 — greedy vs LP
rounding vs primal–dual vs the paper's best-of, plus the redundancy
post-pass (our guarantee-safe extension).
"""

import pytest

from conftest import run_once

from repro.datasets import private_like
from repro.reductions import mc3_to_wsc
from repro.preprocess import preprocess
from repro.setcover import primal_dual_wsc
from repro.solvers import make_solver

N = 1200
SEED = 0


@pytest.fixture(scope="module")
def instance():
    return private_like(N, seed=SEED)


@pytest.mark.parametrize("method", ["greedy", "lp", "primal_dual", "best_of"])
def test_wsc_method(benchmark, method, instance):
    solver = make_solver("mc3-general", wsc_method=method)
    result = run_once(benchmark, lambda: solver.solve(instance))
    print(f"\n[{method}] cost={result.cost:g}")
    result.solution.verify(instance)


def test_best_of_dominates_single_arms(instance):
    best = make_solver("mc3-general", wsc_method="best_of").solve(instance).cost
    greedy = make_solver("mc3-general", wsc_method="greedy").solve(instance).cost
    lp = make_solver("mc3-general", wsc_method="lp").solve(instance).cost
    assert best <= min(greedy, lp) + 1e-9


def test_redundancy_prune_effect(benchmark, instance):
    """The prune extension can only lower the f-approximation's cost;
    measure by how much on the primal–dual arm."""
    prep = preprocess(instance)

    def run():
        raw_total = prep.base_cost
        pruned_total = prep.base_cost
        for component in prep.components:
            wsc = mc3_to_wsc(component)
            raw_total += primal_dual_wsc(wsc, prune=False).cost
            pruned_total += primal_dual_wsc(wsc, prune=True).cost
        return raw_total, pruned_total

    raw_total, pruned_total = run_once(benchmark, run)
    print(f"\nprimal-dual raw={raw_total:g} pruned={pruned_total:g}")
    assert pruned_total <= raw_total + 1e-9
