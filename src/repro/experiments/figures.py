"""Definitions of every figure panel in the paper's evaluation
(Section 6.2, Figure 3a–3f).

Each ``figure_3x`` function regenerates the corresponding panel as a
:class:`~repro.experiments.report.FigureResult` — same series, same
axes.  Default sizes are scaled down from the paper's 32-core server
runs to single-process laptop budgets; pass ``full=True`` (or explicit
``sizes``) for paper-scale sweeps.  EXPERIMENTS.md records the scale
used for the checked-in results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets import (
    bestbuy_like,
    private_like,
    private_like_category,
    private_like_short,
    synthetic,
    synthetic_k2,
)
from repro.experiments.report import FigureResult, Series, cache_hit_table
from repro.experiments.runner import SolverSpec, SweepResult, sweep
from repro.solvers import make_solver

#: Classifier-length bound used for the general-problem synthetic runs
#: (the bounded-classifiers regime of Section 5.3, k' = 3); documented in
#: EXPERIMENTS.md.
SYNTHETIC_KPRIME = 3


def _sizes(default: Sequence[int], sizes: Optional[Sequence[int]]) -> List[int]:
    return list(sizes) if sizes is not None else list(default)


def _cache_notes(result: SweepResult, labels: Sequence[str], extra: str = "") -> str:
    """Figure notes with the per-run cache hit-rate table appended.

    Empty (or just ``extra``) when the sweep ran without a solution
    cache, so figure output is unchanged for uncached runs.
    """
    table = cache_hit_table(
        "#queries", [Series(label, result.cache_hit_points(label)) for label in labels]
    )
    return "\n".join(part for part in (extra, table) if part)


# ----------------------------------------------------------------------
# Figure 3a — BB dataset, uniform costs: cost vs #queries.
# ----------------------------------------------------------------------

def figure_3a(
    n: int = 1000, sizes: Optional[Sequence[int]] = None, seed: int = 0
) -> FigureResult:
    """BB: MC3[S] and Mixed are optimal (overlapping lines), then
    Query-Oriented, then Property-Oriented.

    The short-query algorithms operate on BB's length ≤ 2 slice (95% of
    the load) — the two problem settings are evaluated separately per
    Section 6.1.
    """
    instance = bestbuy_like(n, seed=seed).restricted_to(
        lambda q: len(q) <= 2, name=f"BB-short(n={n},seed={seed})"
    )
    solvers: List[SolverSpec] = [
        ("MC3[S]", "mc3-k2", {}),
        ("Mixed", "mixed", {}),
        ("Query-Oriented", "query-oriented", {}),
        ("Property-Oriented", "property-oriented", {}),
    ]
    default_sizes = [max(1, round(n * fraction / 10)) for fraction in range(1, 11)]
    result = sweep(instance, solvers, _sizes(default_sizes, sizes), seed=seed)
    return FigureResult(
        "Figure 3a",
        "BB dataset (uniform costs): classifier construction cost",
        "#queries",
        "construction cost",
        [Series(label, result.cost_points(label)) for label, _n, _k in solvers],
        notes=_cache_notes(result, [label for label, _n, _k in solvers]),
    )


# ----------------------------------------------------------------------
# Figure 3b — P dataset restricted to short queries: cost vs #queries.
# ----------------------------------------------------------------------

def figure_3b(
    n: int = 10_000, sizes: Optional[Sequence[int]] = None, seed: int = 0
) -> FigureResult:
    """P (short queries, ~80% of the load): MC3[S] optimal, ~30% below
    the Query-/Property-Oriented baselines."""
    instance = private_like_short(n, seed=seed)
    solvers: List[SolverSpec] = [
        ("MC3[S]", "mc3-k2", {}),
        ("Query-Oriented", "query-oriented", {}),
        ("Property-Oriented", "property-oriented", {}),
    ]
    default_sizes = [
        max(1, round(instance.n * fraction)) for fraction in (0.125, 0.25, 0.5, 0.75, 1.0)
    ]
    result = sweep(instance, solvers, _sizes(default_sizes, sizes), seed=seed)
    return FigureResult(
        "Figure 3b",
        "P dataset, short queries (varying costs): construction cost",
        "#queries",
        "construction cost",
        [Series(label, result.cost_points(label)) for label, _n, _k in solvers],
        notes=_cache_notes(result, [label for label, _n, _k in solvers]),
    )


# ----------------------------------------------------------------------
# Figure 3c — synthetic k <= 2: runtime with/without preprocessing.
# ----------------------------------------------------------------------

def figure_3c(
    sizes: Optional[Sequence[int]] = None, seed: int = 0, full: bool = False
) -> FigureResult:
    """Synthetic, k ≤ 2: MC3[S] runtime, preprocessing on vs off.  The
    paper reports preprocessing saving ~85% of the runtime."""
    default_sizes = (
        [1000, 5000, 10_000, 50_000, 100_000] if full else [1000, 2000, 5000, 10_000, 20_000]
    )
    chosen = _sizes(default_sizes, sizes)
    with_prep: List[Tuple[float, float]] = []
    without_prep: List[Tuple[float, float]] = []
    for n in chosen:
        instance = synthetic_k2(n, seed=seed)
        result = make_solver("mc3-k2").solve(instance)
        with_prep.append((n, result.elapsed_seconds))
        result = make_solver("mc3-k2", preprocess_steps=()).solve(instance)
        without_prep.append((n, result.elapsed_seconds))
    return FigureResult(
        "Figure 3c",
        "Synthetic, k<=2: MC3[S] runtime and the preprocessing effect",
        "#queries",
        "runtime (seconds)",
        [
            Series("MC3[S] + preprocessing", with_prep),
            Series("MC3[S] w/o preprocessing", without_prep),
        ],
    )


# ----------------------------------------------------------------------
# Figure 3d — P dataset, general case: cost vs #queries, 5 algorithms.
# ----------------------------------------------------------------------

def figure_3d(
    n: int = 4000,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 0,
    fashion_point: bool = True,
) -> FigureResult:
    """P (general): MC3[G] best overall; Short-First best on the
    1000-query *fashion* slice (96% short queries), which per the paper
    replaces the random 1000-query subset."""
    instance = private_like(n, seed=seed)
    solvers: List[SolverSpec] = [
        ("MC3[G]", "mc3-general", {}),
        ("Short-First", "short-first", {}),
        ("Local-Greedy", "local-greedy", {}),
        ("Query-Oriented", "query-oriented", {}),
        ("Property-Oriented", "property-oriented", {}),
    ]
    default_sizes = sorted({max(2, n // 4), max(2, n // 2), n})
    chosen = [size for size in _sizes(default_sizes, sizes) if size > 1000 or not fashion_point]
    result = sweep(instance, solvers, chosen, seed=seed)

    series_points: Dict[str, List[Tuple[float, float]]] = {
        label: result.cost_points(label) for label, _n, _k in solvers
    }
    if fashion_point:
        fashion = private_like_category("fashion", 1000, seed=seed)
        for label, name, kwargs in solvers:
            solver_result = make_solver(name, **kwargs).solve(fashion)
            series_points[label] = [(1000, solver_result.cost)] + series_points[label]
    return FigureResult(
        "Figure 3d",
        "P dataset, general case: construction cost (x=1000 is the fashion slice)",
        "#queries",
        "construction cost",
        [Series(label, series_points[label]) for label, _n, _k in solvers],
        notes=_cache_notes(
            result,
            [label for label, _n, _k in solvers],
            extra="x=1000 uses the fashion-category slice (96% short), per Section 6.2.",
        ),
    )


# ----------------------------------------------------------------------
# Figures 3e/3f — synthetic, general case: preprocessing effect on cost
# and runtime.
# ----------------------------------------------------------------------

def _general_prep_sweep(
    sizes: Sequence[int], seed: int
) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]], List[Tuple[float, float]], List[Tuple[float, float]]]:
    """MC3[G] with/without preprocessing in the *scalable* configuration:
    ``lp_size_limit=0`` forces the greedy + primal–dual pair that any
    paper-scale (100k-query) run must use — the LP's constraint matrix is
    out of budget there — so scaled-down panels exercise the same code
    path whose cost/runtime the paper reports."""
    cost_with: List[Tuple[float, float]] = []
    cost_without: List[Tuple[float, float]] = []
    time_with: List[Tuple[float, float]] = []
    time_without: List[Tuple[float, float]] = []
    for n in sizes:
        instance = synthetic(
            n, seed=seed, max_classifier_length=SYNTHETIC_KPRIME
        )
        result = make_solver("mc3-general", lp_size_limit=0).solve(instance)
        cost_with.append((n, result.cost))
        time_with.append((n, result.elapsed_seconds))
        result = make_solver(
            "mc3-general", lp_size_limit=0, preprocess_steps=()
        ).solve(instance)
        cost_without.append((n, result.cost))
        time_without.append((n, result.elapsed_seconds))
    return cost_with, cost_without, time_with, time_without


def figure_3e(
    sizes: Optional[Sequence[int]] = None, seed: int = 0, full: bool = False
) -> FigureResult:
    """Synthetic, general case: construction cost with/without
    preprocessing (paper: ~35% saved)."""
    default_sizes = [1000, 5000, 10_000, 50_000, 100_000] if full else [1000, 2000, 5000]
    chosen = _sizes(default_sizes, sizes)
    cost_with, cost_without, _tw, _to = _general_prep_sweep(chosen, seed)
    return FigureResult(
        "Figure 3e",
        "Synthetic, general case: preprocessing effect on construction cost",
        "#queries",
        "construction cost",
        [
            Series("MC3[G] + preprocessing", cost_with),
            Series("MC3[G] w/o preprocessing", cost_without),
        ],
        notes=f"classifiers bounded at k'={SYNTHETIC_KPRIME} (Section 5.3).",
    )


def figure_3f(
    sizes: Optional[Sequence[int]] = None, seed: int = 0, full: bool = False
) -> FigureResult:
    """Synthetic, general case: runtime with/without preprocessing
    (paper: ~50% saved)."""
    default_sizes = [1000, 5000, 10_000, 50_000, 100_000] if full else [1000, 2000, 5000]
    chosen = _sizes(default_sizes, sizes)
    _cw, _co, time_with, time_without = _general_prep_sweep(chosen, seed)
    return FigureResult(
        "Figure 3f",
        "Synthetic, general case: preprocessing effect on runtime",
        "#queries",
        "runtime (seconds)",
        [
            Series("MC3[G] + preprocessing", time_with),
            Series("MC3[G] w/o preprocessing", time_without),
        ],
        notes=f"classifiers bounded at k'={SYNTHETIC_KPRIME} (Section 5.3).",
    )
