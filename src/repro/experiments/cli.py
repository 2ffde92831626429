"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig3a
    python -m repro.experiments fig3c --full        # paper-scale sizes
    python -m repro.experiments all --seed 7
    python -m repro.experiments ablation-maxflow
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.engine.cache import (
    CACHE_ENV_VAR,
    CacheConfig,
    cache_choices,
    resolve_cache,
    set_default_cache,
)
from repro.experiments.ablations import (
    maxflow_comparison,
    preprocessing_steps,
    redundancy_cost,
    short_first_threshold,
    sublinear_solvers,
    wsc_methods,
)
from repro.experiments.categories import category_comparison
from repro.experiments.endtoend import budget_recall_curve
from repro.experiments.noise import noise_quality_curve
from repro.experiments.figures import (
    figure_3a,
    figure_3b,
    figure_3c,
    figure_3d,
    figure_3e,
    figure_3f,
)
from repro.experiments.tables import table_1


def _run_table1(seed: int, full: bool):
    if full:
        return table_1(seed=seed)
    # Scaled-down sizes keep the smoke run quick; Table 1 numbers then
    # show the requested n per dataset rather than the paper's.
    return table_1(bb_n=1000, p_n=2000, s_n=10_000, seed=seed)


EXPERIMENTS: Dict[str, Callable[[int, bool], object]] = {
    "table1": _run_table1,
    "fig3a": lambda seed, full: figure_3a(seed=seed),
    "fig3b": lambda seed, full: figure_3b(n=10_000 if full else 3000, seed=seed),
    "fig3c": lambda seed, full: figure_3c(seed=seed, full=full),
    "fig3d": lambda seed, full: figure_3d(n=10_000 if full else 4000, seed=seed),
    "fig3e": lambda seed, full: figure_3e(seed=seed, full=full),
    "fig3f": lambda seed, full: figure_3f(seed=seed, full=full),
    "ablation-maxflow": lambda seed, full: maxflow_comparison(seed=seed),
    "ablation-preprocess": lambda seed, full: preprocessing_steps(seed=seed),
    "ablation-wsc": lambda seed, full: wsc_methods(seed=seed),
    "ablation-shortfirst": lambda seed, full: short_first_threshold(seed=seed),
    "ablation-robust": lambda seed, full: redundancy_cost(seed=seed),
    "ablation-sublinear": lambda seed, full: sublinear_solvers(
        n=5000 if full else 2000, seed=seed
    ),
    "endtoend": lambda seed, full: budget_recall_curve(
        n=1000 if full else 300, seed=seed
    ),
    "categories": lambda seed, full: category_comparison(
        n=1000 if full else 400, seed=seed
    ),
    "noise": lambda seed, full: noise_quality_curve(
        n=600 if full else 200, seed=seed
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures (Section 6).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run ('all' runs every one)",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed (default 0)")
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale sizes (slow); default is a scaled-down sweep",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also append the rendered results to this file (markdown-friendly)",
    )
    parser.add_argument(
        "--cache",
        choices=cache_choices(),
        default=None,
        help="component-solution cache (process-wide default for every "
        "solver the experiments construct): off, memory, or disk. "
        f"Default: the {CACHE_ENV_VAR} environment variable, else off. "
        "Results are bit-identical with and without the cache",
    )
    parser.add_argument(
        "--cache-dir",
        dest="cache_dir",
        default=None,
        metavar="DIR",
        help="directory for the disk cache (implies --cache disk)",
    )
    parser.add_argument(
        "--cache-max-mb",
        dest="cache_max_mb",
        type=float,
        default=None,
        metavar="MB",
        help="cache size budget in megabytes (default 64)",
    )
    args = parser.parse_args(argv)

    cache_enabled = (
        args.cache is not None
        or args.cache_dir is not None
        or args.cache_max_mb is not None
    )
    if cache_enabled:
        set_default_cache(
            CacheConfig(
                backend=args.cache
                or ("disk" if args.cache_dir is not None else "memory"),
                directory=args.cache_dir,
                max_mb=args.cache_max_mb,
            )
        )

    handle = open(args.output, "a", encoding="utf-8") if args.output else None

    def emit(text: str) -> None:
        print(text)
        if handle is not None:
            handle.write(text + "\n")

    try:
        names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        for name in names:
            started = time.perf_counter()
            result = EXPERIMENTS[name](args.seed, args.full)
            elapsed = time.perf_counter() - started
            emit(result.render())
            emit(f"[{name} completed in {elapsed:.1f}s]")
            if cache_enabled:
                store = resolve_cache(None)
                if store is not None:
                    stats = store.stats()
                    lookups = stats["hits"] + stats["misses"]
                    rate = stats["hits"] / lookups if lookups else 0.0
                    emit(
                        f"[cache: {stats['kind']} — {stats['hits']} hit(s) / "
                        f"{lookups} lookup(s) ({rate:.0%}), "
                        f"{stats['entries']} entr(ies), {stats['bytes']} bytes]"
                    )
            emit("")
    finally:
        if handle is not None:
            handle.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
