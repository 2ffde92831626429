"""The ``mc3`` command-line tool.

Subcommands::

    mc3 solve INSTANCE.json [--solver mc3-general] [--output SOLUTION.json]
    mc3 generate DATASET [--n N] [--seed S] --output INSTANCE.json
    mc3 stats INSTANCE.json
    mc3 solvers
    mc3 datasets

Experiments live under ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.io import load_instance, materialize_cost, save_instance, save_solution
from repro.core.stats import InstanceStats
from repro.datasets import available_datasets, make_dataset
from repro.engine.resilience import FALLBACK_RUNGS, ON_ERROR_POLICIES, ResiliencePolicy
from repro.exceptions import ReproError
from repro.solvers import available_solvers, make_solver


def _resilience_policy(args: argparse.Namespace) -> ResiliencePolicy:
    """Build a :class:`~repro.engine.ResiliencePolicy` from the CLI
    flags; default flags give ``ResiliencePolicy()``."""
    return ResiliencePolicy(
        timeout_seconds=getattr(args, "timeout", None),
        on_error=getattr(args, "on_error", "raise"),
        max_retries=getattr(args, "max_retries", 0),
        fallback=tuple(getattr(args, "fallback", None) or ()),
    )


def _cache_spec(args: argparse.Namespace):
    """Build a :class:`~repro.engine.cache.CacheConfig` from the CLI
    flags, or ``None`` when every cache flag is at its default (the
    process default — ``REPRO_SOLUTION_CACHE`` — then applies)."""
    choice = getattr(args, "cache", None)
    directory = getattr(args, "cache_dir", None)
    max_mb = getattr(args, "cache_max_mb", None)
    if choice is None and directory is None and max_mb is None:
        return None
    from repro.engine.cache import CacheConfig

    return CacheConfig(
        backend=choice or ("disk" if directory is not None else "memory"),
        directory=directory,
        max_mb=max_mb,
    )


def _solver_kwargs(args: argparse.Namespace) -> dict:
    """Engine-level solver options shared by the solve/plan/compare
    subcommands.  Only non-default values are forwarded, so solvers that
    lack a knob (e.g. ``--dispatch-k2`` on the baselines) fail with the
    registry's message naming the supported parameters."""
    kwargs: dict = {}
    if getattr(args, "jobs", 1) != 1:
        kwargs["jobs"] = args.jobs
    if getattr(args, "dispatch_k2", False):
        kwargs["dispatch_k2"] = True
    if getattr(args, "solver_seed", None) is not None:
        kwargs["seed"] = args.solver_seed
    if getattr(args, "sample_rate", None):
        kwargs["sample_rates"] = tuple(args.sample_rate)
    policy = _resilience_policy(args)
    if policy != ResiliencePolicy():
        kwargs["resilience"] = policy
    spec = _cache_spec(args)
    if spec is not None:
        kwargs["cache"] = spec
    return kwargs


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Solver, cache and resilience flags of the one-shot subcommands."""
    _add_solver_flags(parser)
    _add_run_flags(parser)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that configure the solver itself; ``serve`` takes only
    these, because the daemon owns its cache and resilience policy."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for per-component parallel solving "
        "(default 1 = sequential; output is identical either way)",
    )
    parser.add_argument(
        "--dispatch-k2",
        dest="dispatch_k2",
        action="store_true",
        help="solve components whose queries all have length <= 2 exactly "
        "via max-flow instead of the WSC approximation",
    )
    parser.add_argument(
        "--seed",
        dest="solver_seed",
        type=int,
        default=None,
        metavar="N",
        help="run seed for randomized solvers (mc3-sampled); the only "
        "randomness source — identical seeds give bit-identical "
        "solutions regardless of --jobs",
    )
    parser.add_argument(
        "--sample-rate",
        dest="sample_rate",
        type=float,
        action="append",
        default=None,
        metavar="R",
        help="element-sampling rate for one round of the sampled greedy "
        "(repeat the flag for a multi-round schedule; mc3-sampled only)",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Per-run cache and resilience flags."""
    from repro.engine.cache import CACHE_ENV_VAR, cache_choices

    parser.add_argument(
        "--cache",
        choices=cache_choices(),
        default=None,
        help="component-solution cache: off, memory (in-process LRU), or "
        "disk (content-addressed store, shared across runs). Default: "
        f"the {CACHE_ENV_VAR} environment variable, else off. Cached "
        "answers are bit-identical to uncached solves",
    )
    parser.add_argument(
        "--cache-dir",
        dest="cache_dir",
        default=None,
        metavar="DIR",
        help="directory for the disk cache (default: "
        "REPRO_SOLUTION_CACHE_DIR, else ~/.cache/mc3/solutions); "
        "implies --cache disk when --cache is not given",
    )
    parser.add_argument(
        "--cache-max-mb",
        dest="cache_max_mb",
        type=float,
        default=None,
        metavar="MB",
        help="cache size budget in megabytes (default 64); least-recently"
        "-used (memory) / oldest (disk) entries are evicted beyond it",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-component wall-clock budget; an attempt exceeding it "
        "counts as a failure and moves down the fallback chain",
    )
    parser.add_argument(
        "--on-error",
        dest="on_error",
        choices=ON_ERROR_POLICIES,
        default="raise",
        help="what to do when a component exhausts its fallback chain: "
        "raise (default), degrade to the query-oriented cover, or skip "
        "the component and report a partial solution",
    )
    parser.add_argument(
        "--max-retries",
        dest="max_retries",
        type=int,
        default=0,
        metavar="N",
        help="re-attempt a failed rung up to N times before falling back "
        "(default 0)",
    )
    parser.add_argument(
        "--fallback",
        nargs="*",
        choices=sorted(FALLBACK_RUNGS),
        default=None,
        metavar="RUNG",
        help="fallback rungs tried in order after the primary solver "
        f"fails (choices: {', '.join(sorted(FALLBACK_RUNGS))})",
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    solver = make_solver(args.solver, **_solver_kwargs(args))
    result = solver.solve(instance)
    print(f"solver   : {result.solver_name}")
    print(f"cost     : {result.cost:g}")
    print(f"selected : {len(result.solution)} classifiers")
    print(f"time     : {result.elapsed_seconds:.3f}s")
    engine_details = result.details.get("engine")
    if isinstance(engine_details, dict) and "cache" in engine_details:
        cache_stats = engine_details["cache"]
        print(
            f"cache    : {cache_stats['kind']} — {cache_stats['hits']} hit(s), "
            f"{cache_stats['misses']} miss(es), {cache_stats['inserts']} "
            f"insert(s) ({cache_stats['hit_rate']:.0%} hit rate)"
        )
    from repro.engine import PartialSolution

    if isinstance(result.solution, PartialSolution):
        solution = result.solution
        print(
            f"partial  : {len(solution.failures)} failure(s), "
            f"{len(solution.degraded_components)} degraded, "
            f"{len(solution.skipped_components)} skipped, "
            f"{len(solution.uncovered_queries)} queries uncovered"
        )
    if args.verbose:
        for label in result.solution.sorted_labels():
            print(f"  {label}")
    if args.report_gap:
        from repro.analysis import optimality_report

        print(optimality_report(instance, result).describe())
    if args.output:
        save_solution(result.solution, args.output)
        print(f"solution written to {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed}
    if args.n is not None:
        kwargs["n"] = args.n
    instance = make_dataset(args.dataset, **kwargs)
    # Lazy cost models are materialised into an explicit table first (the
    # paper's literal input representation); instances whose candidate
    # universe is too large to materialise must be regenerated from
    # (dataset, n, seed) instead.
    try:
        concrete = materialize_cost(instance, max_entries=args.max_entries)
        save_instance(concrete, args.output)
    except ReproError:
        print(
            f"{args.dataset} is too large to materialise; regenerate with "
            f"make_dataset({args.dataset!r}, n={instance.n}, seed={args.seed})",
            file=sys.stderr,
        )
        return 1
    print(f"{instance.n} queries written to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    print(InstanceStats(instance).describe())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """End-to-end planning from a raw query log + cost table.

    Duplicate lines in the log are treated as popularity: with a budget
    they become query weights for the partial-cover planner; without a
    budget the full load is covered by the chosen solver.
    """
    from collections import Counter

    from repro.core.instance import MC3Instance
    from repro.datasets import load_cost_table_csv, load_query_log

    raw = load_query_log(args.queries)
    frequencies = Counter(raw)
    cost = load_cost_table_csv(args.costs)
    instance = MC3Instance(frequencies.keys(), cost, name=str(args.queries))

    if args.budget is not None:
        from repro.extensions import greedy_partial_cover

        weights = {q: float(count) for q, count in frequencies.items()}
        plan = greedy_partial_cover(instance, weights, budget=args.budget)
        total_weight = sum(weights.values())
        print(f"budget        : {args.budget:g}")
        print(f"spent         : {plan.cost:g}")
        print(f"covered       : {len(plan.covered_queries)}/{instance.n} queries "
              f"({plan.covered_weight / total_weight:.1%} of traffic)")
        selected = plan.classifiers
    else:
        solver = make_solver(args.solver, **_solver_kwargs(args))
        result = solver.solve(instance)
        print(f"solver        : {result.solver_name}")
        print(f"cost          : {result.cost:g}")
        print(f"covered       : {instance.n}/{instance.n} queries")
        selected = result.solution.classifiers

    print(f"classifiers   : {len(selected)}")
    if args.verbose:
        from repro.core.properties import canonical_label

        for label in sorted(canonical_label(clf) for clf in selected):
            print(f"  {label}")
    if args.output:
        from repro.core.solution import Solution

        solution = Solution.from_instance(selected, instance)
        save_solution(solution, args.output)
        print(f"plan written to {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed}
    if args.n is not None:
        kwargs["n"] = args.n
    instance = make_dataset(args.dataset, **kwargs)
    print(InstanceStats(instance, sample_costs=args.cost_sample).describe())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Check a solution file against an instance file: feasibility and
    price.  Exit code 0 = valid."""
    from repro.core.io import load_solution
    from repro.exceptions import InfeasibleSolutionError

    instance = load_instance(args.instance)
    solution = load_solution(args.solution)
    try:
        solution.verify(instance)
    except InfeasibleSolutionError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"valid: {len(solution)} classifiers cover all {instance.n} queries "
          f"at cost {solution.cost:g}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Run several solvers on one instance and print a comparison table."""
    from repro.exceptions import ReproError as _ReproError
    from repro.experiments.report import render_table

    from repro.solvers import supports_parameter

    instance = load_instance(args.instance)
    names = args.solvers or ["mc3-general", "local-greedy", "query-oriented",
                             "property-oriented"]
    rows = []
    for name in names:
        # Forward engine flags only where the solver understands them, so
        # one table can mix engine-backed solvers and baselines.
        kwargs = {
            key: value
            for key, value in _solver_kwargs(args).items()
            if supports_parameter(name, key)
        }
        try:
            result = make_solver(name, **kwargs).solve(instance)
        except _ReproError as exc:
            rows.append([name, "-", "-", f"({type(exc).__name__})"])
            continue
        rows.append(
            [name, result.cost, len(result.solution), f"{result.elapsed_seconds:.3f}s"]
        )
    print(render_table(["solver", "cost", "classifiers", "time"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the planner daemon (see :mod:`repro.service`) over a cost
    table, serving JSON-lines plan requests on a unix socket or TCP
    port until SIGTERM (graceful drain) or SIGINT."""
    import asyncio

    from repro.datasets import load_cost_table_csv
    from repro.service import PlannerService, ServiceConfig

    if args.socket is None and args.port is None:
        print("error: serve needs --socket PATH or --port N", file=sys.stderr)
        return 2
    cost = load_cost_table_csv(args.costs)
    config = ServiceConfig(
        solver_name=args.solver,
        solver_kwargs=_solver_kwargs(args),
        queue_depth=args.queue_depth,
        batch_window=args.batch_window,
        default_deadline_seconds=args.deadline,
        journal_path=args.journal,
        journal_fsync=not args.no_fsync,
    )
    service = PlannerService(cost, config=config)
    where = args.socket or f"{args.host}:{args.port}"
    print(f"planner daemon listening on {where}", file=sys.stderr)
    asyncio.run(
        service.serve_forever(
            socket_path=args.socket, host=args.host, port=args.port
        )
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the on-disk component-solution cache."""
    from repro.engine.cache import DiskSolutionCache, default_cache_dir

    directory = args.cache_dir or default_cache_dir()
    store = DiskSolutionCache(directory)
    if args.action == "stats":
        stats = store.stats()
        print(f"directory : {directory}")
        print(f"entries   : {stats['entries']}")
        print(f"bytes     : {stats['bytes']}")
        print(f"max bytes : {stats['max_bytes']}")
        return 0
    removed = store.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {directory}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="mc3", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance JSON file")
    solve.add_argument("instance")
    solve.add_argument("--solver", default="mc3-general", choices=available_solvers())
    solve.add_argument("--output", help="write the solution JSON here")
    solve.add_argument("--verbose", action="store_true", help="list selected classifiers")
    solve.add_argument(
        "--report-gap",
        dest="report_gap",
        action="store_true",
        help="print an optimality certificate (lower bound + proven ratio)",
    )
    _add_engine_flags(solve)
    solve.set_defaults(fn=_cmd_solve)

    generate = sub.add_parser("generate", help="generate a dataset instance")
    generate.add_argument("dataset", choices=available_datasets())
    generate.add_argument("--n", type=int, default=None)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)
    generate.add_argument(
        "--max-entries",
        dest="max_entries",
        type=int,
        default=1_000_000,
        help="cap on materialised cost-table entries (default 1e6)",
    )
    generate.set_defaults(fn=_cmd_generate)

    stats = sub.add_parser("stats", help="describe an instance JSON file")
    stats.add_argument("instance")
    stats.set_defaults(fn=_cmd_stats)

    analyze = sub.add_parser(
        "analyze", help="characterise a generated dataset (Section 6.1 style)"
    )
    analyze.add_argument("dataset", choices=available_datasets())
    analyze.add_argument("--n", type=int, default=None)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument(
        "--cost-sample", dest="cost_sample", type=int, default=500,
        help="queries sampled for the cost-range scan (default 500)",
    )
    analyze.set_defaults(fn=_cmd_analyze)

    plan = sub.add_parser(
        "plan", help="plan classifiers from a raw query log + cost CSV"
    )
    plan.add_argument("queries", help="query log: one query per line")
    plan.add_argument("costs", help="cost table CSV: classifier,cost")
    plan.add_argument("--solver", default="mc3-general", choices=available_solvers())
    plan.add_argument(
        "--budget", type=float, default=None,
        help="optional budget: maximise covered traffic instead of covering all",
    )
    plan.add_argument("--output", help="write the selected classifiers as JSON")
    plan.add_argument("--verbose", action="store_true")
    _add_engine_flags(plan)
    plan.set_defaults(fn=_cmd_plan)

    verify = sub.add_parser("verify", help="verify a solution against an instance")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.set_defaults(fn=_cmd_verify)

    compare = sub.add_parser("compare", help="compare solvers on an instance file")
    compare.add_argument("instance")
    compare.add_argument(
        "--solvers", nargs="*", choices=available_solvers(), default=None
    )
    _add_engine_flags(compare)
    compare.set_defaults(fn=_cmd_compare)

    serve = sub.add_parser(
        "serve",
        help="run the planner daemon (JSON-lines over unix socket or TCP)",
    )
    serve.add_argument("costs", help="cost table CSV: classifier,cost")
    serve.add_argument("--socket", default=None, help="unix socket path")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None)
    serve.add_argument("--solver", default="mc3-general", choices=available_solvers())
    serve.add_argument(
        "--journal", default=None,
        help="write-ahead workload journal path (enables crash recovery)",
    )
    serve.add_argument(
        "--no-fsync", dest="no_fsync", action="store_true",
        help="skip fsync after journal appends (faster, weaker durability)",
    )
    serve.add_argument(
        "--queue-depth", dest="queue_depth", type=int, default=64,
        help="admission queue capacity; beyond it requests get queue-full",
    )
    serve.add_argument(
        "--batch-window", dest="batch_window", type=int, default=8,
        help="max requests drained per batch (coalescing window)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None,
        help="default per-request deadline in seconds",
    )
    _add_solver_flags(serve)
    serve.set_defaults(fn=_cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk component-solution cache"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir",
        dest="cache_dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: REPRO_SOLUTION_CACHE_DIR, else "
        "~/.cache/mc3/solutions)",
    )
    cache.set_defaults(fn=_cmd_cache)

    solvers = sub.add_parser("solvers", help="list registered solvers")
    solvers.set_defaults(fn=lambda a: (print("\n".join(available_solvers())), 0)[1])

    datasets = sub.add_parser("datasets", help="list registered datasets")
    datasets.set_defaults(fn=lambda a: (print("\n".join(available_datasets())), 0)[1])

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
