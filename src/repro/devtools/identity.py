"""Bit-identity matrix: does this tree plan exactly what another revision does?

    python -m repro.devtools.identity --against <rev>
    python -m repro.devtools.identity --tree <directory>

``--against`` checks ``<rev>`` out into a temporary ``git worktree`` of
the repository this module lives in (removed again at the end);
``--tree`` uses a checkout that already exists.  Both trees then run in
subprocesses, one per setting: ``jobs`` 1 and 2, cache ``off`` and
``memory``, ``PYTHONHASHSEED`` 0 and 7.  Each subprocess plans the same
inputs with ``mc3-general``:

* ``drift`` — windows of 1,000 queries sliding 20 per re-plan over a
  BestBuy-like log of 1,500 (one solver, so with the cache on every
  re-plan after the first goes through the plan memo);
* ``bestbuy-1000``, ``private-3000`` and ``synthetic-300`` — one solve
  each;
* ``daemon`` — the planner daemon's request stream over P's log
  (10,000 queries in seeded arrival order, ten per request) applied as
  the daemon applies it, under its own configuration (one job, no
  cache; only the hash seed varies), reporting ``state_digest`` after
  the last one.

For every plan it records the selected classifiers, the cost's
``float.hex``, the engine's lower bound (value hex and counts) and
``details["preprocess"]`` without elapsed time.  Every setting of both
trees must agree on all of it.  The command prints the first field that
differs and exits 1, or one digest per input and exits 0.  ``--quick``
shrinks every input, for a smoke run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(jobs, cache, PYTHONHASHSEED)`` of every subprocess, per tree.
SETTINGS: Tuple[Tuple[int, str, str], ...] = tuple(
    (jobs, cache, seed) for jobs in (1, 2) for cache in ("off", "memory") for seed in ("0", "7")
)

#: Input sizes: full, and ``--quick``.
SIZES = {
    False: {"log": 1500, "window": 1000, "step": 20, "windows": 6, "bestbuy": 1000,
            "private": 3000, "synthetic": 300, "daemon": 10_000, "batch": 10},
    True: {"log": 150, "window": 100, "step": 10, "windows": 3, "bestbuy": 100,
           "private": 150, "synthetic": 40, "daemon": 200, "batch": 10},
}

Fields = List[Tuple[str, object]]


# ----------------------------------------------------------------------
# The subprocess side: plan every input, print one JSON object
# ----------------------------------------------------------------------


def plan_fields(result) -> Fields:
    """What a plan must reproduce bit for bit, as ``(name, value)``."""
    details = result.details
    preprocess = dict(details["preprocess"])
    preprocess.pop("elapsed_seconds", None)
    bound = details["engine"]["lower_bound"]
    return [
        ("classifiers", sorted(sorted(clf) for clf in result.solution.classifiers)),
        ("cost", float(result.cost).hex()),
        ("lower_bound", float(bound["value"]).hex()),
        ("lower_bound_counts", [bound["components"], bound["bounded"], bound["certified"]]),
        ("preprocess", sorted(preprocess.items())),
    ]


def arrival_order(queries, workload: str, seed: int = 1) -> list:
    """The perfbench arrival order of a workload's log."""
    order = list(queries)
    random.Random(f"perfbench-{workload}-{seed}").shuffle(order)
    return order


def emit(jobs: int, cache: str, quick: bool) -> Dict[str, List[Fields]]:
    """Every input's plans under one setting."""
    from repro import MC3Instance, make_solver
    from repro.datasets import bestbuy_like, private_like, synthetic
    from repro.engine.cache import MemorySolutionCache

    size = SIZES[quick]
    store = MemorySolutionCache() if cache == "memory" else "off"
    out: Dict[str, List[Fields]] = {}

    base = bestbuy_like(n=size["log"], seed=0)
    log = arrival_order(base.queries, "drift")
    solver = make_solver("mc3-general", jobs=jobs, cache=store)
    out["drift"] = []
    for index in range(size["windows"]):
        start = size["step"] * index
        window = [log[(start + j) % len(log)] for j in range(size["window"])]
        out["drift"].append(plan_fields(solver.solve(MC3Instance(window, base.cost))))

    loads = (
        ("bestbuy-1000", bestbuy_like(n=size["bestbuy"], seed=0)),
        ("private-3000", private_like(n=size["private"], seed=0)),
        ("synthetic-300", synthetic(n=size["synthetic"], seed=0)),
    )
    for name, instance in loads:
        solver = make_solver("mc3-general", jobs=jobs, cache=store)
        out[name] = [plan_fields(solver.solve(instance))]

    out["daemon"] = [[("state_digest", daemon_digest(size))]]
    return out


def daemon_digest(size: Dict[str, int]) -> str:
    """``state_digest`` after the daemon's request stream, applied as a
    journal replay applies it (the daemon's own apply path), under the
    daemon's default configuration: one job, no cache."""
    from repro.datasets import private_like
    from repro.service import ServiceConfig
    from repro.service.daemon import replay_reference
    from repro.service.journal import JournalRecord

    base = private_like(n=size["daemon"], seed=0)
    specs = [tuple(sorted(q)) for q in arrival_order(base.queries, "daemon")]
    batch = size["batch"]
    records = [
        JournalRecord(seq, tuple(specs[start : start + batch]), None)
        for seq, start in enumerate(range(0, len(specs), batch))
    ]
    config = ServiceConfig(journal_fsync=False)
    return replay_reference(base.cost, config, records).state_digest()


# ----------------------------------------------------------------------
# The comparing side: run both trees under every setting and compare
# ----------------------------------------------------------------------


def run_tree(tree: str, setting: Tuple[int, str, str], quick: bool) -> Dict[str, list]:
    jobs, cache, hash_seed = setting
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env["PYTHONHASHSEED"] = hash_seed
    env.pop("REPRO_SOLUTION_CACHE", None)
    # This file runs as a script, so the other tree needs no copy of it:
    # only its ``repro`` package is imported.
    command = [sys.executable, os.path.abspath(__file__), "--emit",
               "--jobs", str(jobs), "--cache", cache]
    if quick:
        command.append("--quick")
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {setting} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def first_difference(
    expected: Dict[str, list], actual: Dict[str, list]
) -> Optional[Tuple[str, int, str, object, object]]:
    """``(input, plan, field, expected, actual)`` of the first field
    that differs, or ``None``."""
    for name in sorted(set(expected) | set(actual)):
        plans, other = expected.get(name, []), actual.get(name, [])
        if len(plans) != len(other):
            return name, min(len(plans), len(other)), "plan count", len(plans), len(other)
        for index, (left, right) in enumerate(zip(plans, other)):
            for (field, value), (field_b, value_b) in zip(left, right):
                if field != field_b or value != value_b:
                    return name, index, field, value, value_b
            if len(left) != len(right):
                return name, index, "field count", len(left), len(right)
    return None


def digests(output: Dict[str, list]) -> Iterator[Tuple[str, str]]:
    for name in sorted(output):
        text = json.dumps(output[name], sort_keys=True, separators=(",", ":"))
        yield name, hashlib.blake2b(text.encode("utf-8"), digest_size=12).hexdigest()


def shorten(value: object, limit: int = 200) -> str:
    text = json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "…"


def compare(trees: Sequence[Tuple[str, str]], quick: bool) -> int:
    """Run every setting of every ``(label, tree)``; 0 when all agree."""
    reference: Optional[Tuple[str, Tuple[int, str, str], Dict[str, list]]] = None
    for setting in SETTINGS:
        for label, tree in trees:
            output = run_tree(tree, setting, quick)
            if reference is None:
                reference = (label, setting, output)
                continue
            found = first_difference(reference[2], output)
            if found is not None:
                name, index, field, left, right = found
                print(f"DIFFERS: input {name}, plan {index}, field {field!r}")
                print(f"  {reference[0]} {describe(reference[1])}: {shorten(left)}")
                print(f"  {label} {describe(setting)}: {shorten(right)}")
                return 1
            print(f"same: {label} {describe(setting)}", file=sys.stderr)
    assert reference is not None
    for name, digest in digests(reference[2]):
        print(f"{name}: {digest}")
    return 0


def describe(setting: Tuple[int, str, str]) -> str:
    jobs, cache, seed = setting
    return f"(jobs={jobs}, cache={cache}, PYTHONHASHSEED={seed})"


def repository_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], cwd=here, capture_output=True, text=True,
        check=True,
    )
    return top.stdout.strip()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.identity",
        description="Check that this tree plans bit-identically to another revision.",
    )
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--against", metavar="REV", help="git revision to compare with")
    target.add_argument("--tree", metavar="DIR", help="existing checkout to compare with")
    parser.add_argument("--quick", action="store_true", help="small inputs (smoke run)")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--cache", default="off", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.emit:
        json.dump(emit(args.jobs, args.cache, args.quick), sys.stdout)
        return 0
    if args.against is None and args.tree is None:
        parser.error("one of --against or --tree is required")

    root = repository_root()
    here = ("this tree", root)
    if args.tree is not None:
        return compare([(args.tree, os.path.abspath(args.tree)), here], args.quick)
    checkout = tempfile.mkdtemp(prefix="repro-identity-")
    shutil.rmtree(checkout)
    subprocess.run(
        ["git", "worktree", "add", "--detach", checkout, args.against],
        cwd=root, check=True, capture_output=True,
    )
    try:
        return compare([(args.against, checkout), here], args.quick)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", checkout], cwd=root, capture_output=True
        )


if __name__ == "__main__":
    sys.exit(main())
