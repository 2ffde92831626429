"""Recompute ``pins.json``: the plan cost each workload must reproduce.

The plans come from the library alone, never from a timed run:

* ``private`` and ``synthetic`` — the ``solve()`` cost.  It does not
  depend on the arrival order, so one value (key ``"*"``) holds for
  every seed; the script checks that on the first seeds.
* ``drift`` — the cost of the first re-plan's window, per seed.
* ``daemon`` — the planner's ``total_cost`` after a library replay of
  the whole request stream, per seed.

Run from the root of the checkout (a daemon seed takes ~15 s)::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/pin.py --seeds 40
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import daemon_load, drift_log, drift_window, export_costs, library_load  # noqa: E402

ORDER_CHECK_SEEDS = 3


def daemon_cost(seed: int, scratch: str) -> float:
    from repro.datasets import load_cost_table_csv
    from repro.service import ServiceConfig
    from repro.service.daemon import replay_reference
    from repro.service.journal import JournalRecord

    instance, batches = daemon_load(seed)
    path = os.path.join(scratch, "pin-costs.csv")
    export_costs(instance, path)
    records = [
        JournalRecord(seq, tuple(tuple(spec) for spec in batch), None)
        for seq, batch in enumerate(batches)
    ]
    planner = replay_reference(
        load_cost_table_csv(path), ServiceConfig(journal_fsync=False), records
    )
    os.unlink(path)
    return planner.total_cost


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40, help="pin seeds 0..N-1")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        parser.error("run with PYTHONHASHSEED=0, as the benchmark does")
    from repro import make_solver

    pins = {}
    for workload in ("private", "synthetic"):
        costs = {
            make_solver("mc3-general", cache="off").solve(library_load(workload, seed)).cost
            for seed in range(ORDER_CHECK_SEEDS)
        }
        if len(costs) != 1:
            raise SystemExit(f"{workload}: plan cost depends on arrival order: {costs}")
        pins[workload] = {"*": costs.pop()}
    pins["drift"] = {}
    for seed in range(args.seeds):
        log, cost = drift_log(seed)
        solver = make_solver("mc3-general", cache="off")
        pins["drift"][str(seed)] = solver.solve(drift_window(log, cost, 0)).cost
    scratch = os.path.join(".perfbench_tmp", f"pin-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    pins["daemon"] = {}
    for seed in range(args.seeds):
        pins["daemon"][str(seed)] = daemon_cost(seed, scratch)
        print(f"daemon seed {seed}: {pins['daemon'][str(seed)]}", flush=True)
    os.rmdir(scratch)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
