"""One measured pass of one workload, in a fresh process.

``run.py`` starts this module once per pass with a pinned
``PYTHONHASHSEED``: once untraced, and for ``--trace 1`` once more with
the timing wrappers of :mod:`spans` installed.  A fresh process per pass
matters because ``cache="memory"`` resolves to a process-wide store: a
second pass in the same process would be served from the first pass's
entries.  The pass probes the host's speed between windows of timed
work (see :mod:`probe`) and writes its samples, outputs and spans as
JSON; ``run.py`` turns them into metrics and checks the outputs.

Usage::

    python3 perfbench/worker.py --workload private --seed 1 --seconds 10 \
        --traced 0 --tmp .perfbench_tmp/run --out pass.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from probe import Speed
from spans import Recorder, install

#: Set-up is repeated this many times per pass; its median is ``setup_s``.
SETUP_REPEATS = 3
#: Library workloads solve at least this many times, however long it takes.
MIN_PLANS = {"private": 3, "synthetic": 3, "drift": 20}
#: Drift: the re-planned window and how far it slides per re-plan.
DRIFT_WINDOW = 1000
DRIFT_STEP = 20
#: Daemon: queries per plan request, and plan requests per ``stats`` read.
BATCH_SIZE = 10
STATS_EVERY = 10
DAEMON_START_TIMEOUT = 120.0
#: Library warm-up solve size.
WARMUP_QUERIES = 300
#: The measured loops probe the host's speed about this often.
PROBE_EVERY_S = 1.0


def close_window(out, speed: Speed, walls: List[float], cpus: List[float], busy: float):
    """Probe, closing a window of plan operations: their wall times, CPU
    times, and the window's busy seconds for its throughput."""
    out["windows"].append((speed.probe(), list(walls), list(cpus), busy))


def plan_digest(solution) -> str:
    labels = "\n".join(solution.sorted_labels()).encode("utf-8")
    return hashlib.blake2b(labels, digest_size=16).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def new_pass(workload: str, seed: int, traced: bool) -> Dict[str, object]:
    """Results of one pass, all times raw; ``checks`` lists every wrong
    output.  ``setups`` and ``windows`` carry the index of the probe that
    closed each one (see ``probe.reference_seconds``)."""
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setups": [],
        "windows": [],
        "wall_s": [],
        "costs": [],
        "digests": [],
        "stats_s": [],
        "attempted": 0,
        "failed": 0,
        "checks": [],
    }


def check(out: Dict[str, object], ok: bool, message: str) -> None:
    if not ok:
        out["checks"].append(message)


def timed_setup(out: Dict[str, object], speed: Speed, build: Callable[[], object]):
    """Run ``build`` :data:`SETUP_REPEATS` times, keep the last result;
    the host is probed after each build."""
    built = None
    for _ in range(SETUP_REPEATS):
        built = None  # release the previous inputs before building again
        started = time.perf_counter()
        built = build()
        elapsed = time.perf_counter() - started
        out["setups"].append((speed.probe(), elapsed))
    return built


# -- inputs -------------------------------------------------------------------

#: Every workload plans over one fixed stand-in log, as the paper plans
#: over fixed logs; ``--seed`` draws the order in which its queries
#: arrive.  Generator seeds would change the load itself: the synthetic
#: plan cost alone ranges 3161–8116 over generator seeds 1–5.
DATASET_SEED = 0


def arrival_order(queries, workload: str, seed: int) -> list:
    order = list(queries)
    random.Random(f"perfbench-{workload}-{seed}").shuffle(order)
    return order


def library_load(workload: str, seed: int):
    """The ``private`` or ``synthetic`` instance for ``seed``."""
    from repro import MC3Instance
    from repro.datasets import private_like, synthetic

    if workload == "private":
        base = private_like(n=10_000, seed=DATASET_SEED)
    else:
        base = synthetic(n=2_000, seed=DATASET_SEED)
    return MC3Instance(arrival_order(base.queries, workload, seed), base.cost, name=workload)


def drift_log(seed: int):
    """The BestBuy-like log in its seeded arrival order, and its cost."""
    from repro.datasets import bestbuy_like

    base = bestbuy_like(n=1_500, seed=DATASET_SEED)
    return arrival_order(base.queries, "drift", seed), base.cost


def drift_window(log, cost, index: int):
    """Re-plan ``index``: the window after ``index`` slides, wrapping around."""
    from repro import MC3Instance

    start = DRIFT_STEP * index
    window = [log[(start + j) % len(log)] for j in range(DRIFT_WINDOW)]
    return MC3Instance(window, cost, name=f"window{index}")


def daemon_load(seed: int):
    """P, and its queries cut into plan requests in seeded arrival order."""
    from repro.datasets import private_like

    base = private_like(n=10_000, seed=DATASET_SEED)
    specs = [sorted(q) for q in arrival_order(base.queries, "daemon", seed)]
    return base, [specs[i : i + BATCH_SIZE] for i in range(0, len(specs), BATCH_SIZE)]


# -- library workloads --------------------------------------------------------


def run_library(
    out: Dict[str, object], speed: Speed, seed: int, seconds: float,
    recorder: Optional[Recorder],
):
    """Solve one load with ``mc3-general``, cache off, again and again for
    ``seconds``; every solve verifies its plan."""
    from repro import MC3Instance, make_solver

    def build():
        instance = library_load(out["workload"], seed)
        solver = make_solver("mc3-general", cache="off")
        # Warm-up: lazy imports and both WSC arms, on a slice of the load
        # that is the same for every seed.
        slice_ = sorted(instance.queries, key=sorted)[:WARMUP_QUERIES]
        solver.solve(MC3Instance(slice_, instance.cost, name="warm-up"))
        return instance, solver

    instance, solver = timed_setup(out, speed, build)
    check(out, solver.verify, "solver runs without verification")
    _measure(
        out, speed, seconds, MIN_PLANS[out["workload"]], recorder,
        lambda _: (solver, instance),
    )


def run_drift(
    out: Dict[str, object], speed: Speed, seed: int, seconds: float,
    recorder: Optional[Recorder],
):
    """Re-plan a sliding window over a BestBuy-like log, cache on."""
    from repro import make_solver

    def build():
        log, cost = drift_log(seed)
        # Warm-up without the cache, so no entry exists before timing, on
        # a window that is the same for every seed.
        warm_up = drift_window(sorted(log, key=sorted), cost, 0)
        make_solver("mc3-general", cache="off").solve(warm_up)
        return log, cost

    log, cost = timed_setup(out, speed, build)
    solver = make_solver("mc3-general", cache="memory")
    _measure(
        out, speed, seconds, MIN_PLANS["drift"], recorder,
        lambda i: (solver, drift_window(log, cost, i)),
    )
    if not out["costs"]:
        return
    # Every cache-served plan must equal a cache-off solve of its window.
    last = len(out["costs"]) - 1
    reference = make_solver("mc3-general", cache="off").solve(drift_window(log, cost, last))
    check(out, 
        plan_digest(reference.solution) == out["digests"][last],
        f"drift re-plan {last} differs from a cache-off solve of its window",
    )
    out["plan_cost"] = out["costs"][0]


def _measure(
    out: Dict[str, object], speed: Speed, seconds: float, min_plans: int, recorder, next_plan
):
    """Closed loop of ``solve()`` calls; each one is a root span.  The
    host is probed between solves, about every ``PROBE_EVERY_S``."""
    spans = recorder.spans if recorder is not None else None
    loop_started = probed = time.perf_counter()
    walls: List[float] = []
    cpus: List[float] = []

    def end_window() -> None:
        # Throughput of back-to-back solves: the loop's own collection,
        # input building and probes are not the program's work.
        close_window(out, speed, walls, cpus, sum(walls))
        walls.clear()
        cpus.clear()

    index = 0
    while index < min_plans or time.perf_counter() - loop_started < seconds:
        solver, instance = next_plan(index)
        out["attempted"] += 1
        # Each solve starts from the same collector state; its own
        # garbage is still collected inside the timed call.
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = solver.solve(instance)
        except Exception as exc:  # a failed plan is counted and reported
            out["failed"] += 1
            check(out, False, f"plan {index} failed: {type(exc).__name__}: {exc}")
            break
        wall1, cpu1 = time.perf_counter(), time.process_time()
        if spans is not None:
            spans.append(("plan", wall0, wall1))
        out["wall_s"].append(wall1 - wall0)
        walls.append(wall1 - wall0)
        cpus.append(cpu1 - cpu0)
        out["costs"].append(result.cost)
        out["digests"].append(plan_digest(result.solution))
        index += 1
        if wall1 - probed >= PROBE_EVERY_S:
            end_window()
            probed = time.perf_counter()
    out["window"] = (loop_started, time.perf_counter())
    if walls:
        end_window()
    out["peak_rss_mb"] = peak_rss_mb()
    if out["workload"] != "drift":
        check(out, len(set(out["digests"])) <= 1, "repeated solves gave different plans")
        out["plan_cost"] = out["costs"][0] if out["costs"] else None


# -- daemon workload ----------------------------------------------------------


def export_costs(instance, path: str) -> None:
    """P's cost model over every candidate classifier, as the daemon's CSV."""
    from repro import TableCost
    from repro.datasets import save_cost_table_csv

    universe = instance.classifier_universe()
    save_cost_table_csv(TableCost({clf: instance.weight(clf) for clf in universe}), path)


class Daemon:
    """``mc3 serve`` as its own process, stopped by SIGTERM."""

    def __init__(self, tmp: str, costs: str, traced: bool, index: int):
        self.socket_path = os.path.join(tmp, f"d{index}.sock")
        self.journal = os.path.join(tmp, f"d{index}.journal")
        self.spans_path = os.path.join(tmp, f"d{index}.spans.json")
        serve = [
            "serve", costs, "--socket", self.socket_path,
            "--journal", self.journal, "--no-fsync",
        ]
        if traced:
            here = os.path.dirname(os.path.abspath(__file__))
            argv = [sys.executable, os.path.join(here, "served.py"), self.spans_path]
        else:
            argv = [sys.executable, "-m", "repro.cli"]
        self.client = None
        self._log = open(os.path.join(tmp, f"d{index}.log"), "wb")
        self.process = subprocess.Popen(
            argv + serve, stdout=self._log, stderr=subprocess.STDOUT
        )

    def connect(self):
        from repro.service.client import SocketPlannerClient

        deadline = time.monotonic() + DAEMON_START_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            if os.path.exists(self.socket_path):
                try:
                    return SocketPlannerClient(socket_path=self.socket_path, timeout=60.0)
                except OSError:
                    pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not start listening")
            time.sleep(0.005)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def run_daemon(
    out: Dict[str, object], speed: Speed, seed: int, recorder: Optional[Recorder], tmp: str
):
    """Closed loop over one connection: 10-query plan requests through
    the whole shuffled log of P, one ``stats`` read after every 10th.
    Fixed work, not ``--seconds`` long: the final state must be
    comparable across runs, and 1,000 requests support a p99."""
    from repro.datasets import load_cost_table_csv
    from repro.exceptions import ReproError
    from repro.service import ServiceConfig
    from repro.service.daemon import replay_reference
    from repro.service.journal import read_journal

    costs = os.path.join(tmp, "costs.csv")
    traced = recorder is not None
    started: List[Daemon] = []

    def build():
        if started:
            started[-1].stop()
        instance, batches = daemon_load(seed)
        export_costs(instance, costs)
        daemon = Daemon(tmp, costs, traced, len(started))
        started.append(daemon)
        daemon.client = daemon.connect()
        daemon.client.ping()
        return batches, daemon

    try:
        batches, daemon = timed_setup(out, speed, build)
        client = daemon.client
        spans = recorder.spans if traced else None
        total_cost = None
        # The loop runs in windows of about PROBE_EVERY_S between probes;
        # the daemon's CPU, in whole clock ticks, is read per window.
        walls: List[float] = []
        window = {"started": 0.0, "cpu": 0.0}

        def open_window() -> None:
            window["cpu"] = daemon.cpu_seconds()
            window["started"] = time.perf_counter()

        def end_window() -> None:
            # Throughput of the closed loop, stats reads and client included.
            busy = time.perf_counter() - window["started"]
            cpu = (daemon.cpu_seconds() - window["cpu"]) / len(walls)
            close_window(out, speed, walls, [cpu], busy)
            walls.clear()

        loop_started = time.perf_counter()
        open_window()
        for index, batch in enumerate(batches):
            out["attempted"] += 1
            t0 = time.perf_counter()
            try:
                reply = client.plan(batch)
            except Exception as exc:  # typed refusal, shed, deadline, …
                out["failed"] += 1
                check(out, False, f"plan request {index} failed: {exc}")
                break
            t1 = time.perf_counter()
            if spans is not None:
                spans.append(("request", t0, t1))
            out["wall_s"].append(t1 - t0)
            walls.append(t1 - t0)
            if reply["degraded"] or reply["uncovered_queries"]:
                out["failed"] += 1
                check(out, False, f"plan request {index} was degraded")
            total_cost = reply["total_cost"]
            out["costs"].append(total_cost)
            out["digests"].append(reply["state_digest"])
            if (index + 1) % STATS_EVERY == 0:
                out["attempted"] += 1
                t0 = time.perf_counter()
                try:
                    client.stats()
                except Exception as exc:
                    out["failed"] += 1
                    check(out, False, f"stats request after plan {index} failed: {exc}")
                    break
                t1 = time.perf_counter()
                if spans is not None:
                    spans.append(("request", t0, t1))
                out["stats_s"].append(t1 - t0)
            if time.perf_counter() - window["started"] >= PROBE_EVERY_S:
                end_window()
                open_window()
        if walls:
            end_window()
        out["window"] = (loop_started, time.perf_counter())
        final = client.stats()["workload"]
        out["peak_rss_mb"] = daemon.peak_rss_mb()
        out["built"] = final["built_classifiers"]
        out["plan_cost"] = final["total_cost"]
        check(out, final["total_cost"] == total_cost, "stats total_cost != last reply")
    finally:
        for daemon in started:
            daemon.stop()
    if traced:
        with open(daemon.spans_path, encoding="utf-8") as handle:
            served = json.load(handle)
        recorder.spans.extend(tuple(span) for span in served["spans"])
        recorder.counts.extend(tuple(event) for event in served["counts"])
        return
    # The daemon's final state must equal a library replay of its journal.
    records = read_journal(daemon.journal).records
    check(out, len(records) == len(batches), "journal lost admitted batches")
    reference = replay_reference(
        load_cost_table_csv(costs), ServiceConfig(journal_fsync=False), records
    )
    check(out, 
        reference.state_digest() == out["digests"][-1],
        "daemon state_digest differs from the library replay",
    )
    try:
        reference.verify()
    except ReproError as exc:
        check(out, False, f"library replay does not cover the log: {exc}")


RUNNERS = {
    "private": run_library,
    "synthetic": run_library,
    "drift": run_drift,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS) + ["daemon"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    recorder = None
    if args.traced:
        recorder = Recorder()
        install(recorder)
    out = new_pass(args.workload, args.seed, bool(args.traced))
    from repro.core.kernels.registry import resolve_backend_name

    out["kernel_backend"] = resolve_backend_name(None)
    with Speed() as speed:
        if args.workload == "daemon":
            run_daemon(out, speed, args.seed, recorder, args.tmp)
        else:
            RUNNERS[args.workload](out, speed, args.seed, args.seconds, recorder)
    out["probe_s"] = speed.probes
    if recorder is not None:
        # Only the measured loop: set-up, warm-up and after-checks are out.
        start, end = out.get("window", (0.0, 0.0))
        out["spans"] = [s for s in recorder.spans if s[1] >= start and s[2] <= end]
        totals: Dict[str, float] = {}
        for name, at, value in recorder.counts:
            if start <= at <= end:
                totals[name] = totals.get(name, 0.0) + value
        out["counts"] = totals
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
