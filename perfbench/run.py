"""End-to-end MC³ planning benchmark: one command, four seeded workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload private --seed 1 --seconds 10 --trace 0

``--trace 0`` measures one untraced pass and prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` measures an untraced and a
traced pass and prints every per-layer metric.  Each pass runs in a
fresh process with ``PYTHONHASHSEED=0`` (see ``worker.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any output is wrong:

* a plan fails ``Solution.verify`` (every ``solve()`` verifies),
* ``plan_cost`` differs from the value pinned for the seed in
  ``pins.json`` (relative tolerance 1e-9),
* the daemon's final ``state_digest`` differs from a library replay of
  its journal, or any daemon operation fails, is refused or degrades,
* the traced pass plans differently from the untraced pass.

See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import layer_metrics, tail_percentile  # noqa: E402
from probe import reference_seconds  # noqa: E402

WORKLOADS = ("private", "synthetic", "drift", "daemon")
#: Wall-clock budget for all passes of one invocation.
BUDGET_SECONDS = 170.0
PLAN_COST_RTOL = 1e-9
#: Scratch space for passes, and where traced spans are written out.
TMP_ROOT = ".perfbench_tmp"
OUT_ROOT = ".perfbench_out"


def child_env() -> Dict[str, str]:
    """Pinned hash seed, the checkout's ``src`` first on the path, and
    no ``REPRO_*`` overrides, so the defaults (``pyjit`` kernels, no
    process-wide cache) are what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(args, traced: bool, tmp: str, deadline: float) -> Dict[str, object]:
    """One worker process; its process group is killed on timeout so a
    daemon it started cannot outlive the run."""
    tmp = os.path.join(tmp, f"pass{int(traced)}")
    os.makedirs(tmp)
    out = os.path.join(tmp, "result.json")
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--traced", str(int(traced)),
        "--tmp", tmp, "--out", out,
    ]
    process = subprocess.Popen(argv, env=child_env(), start_new_session=True)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError("pass exceeded the time budget") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if code != 0:
        raise RuntimeError(f"pass exited with code {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def close(a: Optional[float], b: Optional[float]) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=PLAN_COST_RTOL)


def gate(args, passes: List[Dict[str, object]], pins: Dict[str, Dict[str, float]]) -> List[str]:
    """Every wrong output, as a list of messages (empty when correct)."""
    problems = []
    for result in passes:
        problems.extend(result["checks"])
        if not result["wall_s"]:
            problems.append("no plan completed")
    base = passes[0]
    table = pins.get(args.workload, {})
    pinned = table.get(str(args.seed), table.get("*"))
    if pinned is None:
        print(f"note: no plan_cost pinned for seed {args.seed}", file=sys.stderr)
    elif not close(base["plan_cost"], pinned):
        problems.append(f"plan_cost {base['plan_cost']!r} != pinned {pinned!r}")
    for traced in passes[1:]:
        if not close(traced["plan_cost"], base["plan_cost"]):
            problems.append("traced plan_cost differs from the untraced pass")
        common = min(len(traced["digests"]), len(base["digests"]))
        if traced["digests"][:common] != base["digests"][:common]:
            problems.append("traced plans differ from the untraced pass")
        if args.workload == "daemon" and traced["digests"] != base["digests"]:
            problems.append("traced daemon state differs from the untraced pass")
    return problems


def end_to_end(base: Dict[str, object]) -> Dict[str, float]:
    """Times are reference seconds (see ``probe.py``)."""
    times = reference_seconds(base)
    return {
        "plan_s.p50": statistics.median(times["plan_s"]),
        "plan_cpu_s.p50": statistics.median(times["plan_cpu_s"]),
        "plans_per_s": statistics.median(times["plans_per_s"]),
        "plan_cost": base["plan_cost"],
        "setup_s": statistics.median(times["setup_s"]),
        "peak_rss_mb": base["peak_rss_mb"],
    }


def per_layer(base: Dict[str, object], traced: Dict[str, object]) -> Dict[str, float]:
    metrics = layer_metrics(
        [tuple(span) for span in traced["spans"]], traced["counts"], len(traced["wall_s"])
    )
    metrics["incremental.built"] = float(traced.get("built", 0))
    p99 = tail_percentile(base["wall_s"], 0.99) if base["workload"] == "daemon" else None
    metrics["service.request_ms.p99"] = p99 * 1000.0 if p99 is not None else 0.0
    stats = base["stats_s"]
    metrics["service.stats_ms.p50"] = statistics.median(stats) * 1000.0 if stats else 0.0
    traced_s, base_s = (statistics.median(reference_seconds(p)["plan_s"]) for p in (traced, base))
    metrics["trace.overhead_frac"] = traced_s / base_s - 1.0
    return metrics


def header(base: Dict[str, object]) -> Dict[str, object]:
    """Run header: commit, interpreter, cores, kernel backend, the median
    host-speed probe and raw plan time, and the ``src/repro`` line count
    in total and without ``devtools/``."""
    commit = "unknown"
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except OSError:
        lines = []
    # Only this checkout's own repository, not one that happens to enclose it.
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath("."):
        commit = lines[1]
    total = without_devtools = 0
    for root, _, files in os.walk(os.path.join("src", "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as handle:
                    lines = handle.read().count(b"\n")
                total += lines
                if os.path.join("src", "repro", "devtools") not in root:
                    without_devtools += lines
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": base["kernel_backend"],
        "probe_s.p50": statistics.median(base["probe_s"]),
        "plan_raw_s.p50": statistics.median(base["wall_s"]),
        "src_repro_lines": total,
        "src_repro_lines_without_devtools": without_devtools,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + BUDGET_SECONDS
    tmp = os.path.join(TMP_ROOT, f"{os.getpid()}-{args.workload}")
    os.makedirs(tmp, exist_ok=True)
    try:
        passes = [run_pass(args, False, tmp, deadline)]
        if args.trace:
            passes.append(run_pass(args, True, tmp, deadline))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("# " + json.dumps(header(passes[0]), sort_keys=True))
    problems = gate(args, passes, pins)
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {},
    }
    if problems:
        # Numbers from a run with a wrong output are not reported.
        for problem in problems:
            print(f"WRONG: {problem}", file=sys.stderr)
        print(json.dumps(result))
        return 1
    if args.trace:
        os.makedirs(OUT_ROOT, exist_ok=True)
        spans_path = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-spans.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": passes[1]["spans"], "counts": passes[1]["counts"]}, handle)
        values = per_layer(passes[0], passes[1])
    else:
        values = end_to_end(passes[0])
    for entry in wanted:
        name = entry["name"]
        result["metrics"][name] = {"value": values[name], "unit": entry["unit"]}
        print(f"{name:<34} {values[name]:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
