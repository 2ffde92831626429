"""Host-speed probe: times are reported in seconds of a quiet host.

On a shared virtual machine the same plan can run 30% slower for a
minute while other tenants fill the caches and memory bus.  The probe is
one fixed task that runs none of the program's code: random-access set
and dict work over a few MB of small objects, the kind of work the
planner does.  It slows with the host as the plans do, so a time scaled
by ``REFERENCE_S`` over the probes taken around it does not move with
the host, while a slower program still reads slower.

The probe runs in a helper process of its own, so its memory never
counts toward the planning process's peak.  Run alone, it prints
``--runs`` timings (to re-measure ``REFERENCE_S``)::

    python3 perfbench/probe.py --runs 30
"""

from __future__ import annotations

import argparse
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

#: The probe's pools: sets and element universe of its one large pool (a
#: few MB), and of each of its small pools (within a core's own cache).
LARGE = (8_000, 1 << 14)
SMALL = (1_500, 1 << 11)
SMALL_ROUNDS = 5
#: The unit of reference seconds: a window whose probes take
#: ``REFERENCE_S`` reads in raw seconds.  It is about the probe's median
#: on a quiet 2-vCPU Xeon VM under Python 3.11.
REFERENCE_S = 0.11
#: A window of timed work is scaled by the median of the probes up to
#: this many places from its end: the two that bound it and two more on
#: each side.  One probe alone can be off by 15%; the median of six
#: tracks the host as closely as the pair around the window and is
#: steadier when windows are long.
SPAN = 3


def _set_work(seed: str, sets: int, universe: int) -> int:
    """Index a pool of random 6-element sets by element, then visit the
    sets in random order: intersections and dict lookups."""
    rng = random.Random(seed)
    pool = [frozenset(rng.sample(range(universe), 6)) for _ in range(sets)]
    index: Dict[int, List[int]] = {}
    for i, members in enumerate(pool):
        for element in members:
            index.setdefault(element, []).append(i)
    order = list(range(sets))
    rng.shuffle(order)
    total = 0
    for i in order:
        members = pool[i]
        total += len(members & pool[order[i]])
        for element in members:
            total += len(index[element])
    return total


def probe() -> float:
    """Seconds the fixed task takes now.  The large pool slows when other
    tenants crowd the shared caches, the small pools when the core itself
    runs slower; of the probes tried, their sum tracked the plans of every
    workload best."""
    started = time.perf_counter()
    total = _set_work("perfbench-probe", *LARGE)
    for round_ in range(SMALL_ROUNDS):
        total += _set_work(f"perfbench-probe-{round_}", *SMALL)
    elapsed = time.perf_counter() - started
    assert total > 0
    return elapsed


class Speed:
    """The probe helper process, asked for a probe between windows of
    timed work.  Use as a context manager: the helper is stopped and
    waited for on the way out."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.probes: List[float] = []
        self.probe()

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc) -> None:
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()

    def probe(self) -> int:
        """Probe now; the index of the probe, which closes the window of
        timed work since the previous one."""
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        self.probes.append(float(self.process.stdout.readline()))
        return len(self.probes) - 1


def scale(probes: Sequence[float], end: int) -> float:
    """Reference seconds per raw second for the window that probe
    ``end`` closed."""
    return REFERENCE_S / statistics.median(probes[max(0, end - SPAN) : end + SPAN])


def reference_seconds(result: Dict[str, object]) -> Dict[str, List[float]]:
    """A pass's raw set-ups and windows (see ``worker.py``) in reference
    seconds: set-up times, plan times, per-plan CPU, and one throughput
    per window."""
    probes = result["probe_s"]
    out: Dict[str, List[float]] = {"setup_s": [], "plan_s": [], "plan_cpu_s": [], "plans_per_s": []}
    for end, elapsed in result["setups"]:
        out["setup_s"].append(elapsed * scale(probes, end))
    for end, walls, cpus, busy in result["windows"]:
        factor = scale(probes, end)
        out["plan_s"].extend(wall * factor for wall in walls)
        out["plan_cpu_s"].extend(cpu * factor for cpu in cpus)
        out["plans_per_s"].append(len(walls) / (busy * factor))
    return out


def serve() -> None:
    """One probe per line read from standard input, after a warm-up."""
    probe()
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="host-speed probe")
    parser.add_argument("--serve", action="store_true", help="helper mode")
    parser.add_argument("--runs", type=int, default=30)
    args = parser.parse_args(argv)
    if args.serve:
        serve()
        return 0
    probe()
    runs = [probe() for _ in range(args.runs)]
    print(f"median {statistics.median(runs):.4f} s over {args.runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
