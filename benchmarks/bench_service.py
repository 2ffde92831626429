"""No-fault overhead of the planner service front end.

The daemon (``repro.service``) wraps :class:`IncrementalPlanner` in an
admission queue, a write-ahead journal, and an asyncio worker.  Its
contract is that a healthy request pays (almost) nothing for the
crash-safety machinery: this bench drives the same seeded workload

* **direct** — journal append + ``add_batch`` called synchronously
  (the engine with durability but no daemon), and
* **service** — the full in-process daemon path
  (:class:`PlannerClient` → queue → coalescer → journaled apply),

interleaved round-robin, and asserts

* bit-identical final planner state (``state_digest``), and
* daemon overhead **< 5 %** on the median of paired per-round time
  ratios (pairing cancels machine-load drift; the median discards
  scheduler hiccups).

Per-request p50/p99 latencies from the daemon's own stage rings
(queue wait / journal / solve / total) are reported alongside.  Both
legs run with ``fsync`` off so the comparison measures the daemon, not
the disk.

Standalone usage (mirrors ``bench_cache.py``)::

    python benchmarks/bench_service.py --save BENCH_service.json
    python benchmarks/bench_service.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import sys
import tempfile
import time
from typing import Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.extensions import IncrementalPlanner  # noqa: E402
from repro.service.daemon import (  # noqa: E402
    PlannerClient,
    PlannerService,
    ServiceConfig,
)
from repro.service.drill import drill_cost  # noqa: E402
from repro.service.journal import WorkloadJournal  # noqa: E402

SEED = 17
BATCHES = 24
BATCH_SIZE = 12
PROPERTIES = 48
REPEATS = 15
OVERHEAD_LIMIT = 0.05


def workload(seed: int, batches: int) -> List[List[List[str]]]:
    """Seeded batches over a universe wide enough that every batch
    does real solve work (milliseconds, not the drill's microseconds) —
    the overhead ratio is about the daemon, so the denominator must be
    a representative request, not a trivial one."""
    rng = random.Random(f"bench-service-{seed}")
    universe = [f"p{i}" for i in range(PROPERTIES)]
    plan: List[List[List[str]]] = []
    for _ in range(batches):
        batch = set()
        while len(batch) < BATCH_SIZE:
            batch.add(frozenset(rng.sample(universe, rng.randint(3, 5))))
        plan.append([sorted(query) for query in sorted(batch, key=sorted)])
    return plan


def service_config(journal_path: str = None) -> ServiceConfig:
    return ServiceConfig(
        journal_path=journal_path,
        journal_fsync=False,
        cache=None,  # cache off on both legs: measure the daemon, not hits
        default_deadline_seconds=None,
    )


def run_direct(workdir: str, batches: List[List[List[str]]]) -> str:
    """The baseline leg: durability and the same resilience policy,
    called synchronously as a library.  A throwaway (never-started)
    service supplies the identical policy/breaker wiring, so the ratio
    isolates the daemon machinery — queue, coalescer, executor,
    protocol — not the robustness work both legs must do."""
    path = os.path.join(workdir, "direct.journal")
    template = PlannerService(drill_cost(SEED), config=service_config())
    planner = IncrementalPlanner(drill_cost(SEED))
    with WorkloadJournal(path, fsync=False) as journal:
        for batch in batches:
            queries = [frozenset(spec) for spec in batch]
            journal.append_batch(queries)
            planner.add_batch(
                queries,
                solver_overrides={"resilience": template.policy_for(None)},
            )
    os.unlink(path)
    return planner.state_digest()


async def _drive_service(
    workdir: str, batches: List[List[List[str]]]
) -> Dict[str, object]:
    path = os.path.join(workdir, "service.journal")
    service = PlannerService(drill_cost(SEED), config=service_config(path))
    await service.start()
    try:
        client = PlannerClient(service)
        for batch in batches:
            await client.plan(batch)
        snapshot = await client.stats()
    finally:
        await service.stop()
        os.unlink(path)
    return snapshot


def run_service(workdir: str, batches: List[List[List[str]]]) -> Dict[str, object]:
    """The daemon leg: same workload through the full admission path."""
    return asyncio.run(_drive_service(workdir, batches))


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def paired_overhead(base_rounds, variant_rounds) -> float:
    """Median of per-round variant/base ratios, minus one."""
    return median(v / b for b, v in zip(base_rounds, variant_rounds)) - 1.0


def run_all(batches: int = BATCHES, repeats: int = REPEATS) -> Dict[str, object]:
    plan = workload(SEED, batches)
    direct_rounds: List[float] = []
    service_rounds: List[float] = []
    direct_digest = None
    snapshot: Dict[str, object] = {}
    with tempfile.TemporaryDirectory(prefix="bench-service-") as workdir:
        # Warmup: lazy imports, first event loop, solver code paths.
        run_direct(workdir, plan)
        run_service(workdir, plan)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                gc.collect()
                started = time.perf_counter()
                direct_digest = run_direct(workdir, plan)
                direct_rounds.append(time.perf_counter() - started)
                started = time.perf_counter()
                snapshot = run_service(workdir, plan)
                service_rounds.append(time.perf_counter() - started)
        finally:
            if gc_was_enabled:
                gc.enable()

    # The daemon must not change the answer: bit-identical final state.
    state = snapshot["workload"]
    assert state["state_digest"] == direct_digest, (
        state["state_digest"],
        direct_digest,
    )
    requests = snapshot["requests"]
    assert requests["completed"] == batches
    assert requests["failed"] == 0 and requests["shed"] == 0

    direct_s, service_s = min(direct_rounds), min(service_rounds)
    overhead = paired_overhead(direct_rounds, service_rounds)
    latency = requests["latency"]
    print(f"direct (journal+planner): {direct_s:.4f}s (min of {repeats})")
    print(f"service (daemon path)   : {service_s:.4f}s ({overhead:+.2%} paired median)")
    for stage in ("queue_wait", "journal", "solve", "total"):
        summary = latency[stage]
        if summary.get("count"):
            print(
                f"  {stage:<10} p50 {summary['p50_ms']:7.3f}ms"
                f"  p99 {summary['p99_ms']:7.3f}ms"
            )

    assert overhead < OVERHEAD_LIMIT, (
        f"no-fault daemon overhead {overhead:+.2%} exceeds "
        f"{OVERHEAD_LIMIT:.0%} on the service workload"
    )
    return {
        "benchmark": "service_overhead",
        "schema": 1,
        "python": sys.version.split()[0],
        "mode": "smoke" if batches < BATCHES else "full",
        "workload": {
            "seed": SEED,
            "batches": batches,
            "batch_size": BATCH_SIZE,
            "properties": PROPERTIES,
            "repeats": repeats,
        },
        "direct_seconds": direct_s,
        "service_seconds": service_s,
        "overhead_fraction": overhead,
        "limit_fraction": OVERHEAD_LIMIT,
        "state_digest": direct_digest,
        "request_latency_ms": latency,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized subset (fewer rounds)"
    )
    options = parser.parse_args(argv)
    if options.smoke:
        results = run_all(batches=10, repeats=7)
    else:
        results = run_all()
    if options.save:
        with open(options.save, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {options.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
