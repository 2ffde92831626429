"""The service chaos drill: SIGKILL a live daemon, assert recovery.

Run as a module (``python -m repro.service.drill --seed N``).  The
driver:

1. spawns a daemon subprocess over a unix socket with a
   :class:`~repro.devtools.chaos.ServiceChaos` plan that SIGKILLs it
   at the ``post-journal`` seam of batch ``--kill-seq`` (durably
   admitted, not yet applied — the hardest recovery case);
2. drives seeded plan requests until the connection dies, then asserts
   the daemon really died by SIGKILL (no atexit flush happened);
3. appends a garbage record to the journal tail (simulating a torn
   concurrent write) — recovery must detect the bad checksum and drop
   exactly that tail;
4. computes the never-crashed reference state by replaying the
   journal's valid records through
   :func:`~repro.service.daemon.replay_reference`;
5. restarts the daemon (no chaos) on the same journal and asserts its
   recovered ``state_digest`` is **bit-identical** to the reference;
6. drives two more batches (liveness after recovery), then SIGTERMs
   and asserts a graceful zero exit.

Everything is derived from ``--seed``: the workload (blake2b-generated
query batches — no :mod:`random`, so the drill itself passes the
determinism lint), the cost model (:class:`~repro.core.costs.HashCost`),
and the chaos schedule.  Two different seeds in CI is the regression
net for "recovery happens to work for one workload".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time  # reprolint: ignore[RPL102] drill driver: subprocess polling clock, never touches planner state
from typing import List, Optional, Tuple

from repro.core.costs import HashCost
from repro.service.client import SocketPlannerClient
from repro.service.daemon import PlannerService, ServiceConfig, replay_reference
from repro.service.journal import read_journal

#: Property universe for drill workloads — small enough that batches
#: share properties (exercising overlap/decomposition), large enough
#: that distinct seeds produce genuinely different workloads.
_UNIVERSE = tuple(f"p{i}" for i in range(12))


def drill_cost(seed: int) -> HashCost:
    """The drill's deterministic cost model (shared by all modes)."""
    return HashCost(low=1, high=40, seed=seed)


def drill_config(journal_path: str) -> ServiceConfig:
    """One canonical daemon configuration for serve/replay/reference.

    No deadlines, so no solve races a wall-clock budget: the
    deterministic regime where recovery equivalence is exact (see the
    daemon module docstring for the caveat this avoids).
    """
    return ServiceConfig(
        journal_path=journal_path,
        default_deadline_seconds=None,
        queue_depth=16,
        batch_window=4,
    )


def workload_batch(seed: int, index: int, size: int = 3) -> List[List[str]]:
    """Batch ``index`` of the seeded drill workload (hash-generated)."""
    batch: List[List[str]] = []
    for q in range(size):
        digest = hashlib.blake2b(
            f"drill|{seed}|{index}|{q}".encode("utf-8"), digest_size=8
        ).digest()
        width = 1 + digest[0] % 3
        props = sorted(
            {
                _UNIVERSE[digest[1 + j] % len(_UNIVERSE)]
                for j in range(width)
            }
        )
        batch.append(props)
    return batch


# ----------------------------------------------------------------------
# Serve mode (the subprocess the driver kills)
# ----------------------------------------------------------------------


def _serve(socket_path: str, journal_path: str, seed: int, kill_seq: int) -> None:
    import asyncio

    from repro.devtools.chaos import ServiceChaos

    chaos = None
    if kill_seq >= 0:
        chaos = ServiceChaos(seed=seed, plan={("post-journal", kill_seq): "kill"})
    service = PlannerService(
        drill_cost(seed), config=drill_config(journal_path), chaos=chaos
    )
    asyncio.run(service.serve_forever(socket_path=socket_path))


# ----------------------------------------------------------------------
# Driver mode
# ----------------------------------------------------------------------


class DrillFailure(AssertionError):
    """The drill observed a broken recovery contract."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DrillFailure(message)


def _spawn_daemon(
    socket_path: str, journal_path: str, seed: int, kill_seq: int
) -> "Tuple[subprocess.Popen[bytes], SocketPlannerClient]":
    """Start a daemon subprocess; returns it with a connected client."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service.drill",
            "--serve",
            "--socket",
            socket_path,
            "--journal",
            journal_path,
            "--seed",
            str(seed),
            "--kill-seq",
            str(kill_seq),
        ]
    )
    deadline = time.monotonic() + 30.0  # reprolint: ignore[RPL102] drill driver: startup-poll deadline
    while True:
        if process.poll() is not None:
            raise DrillFailure(
                f"daemon exited during startup (rc={process.returncode})"
            )
        try:
            return process, SocketPlannerClient(socket_path=socket_path)
        except (FileNotFoundError, ConnectionRefusedError):
            # The socket file appears at bind(), before the daemon
            # listens: until then a connect is refused.
            pass
        if time.monotonic() > deadline:  # reprolint: ignore[RPL102] drill driver: startup-poll deadline
            process.kill()
            raise DrillFailure("daemon never started listening")
        time.sleep(0.02)  # reprolint: ignore[RPL102] drill driver: startup-poll sleep


def run_drill(seed: int, workdir: str, kill_seq: int = 2, batches: int = 6) -> dict:
    """One full kill/corrupt/recover/verify cycle; returns a summary."""
    socket_path = os.path.join(workdir, f"drill-{seed}.sock")
    journal_path = os.path.join(workdir, f"drill-{seed}.journal")

    # Phase 1: daemon with a scheduled SIGKILL at post-journal of kill_seq.
    process, client = _spawn_daemon(socket_path, journal_path, seed, kill_seq)
    died_at: Optional[int] = None
    applied = 0
    try:
        for index in range(batches):
            try:
                result = client.plan(workload_batch(seed, index))
            except (OSError, ConnectionError):
                died_at = index
                break
            applied += 1
            _require(
                result["seq"] == index,
                f"batch {index} journaled as seq {result['seq']}",
            )
    finally:
        client.close()
    _require(died_at == kill_seq, f"daemon died at batch {died_at}, expected {kill_seq}")
    process.wait(timeout=30)
    _require(
        process.returncode == -signal.SIGKILL,
        f"daemon exit code {process.returncode}, expected SIGKILL",
    )
    os.unlink(socket_path)

    # Phase 2: damage the tail, then compute the never-crashed reference.
    from repro.devtools.chaos import corrupt_journal_tail

    corrupt_journal_tail(journal_path)
    recovered = read_journal(journal_path)
    _require(
        recovered.dropped_entries >= 1,
        "tail corruption was not detected by journal recovery",
    )
    _require(
        len(recovered.records) == kill_seq + 1,
        f"journal holds {len(recovered.records)} records, expected {kill_seq + 1} "
        "(the killed batch was journaled before the strike)",
    )
    reference = replay_reference(
        drill_cost(seed), drill_config(journal_path), recovered.records
    )
    reference_digest = reference.state_digest()

    # Phase 3: clean restart on the damaged journal; recovery must match.
    process, client = _spawn_daemon(socket_path, journal_path, seed, kill_seq=-1)
    try:
        with client:
            stats = client.stats()
            _require(
                stats["recovered_batches"] == len(recovered.records),
                f"recovered {stats['recovered_batches']} batches, "
                f"expected {len(recovered.records)}",
            )
            recovered_digest = stats["workload"]["state_digest"]
            _require(
                recovered_digest == reference_digest,
                "recovered state diverged from the never-crashed reference: "
                f"{recovered_digest} != {reference_digest}",
            )
            # Liveness: the recovered daemon keeps planning new batches.
            for index in range(batches, batches + 2):
                result = client.plan(workload_batch(seed, index))
                _require(
                    not result.get("degraded", False),
                    f"post-recovery batch {index} degraded",
                )
            final = client.stats()
    finally:
        # Phase 4: graceful drain on SIGTERM.
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    _require(
        process.returncode == 0,
        f"SIGTERM exit code {process.returncode}, expected graceful 0",
    )
    return {
        "seed": seed,
        "killed_at_seq": kill_seq,
        "journaled_records": len(recovered.records),
        "dropped_tail_entries": recovered.dropped_entries,
        "reference_digest": reference_digest,
        "recovered_digest": recovered_digest,
        "final_digest": final["workload"]["state_digest"],
        "final_total_cost": final["workload"]["total_cost"],
        "ok": True,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kill-seq", type=int, default=2)
    parser.add_argument("--batches", type=int, default=6)
    parser.add_argument("--workdir", default=None, help="default: a tempdir")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--socket", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--journal", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.serve:
        _serve(args.socket, args.journal, args.seed, args.kill_seq)
        return 0

    import tempfile

    if args.workdir is not None:
        summary = run_drill(
            args.seed, args.workdir, kill_seq=args.kill_seq, batches=args.batches
        )
    else:
        with tempfile.TemporaryDirectory(prefix="mc3-drill-") as workdir:
            summary = run_drill(
                args.seed, workdir, kill_seq=args.kill_seq, batches=args.batches
            )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
