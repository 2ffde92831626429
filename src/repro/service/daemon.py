"""The planner daemon: an asyncio service around the incremental planner.

Request lifecycle::

    client ──JSON line──▶ admission (bounded queue; full ⇒ queue-full)
                              │
                              ▼ worker task (single consumer)
             drain a window ≤ batch_window, coalesce same-fingerprint
             batches, derive the group budget from the tightest live
             deadline
                              │
                              ▼ executor thread (sync)
             journal.append_batch (write-ahead, fsync'd)
             planner.add_batch(…, resilience=deadline-budgeted policy)
                              │
                              ▼ event loop
             resolve every member's future ⇒ replies written

Robustness properties, each with its enforcement point:

* **never hangs** — every request resolves to a reply or a typed error:
  admission is ``put_nowait`` (full ⇒ ``queue-full``), deadlines are an
  ``asyncio.wait_for`` on the reply future (late ⇒
  ``deadline-exceeded``), drain rejects new work (``shutting-down``);
* **crash safety** — the journal append is durably on disk *before*
  the planner mutates (write-ahead), so a ``kill -9`` at any seam
  loses at most un-admitted work; restart replays the journal through
  a fresh planner into bit-identical workload state (compare
  :meth:`~repro.extensions.incremental.IncrementalPlanner.state_digest`);
* **overload isolation** — a persistently failing rung trips its
  circuit breaker (:mod:`repro.service.breaker`) so later requests skip
  it instantly instead of re-burning its retry budget;
* **deadline → budget mapping** — a request's remaining deadline is
  scaled by :data:`BUDGET_FRACTION` (floored at
  :data:`MIN_BUDGET_SECONDS`) into the
  :class:`~repro.engine.resilience.ResiliencePolicy` per-attempt
  budget, with ``on_error="degrade"`` — so a deadline either holds, or
  the answer degrades to a verified
  :class:`~repro.engine.resilience.PartialSolution`, or the typed error
  fires.  The *resolved* budget is recorded in the journal, so replay
  re-solves with the knobs the live daemon actually used instead of
  re-deriving them from a clock that has since moved.

Replay determinism caveat: a solve that races its wall-clock budget can
land on either side of the boundary, changing which rung answered.
With no (or generous) deadlines the pipeline is deterministic end to
end and recovery equivalence is exact — that regime is what the chaos
drill and CI assert.  Batches that applied but missed their requester's
reply deadline stay applied (at-least-once admission, by design).
"""

from __future__ import annotations

import asyncio
import contextlib
import time  # reprolint: ignore[RPL102] deadline seam: the service's sanctioned clock (see _now)
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.bitspace import component_fingerprint
from repro.core.costs import CostModel
from repro.core.instance import MC3Instance
from repro.core.properties import Query, classifier_sort_key, query as make_query
from repro.core.solution import SolverResult
from repro.engine.cache import resolve_cache
from repro.engine.resilience import PartialSolution, ResiliencePolicy
from repro.engine.telemetry import cost_ratio
from repro.exceptions import ReproError
from repro.extensions.incremental import IncrementalPlanner
from repro.preprocess.decompose import partition_queries
from repro.service import protocol
from repro.service.breaker import BreakerBoard
from repro.service.journal import JournalRecord, WorkloadJournal

__all__ = [
    "ServiceConfig",
    "PlannerService",
    "PlannerClient",
    "replay_reference",
]


def _now() -> float:
    """Monotonic clock read — the service's single deadline seam.

    Every wall-clock observation in the daemon flows through here, so
    the reprolint determinism rules have exactly one sanctioned read to
    audit.  The values never reach planner state or the journal except
    as the *resolved* budget, which is sanitized where it is derived.
    """
    return time.monotonic()  # reprolint: ignore[RPL102] deadline seam: single sanctioned clock read


#: Fraction of a request's remaining deadline granted to each component
#: solve attempt, floored at :data:`MIN_BUDGET_SECONDS`.
BUDGET_FRACTION = 0.5
MIN_BUDGET_SECONDS = 0.05

#: Fallback chain appended to the primary solver for every request.
FALLBACK_CHAIN = ("greedy", "query-oriented")


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance (all deterministic knobs)."""

    solver_name: str = "mc3-general"
    solver_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Component-solution cache spec shared by every batch solve — the
    #: warm-cache half of the recovery story: replayed batches re-solve
    #: through the same content-addressed store.
    cache: Optional[object] = "memory"
    #: Admission queue capacity; a full queue sheds load with a typed
    #: ``queue-full`` reply instead of queueing unboundedly.
    queue_depth: int = 64
    #: Max requests drained per worker wake-up (coalescing window).
    batch_window: int = 8
    #: Deadline applied to requests that do not carry their own.
    default_deadline_seconds: Optional[float] = None
    #: Journal path (``None`` = volatile daemon, no crash recovery).
    journal_path: Optional[str] = None
    journal_fsync: bool = True


class _LatencyRing:
    """Last-N latency samples with cheap percentile rendering."""

    __slots__ = ("_samples",)

    def __init__(self, maxlen: int = 512):
        self._samples: Deque[float] = deque(maxlen=maxlen)

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)

    def summary(self) -> Dict[str, object]:
        values = sorted(self._samples)
        if not values:
            return {"count": 0}

        def pct(q: float) -> float:
            index = min(len(values) - 1, max(0, int(q * len(values))))
            return values[index] * 1000.0

        return {
            "count": len(values),
            "p50_ms": pct(0.50),
            "p99_ms": pct(0.99),
            "max_ms": values[-1] * 1000.0,
        }


class ServiceStats:
    """Daemon-lifetime counters + per-stage latency rings."""

    STAGES = ("queue_wait", "journal", "solve", "total")

    def __init__(self) -> None:
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.deadline_exceeded = 0
        self.expired_unapplied = 0
        self.coalesced = 0
        self.batches_applied = 0
        self.rings: Dict[str, _LatencyRing] = {
            stage: _LatencyRing() for stage in self.STAGES
        }
        # Running sums over applied batches of each solve's cost and of
        # its engine lower-bound summary (details["engine"]["lower_bound"]).
        self.bound_totals: Dict[str, float] = {
            "value": 0.0,
            "cost": 0.0,
            "components": 0,
            "bounded": 0,
            "certified": 0,
        }

    def record_bound(self, result: SolverResult) -> None:
        engine = result.details.get("engine")
        summary = engine.get("lower_bound") if isinstance(engine, dict) else None
        if not isinstance(summary, dict):
            return
        totals = dict(self.bound_totals)
        totals["cost"] += result.cost
        for key in ("value", "components", "bounded", "certified"):
            totals[key] += summary[key]
        # One reference swap: a stats read on the event loop sees whole
        # batches, never a cost without its bound.
        self.bound_totals = totals

    def bound_summary(self) -> Dict[str, object]:
        """Lower bound on the optimum of every batch solve so far, the
        solves' summed cost, and the ratio of the two."""
        totals = self.bound_totals
        return {**totals, "cost_ratio": cost_ratio(totals["cost"], totals["value"])}

    def as_dict(self) -> Dict[str, object]:
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "deadline_exceeded": self.deadline_exceeded,
            "expired_unapplied": self.expired_unapplied,
            "coalesced": self.coalesced,
            "batches_applied": self.batches_applied,
            "latency": {
                stage: self.rings[stage].summary() for stage in self.STAGES
            },
        }


class _Pending:
    """One admitted plan request waiting for its batch to apply."""

    __slots__ = ("request_id", "queries", "deadline", "admitted_at", "future")

    def __init__(
        self,
        request_id: object,
        queries: Tuple[Query, ...],
        deadline: Optional[float],
        admitted_at: float,
        future: "asyncio.Future[Dict[str, object]]",
    ):
        self.request_id = request_id
        self.queries = queries
        self.deadline = deadline
        self.admitted_at = admitted_at
        self.future = future


class PlannerService:
    """The daemon: admission queue, worker loop, journal, breakers.

    Construct, then either drive it in-process (``await start()`` and
    talk through :class:`PlannerClient`) or let
    :meth:`serve_forever` bind a unix/TCP listener and own the signal
    handling.  All solver work runs in a thread executor so the event
    loop keeps admitting, shedding, and answering ``stats`` while a
    batch solves.
    """

    def __init__(
        self,
        cost: CostModel,
        config: Optional[ServiceConfig] = None,
        chaos: Optional[object] = None,
    ):
        self.config = config or ServiceConfig()
        self.cost = cost
        self.chaos = chaos
        self.breakers = BreakerBoard()
        self.cache = resolve_cache(self.config.cache)
        solver_kwargs = dict(self.config.solver_kwargs)
        self.planner = IncrementalPlanner(
            cost,
            solver_name=self.config.solver_name,
            solver_kwargs=solver_kwargs,
            cache=self.cache,
        )
        self.journal: Optional[WorkloadJournal] = None
        if self.config.journal_path is not None:
            self.journal = WorkloadJournal(
                self.config.journal_path, fsync=self.config.journal_fsync
            )
        self.stats = ServiceStats()
        self.recovered_batches = 0
        self._seq = 0  # batch counter for journal-less daemons
        self._draining = False
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._worker: Optional["asyncio.Task[None]"] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._started = False

    # ------------------------------------------------------------------
    # Policies and recovery
    # ------------------------------------------------------------------

    def policy_for(self, budget_seconds: Optional[float]) -> ResiliencePolicy:
        """The request-scoped resilience policy for one batch.

        ``on_error="degrade"`` is load-bearing: a blown budget or a
        broken rung yields a verified :class:`PartialSolution` instead
        of an exception, so the daemon's reply path never depends on a
        solver behaving.  Identical construction at admission and at
        replay (the journal records ``budget_seconds``) is what makes
        recovery reproduce live decisions.
        """
        return ResiliencePolicy(
            timeout_seconds=budget_seconds,
            on_error="degrade",
            fallback=FALLBACK_CHAIN,
            breakers=self.breakers,
        )

    def recover(self) -> int:
        """Replay the journal's admitted batches into the planner.

        Called once before serving.  Each record re-solves with the
        budget resolved at its original admission, against the same
        breaker board and solution cache a fresh daemon starts with —
        the same inputs the live daemon's apply saw, so the resulting
        workload state is bit-identical (see module caveat).
        """
        if self.journal is None or self.recovered_batches:
            return 0
        records = self.journal.recovered.records
        self._replay(records)
        self.recovered_batches = len(records)
        self._seq = self.journal.next_seq
        return self.recovered_batches

    def _replay(self, records: Sequence[JournalRecord]) -> None:
        """Apply journaled batches to the planner as the live daemon did.

        The journal entry is written before the batch is applied, so it
        also holds batches whose apply raised.  The live daemon replied
        with an error for those and kept serving, and ``add_batch`` is
        transactional, so the planner was left unchanged; replay skips
        them to match.
        """
        for record in records:
            try:
                self.planner.add_batch(
                    list(record.queries),
                    solver_overrides={
                        "resilience": self.policy_for(record.budget_seconds)
                    },
                )
            except Exception:  # _apply_group replied an error and kept serving
                continue

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self.recover()
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._worker = asyncio.create_task(self._worker_loop())
        self._started = True

    async def drain(self) -> None:
        """Stop admitting, finish everything already queued, flush."""
        self._draining = True
        if self._queue is not None:
            await self._queue.join()
        if self.journal is not None:
            self.journal.flush()

    async def stop(self) -> None:
        """Graceful shutdown: drain, stop the worker, close listeners."""
        await self.drain()
        # Let connection handlers flush replies resolved by the drain.
        # Scheduling passes, not wall-clock: a reply is tiny, so once
        # the unblocked handler task runs one step the bytes are in the
        # kernel buffer and survive process exit.
        for _ in range(10):
            await asyncio.sleep(0)
        if self._worker is not None:
            self._worker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._worker
            self._worker = None
        for server in self._servers:
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
        self._servers.clear()
        if self.journal is not None:
            self.journal.close()
        self._started = False

    async def serve_forever(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        ready: Optional["asyncio.Event"] = None,
    ) -> None:
        """Bind a listener, serve until SIGTERM/SIGINT, then drain.

        SIGTERM is the graceful-drain contract: stop admitting (new
        plans get ``shutting-down``), finish in-flight batches, flush
        and close the journal, exit.
        """
        import signal as _signal

        await self.start()
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop_event.set)
        if socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=socket_path
            )
        elif port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host or "127.0.0.1", port
            )
        else:
            raise protocol.BadRequestError(
                "serve_forever needs a socket_path or a port"
            )
        self._servers.append(server)
        if ready is not None:
            ready.set()
        await stop_event.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # Request handling (shared by socket handler and in-process client)
    # ------------------------------------------------------------------

    async def handle_request(self, obj: Dict[str, object]) -> Dict[str, object]:
        """One request dict to one reply dict; never raises."""
        try:
            op, request_id = protocol.parse_request(obj)
        except protocol.PlannerServiceError as exc:
            return protocol.error_reply(obj.get("id"), exc.code, str(exc))
        try:
            if op == "ping":
                return protocol.ok_reply(request_id, {"pong": True})
            if op == "stats":
                return protocol.ok_reply(request_id, self.snapshot())
            if op == "drain":
                await self.drain()
                return protocol.ok_reply(request_id, {"drained": True})
            return await self._handle_plan(obj, request_id)
        except protocol.PlannerServiceError as exc:
            return protocol.error_reply(request_id, exc.code, str(exc))
        except Exception as exc:  # the daemon must answer, not die
            return protocol.error_reply(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )

    async def _handle_plan(
        self, obj: Dict[str, object], request_id: object
    ) -> Dict[str, object]:
        specs, deadline_seconds = protocol.parse_plan_payload(obj)
        try:
            queries = tuple(make_query(spec) for spec in specs)
        except (ReproError, TypeError, ValueError) as exc:
            return protocol.error_reply(request_id, "bad-request", str(exc))
        if self._draining or self._queue is None:
            return protocol.error_reply(
                request_id, "shutting-down", "daemon is draining; retry elsewhere"
            )
        if deadline_seconds is None:
            deadline_seconds = self.config.default_deadline_seconds
        admitted_at = _now()
        deadline = (
            admitted_at + deadline_seconds if deadline_seconds is not None else None
        )
        pending = _Pending(
            request_id,
            queries,
            deadline,
            admitted_at,
            asyncio.get_running_loop().create_future(),
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.stats.shed += 1
            return protocol.error_reply(
                request_id,
                "queue-full",
                f"admission queue is full (depth {self.config.queue_depth}); "
                "shedding load",
            )
        self.stats.admitted += 1
        if deadline is None:
            return await pending.future
        try:
            return await asyncio.wait_for(
                asyncio.shield(pending.future),
                timeout=max(0.0, deadline - _now()),
            )
        except asyncio.TimeoutError:
            self.stats.deadline_exceeded += 1
            return protocol.error_reply(
                request_id,
                "deadline-exceeded",
                f"no reply within the {deadline_seconds:.3f}s deadline "
                "(the batch may still apply; admission is at-least-once)",
            )

    def snapshot(self) -> Dict[str, object]:
        """The ``stats`` reply: health, depth, breakers, cache, latency,
        and the lower bound on the applied batches' optimum."""
        queue_depth = self._queue.qsize() if self._queue is not None else 0
        cache_stats: Optional[Dict[str, object]] = None
        if self.cache is not None:
            cache_stats = self.cache.stats()
            hits = int(cache_stats.get("hits", 0))
            misses = int(cache_stats.get("misses", 0))
            lookups = hits + misses
            cache_stats["hit_rate"] = (hits / lookups) if lookups else 0.0
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "draining": self._draining,
            "queue_depth": queue_depth,
            "queue_capacity": self.config.queue_depth,
            "requests": self.stats.as_dict(),
            "breakers": self.breakers.states(),
            "cache": cache_stats,
            "journal": self.journal.stats() if self.journal is not None else None,
            "recovered_batches": self.recovered_batches,
            "lower_bound": self.stats.bound_summary(),
            "workload": {
                "batches": len(self.planner.batches),
                "queries": len(self.planner.queries),
                "built_classifiers": len(self.planner.built_classifiers),
                "total_cost": self.planner.total_cost,
                "state_digest": self.planner.state_digest(),
            },
        }

    # ------------------------------------------------------------------
    # Worker: batching, coalescing, journaled apply
    # ------------------------------------------------------------------

    async def _worker_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            window = [first]
            while len(window) < self.config.batch_window:
                try:
                    window.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                if len(window) > 1:
                    groups = await loop.run_in_executor(
                        None, self._coalesce, window
                    )
                else:
                    groups = [window]
                for group in groups:
                    await self._apply_group(loop, group)
            finally:
                for _ in window:
                    self._queue.task_done()

    def _batch_key(self, queries: Tuple[Query, ...]) -> Tuple[str, ...]:
        """Content key for request coalescing.

        The batch decomposes into property-disjoint components exactly
        as the engine will see them; each is hashed with
        :func:`~repro.core.bitspace.component_fingerprint`, so two
        requests coalesce **iff** they denote identical component work.
        Sorted, so query arrival order inside a request does not split
        keys (the representative's order is what gets journaled).
        """
        keys = []
        for group in partition_queries(list(queries)):
            component = MC3Instance(group, self.cost, name="admission")
            keys.append(
                component_fingerprint(
                    component, solver_token=("service-admission",)
                )
            )
        return tuple(sorted(keys))

    def _coalesce(self, window: List[_Pending]) -> List[List[_Pending]]:
        """Group the drained window by batch fingerprint (order kept)."""
        groups: List[List[_Pending]] = []
        by_key: Dict[Tuple[str, ...], List[_Pending]] = {}
        for pending in window:
            try:
                key = self._batch_key(pending.queries)
            except ReproError:
                # Un-fingerprintable batch (e.g. uncoverable query):
                # solo group; the apply path produces the typed error.
                groups.append([pending])
                continue
            bucket = by_key.get(key)
            if bucket is None:
                bucket = []
                by_key[key] = bucket
                groups.append(bucket)
            bucket.append(pending)
        return groups

    async def _apply_group(
        self, loop: asyncio.AbstractEventLoop, group: List[_Pending]
    ) -> None:
        now = _now()
        live = [p for p in group if p.deadline is None or p.deadline > now]
        if not live:
            # Nobody is waiting anymore: turn the work away un-applied
            # (and un-journaled) instead of planning for the void.
            self.stats.expired_unapplied += len(group)
            for pending in group:
                self._resolve(
                    pending,
                    protocol.error_reply(
                        pending.request_id,
                        "deadline-exceeded",
                        "deadline expired before the batch was applied",
                    ),
                )
            return
        budget: Optional[float] = None
        deadlines = [p.deadline for p in live if p.deadline is not None]
        if deadlines:
            remaining = min(deadlines) - now
            budget = max(  # reprolint: sanitize deadline→budget seam: resolved once, journaled, replayed verbatim
                MIN_BUDGET_SECONDS, remaining * BUDGET_FRACTION
            )
        representative = live[0]
        for pending in group:
            self.stats.rings["queue_wait"].record(now - pending.admitted_at)
        self.stats.coalesced += len(group) - 1
        try:
            payload = await loop.run_in_executor(
                None, self._apply_batch, representative.queries, budget
            )
        except protocol.PlannerServiceError as exc:
            self.stats.failed += len(group)
            for pending in group:
                self._resolve(
                    pending,
                    protocol.error_reply(pending.request_id, exc.code, str(exc)),
                )
            return
        except Exception as exc:  # solver/journal bug: reply, keep serving
            self.stats.failed += len(group)
            for pending in group:
                self._resolve(
                    pending,
                    protocol.error_reply(
                        pending.request_id,
                        "internal",
                        f"{type(exc).__name__}: {exc}",
                    ),
                )
            return
        finish = _now()
        for position, pending in enumerate(group):
            self.stats.rings["total"].record(finish - pending.admitted_at)
            reply_payload = dict(payload)
            reply_payload["coalesced"] = position > 0
            self.stats.completed += 1
            self._resolve(
                pending, protocol.ok_reply(pending.request_id, reply_payload)
            )

    def _resolve(self, pending: _Pending, reply: Dict[str, object]) -> None:
        if not pending.future.done():
            pending.future.set_result(reply)

    def _strike(self, seam: str, seq: int) -> None:
        if self.chaos is not None:
            self.chaos.strike(seam, seq)

    def _apply_batch(
        self, queries: Tuple[Query, ...], budget: Optional[float]
    ) -> Dict[str, object]:
        """Journal then apply one batch (runs in the executor thread)."""
        seq = self.journal.next_seq if self.journal is not None else self._seq
        self._strike("pre-journal", seq)
        if self.journal is not None:
            journal_started = _now()
            seq = self.journal.append_batch(queries, budget)
            self.stats.rings["journal"].record(_now() - journal_started)
        self._seq = seq + 1
        self._strike("post-journal", seq)
        solve_started = _now()
        outcome = self.planner.add_batch(
            queries, solver_overrides={"resilience": self.policy_for(budget)}
        )
        self.stats.rings["solve"].record(_now() - solve_started)
        self.stats.batches_applied += 1
        if outcome.solver_result is not None:
            self.stats.record_bound(outcome.solver_result)
        self._strike("post-apply", seq)
        solution = (
            outcome.solver_result.solution
            if outcome.solver_result is not None
            else None
        )
        uncovered = 0
        degraded = False
        if isinstance(solution, PartialSolution):
            uncovered = len(solution.uncovered_queries)
            degraded = bool(
                solution.degraded_components
                or solution.skipped_components
                or solution.failures
            )
        return {
            "seq": seq,
            "batch_index": outcome.batch_index,
            "new_queries": len(outcome.new_queries),
            "new_classifiers": [
                sorted(clf)
                for clf in sorted(outcome.new_classifiers, key=classifier_sort_key)
            ],
            "incremental_cost": outcome.incremental_cost,
            "total_cost": self.planner.total_cost,
            "budget_seconds": budget,
            "degraded": degraded,
            "uncovered_queries": uncovered,
            "state_digest": self.planner.state_digest(),
        }

    # ------------------------------------------------------------------
    # Socket front end
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One JSON-lines connection; requests are served sequentially
        per connection (concurrency = multiple connections), so a
        stalled client stalls only itself."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    obj = protocol.decode_message(line)
                except protocol.BadRequestError as exc:
                    reply = protocol.error_reply(None, "bad-request", str(exc))
                else:
                    reply = await self.handle_request(obj)
                writer.write(protocol.encode_message(reply))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class PlannerClient:
    """In-process async client — the test harness's front door.

    Talks to a started :class:`PlannerService` through the same
    ``handle_request`` path the socket front end uses (admission,
    coalescing, deadlines, typed errors all apply), minus the wire.
    """

    def __init__(self, service: PlannerService):
        self.service = service
        self._next_id = 0

    def _request_id(self) -> int:
        self._next_id += 1
        return self._next_id

    async def request(self, obj: Dict[str, object]) -> Dict[str, object]:
        reply = await self.service.handle_request(obj)
        return protocol.raise_error_reply(reply)

    async def plan(
        self,
        queries: Sequence[object],
        deadline_seconds: Optional[float] = None,
    ) -> Dict[str, object]:
        obj: Dict[str, object] = {
            "op": "plan",
            "id": self._request_id(),
            "queries": [
                spec if isinstance(spec, str) else sorted(spec)
                for spec in queries
            ],
        }
        if deadline_seconds is not None:
            obj["deadline_seconds"] = deadline_seconds
        return await self.request(obj)

    async def stats(self) -> Dict[str, object]:
        return await self.request({"op": "stats", "id": self._request_id()})

    async def ping(self) -> Dict[str, object]:
        return await self.request({"op": "ping", "id": self._request_id()})

    async def drain(self) -> Dict[str, object]:
        return await self.request({"op": "drain", "id": self._request_id()})


def replay_reference(
    cost: CostModel,
    config: ServiceConfig,
    records: Sequence[JournalRecord],
) -> IncrementalPlanner:
    """The never-crashed reference: a fresh planner fed ``records``.

    Builds a journal-less service with the same configuration (fresh
    breaker board, same cache spec) and applies every admitted batch
    with its recorded budget — exactly what a daemon that never died
    would hold.  Recovery equivalence means a crashed-and-replayed
    daemon's :meth:`~repro.extensions.incremental.IncrementalPlanner.state_digest`
    equals this planner's.
    """
    reference = PlannerService(cost, config=replace(config, journal_path=None))
    reference._replay(records)
    return reference.planner
