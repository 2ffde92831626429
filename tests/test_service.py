"""Tests for the planner daemon (:mod:`repro.service`).

Structure:

* journal: record round-trip, deterministic tail recovery (truncated /
  corrupt-checksum / garbage / stale-version tails all dropped at the
  first bad record), writer truncate-then-append, fsync toggle;
* circuit breaker: the closed→open→half-open state machine, the
  counter-based (deterministic) probe schedule, stale-evidence
  handling, the board;
* protocol: message codec, payload validation, the typed-error mapping;
* daemon end-to-end through the in-process client: plan/stats/ping,
  queue-full shedding, deadline-exceeded (typed, daemon stays live),
  same-fingerprint coalescing, drain semantics;
* crash recovery: in-process kill/replay equivalence via
  ``state_digest`` (including a damaged tail), plus one subprocess
  drill run with a real SIGKILL (the CI ``service-chaos`` job runs the
  full two-seed version).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys

import pytest

from repro.core import TableCost, UniformCost
from repro.core.costs import HashCost
from repro.devtools.chaos import (
    SERVICE_CHAOS_MODES,
    SERVICE_SEAMS,
    ServiceChaos,
    corrupt_journal_tail,
    truncate_journal_tail,
)
from repro.exceptions import SolverError
from repro.service import (
    BreakerBoard,
    CircuitBreaker,
    DeadlineExceededError,
    PlannerClient,
    PlannerService,
    QueueFullError,
    ServiceConfig,
    ShuttingDownError,
    WorkloadJournal,
    read_journal,
    replay_reference,
)
from repro.service import protocol
from repro.service.daemon import _Pending
from repro.service.drill import drill_config, drill_cost, workload_batch
from repro.service.journal import JournalError, encode_record


def run(coro):
    return asyncio.run(coro)


class _TornWriter:
    """File stand-in whose first write lands half the line, then fails."""

    def __init__(self, handle):
        self._handle = handle
        self._armed = True

    def write(self, data):
        if self._armed:
            self._armed = False
            self._handle.write(data[: len(data) // 2])
            self._handle.flush()
            raise OSError(28, "No space left on device")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def plain_cost():
    return TableCost({"a": 1, "b": 2, "c": 5, "d": 3, "a b": 2.5, "c d": 6})


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "w.journal")
        with WorkloadJournal(path) as journal:
            assert journal.append_batch([frozenset({"a", "b"})], 1.5) == 0
            assert journal.append_batch([frozenset({"c"})], None) == 1
        recovered = read_journal(path)
        assert [r.seq for r in recovered.records] == [0, 1]
        assert recovered.records[0].queries == (("a", "b"),)
        assert recovered.records[0].budget_seconds == 1.5
        assert recovered.records[1].budget_seconds is None
        assert recovered.dropped_entries == 0

    def test_missing_file_is_empty(self, tmp_path):
        recovered = read_journal(str(tmp_path / "nope.journal"))
        assert recovered.records == ()
        assert recovered.valid_bytes == 0

    def test_truncated_tail_dropped(self, tmp_path):
        path = str(tmp_path / "w.journal")
        with WorkloadJournal(path) as journal:
            for i in range(3):
                journal.append_batch([frozenset({f"p{i}"})], None)
        truncate_journal_tail(path, 5)  # tear the last record mid-line
        recovered = read_journal(path)
        assert [r.seq for r in recovered.records] == [0, 1]
        assert recovered.dropped_entries == 1
        assert recovered.dropped_bytes > 0

    def test_corrupt_checksum_tail_dropped(self, tmp_path):
        path = str(tmp_path / "w.journal")
        with WorkloadJournal(path) as journal:
            journal.append_batch([frozenset({"a"})], None)
        corrupt_journal_tail(path)
        recovered = read_journal(path)
        assert len(recovered.records) == 1
        assert recovered.dropped_entries == 1

    def test_flipped_byte_invalidates_record(self, tmp_path):
        path = str(tmp_path / "w.journal")
        with WorkloadJournal(path) as journal:
            journal.append_batch([frozenset({"a"})], None)
        blob = bytearray(open(path, "rb").read())
        blob[10] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert read_journal(path).records == ()

    def test_recovery_stops_at_first_bad_record(self, tmp_path):
        # A valid-looking record *after* a bad one must not resurrect:
        # seq continuity is part of the integrity check.
        path = str(tmp_path / "w.journal")
        good0 = encode_record(0, [frozenset({"a"})], None)
        good2 = encode_record(2, [frozenset({"b"})], None)
        with open(path, "wb") as handle:
            handle.write(good0 + b"garbage line\n" + good2)
        recovered = read_journal(path)
        assert [r.seq for r in recovered.records] == [0]
        assert recovered.dropped_entries == 2

    def test_writer_truncates_damage_then_appends(self, tmp_path):
        path = str(tmp_path / "w.journal")
        with WorkloadJournal(path) as journal:
            journal.append_batch([frozenset({"a"})], None)
        corrupt_journal_tail(path)
        with WorkloadJournal(path) as journal:
            assert journal.recovered.dropped_entries == 1
            assert journal.append_batch([frozenset({"b"})], 2.0) == 1
        recovered = read_journal(path)
        assert [r.seq for r in recovered.records] == [0, 1]
        assert recovered.dropped_entries == 0

    def test_failed_append_truncates_and_later_batches_survive(self, tmp_path):
        # The disk fails half-way through a record: the torn bytes must
        # not stay in front of the batches acknowledged after it.
        path = str(tmp_path / "w.journal")
        journal = WorkloadJournal(path, fsync=False)
        assert journal.append_batch([frozenset({"a"})], None) == 0
        journal._handle = _TornWriter(journal._handle)
        with pytest.raises(JournalError):
            journal.append_batch([frozenset({"b"})], None)
        assert journal.append_batch([frozenset({"c"})], 1.0) == 1
        assert journal.append_batch([frozenset({"d"})], None) == 2
        journal.close()
        recovered = read_journal(path)
        assert [r.seq for r in recovered.records] == [0, 1, 2]
        assert [r.queries for r in recovered.records] == [
            (("a",),),
            (("c",),),
            (("d",),),
        ]
        assert recovered.dropped_entries == 0

    def test_failed_rollback_closes_the_journal(self, tmp_path, monkeypatch):
        path = str(tmp_path / "w.journal")
        journal = WorkloadJournal(path, fsync=False)
        journal.append_batch([frozenset({"a"})], None)
        journal._handle = _TornWriter(journal._handle)

        def refuse(*_args):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "truncate", refuse)
        with pytest.raises(JournalError):
            journal.append_batch([frozenset({"b"})], None)
        with pytest.raises(JournalError, match="closed"):
            journal.append_batch([frozenset({"c"})], None)

    def test_fsync_toggle_and_stats(self, tmp_path):
        path = str(tmp_path / "w.journal")
        with WorkloadJournal(path, fsync=False) as journal:
            journal.append_batch([frozenset({"a"})], None)
            stats = journal.stats()
        assert stats["fsync"] is False
        assert stats["appended"] == 1

    def test_timestamp_never_affects_replay(self, tmp_path):
        a = encode_record(0, [frozenset({"a"})], 1.0, timestamp=1.0)
        b = encode_record(0, [frozenset({"a"})], 1.0, timestamp=999.0)
        assert a != b  # forensic field present...
        path_a, path_b = str(tmp_path / "a"), str(tmp_path / "b")
        open(path_a, "wb").write(a)
        open(path_b, "wb").write(b)
        # ...but invisible to what recovery hands the planner.
        assert read_journal(path_a).records == read_journal(path_b).records


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(2):
            breaker.record(ok=False)
        assert breaker.state == "closed"
        breaker.record(ok=False)
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record(ok=False)
        breaker.record(ok=True)
        breaker.record(ok=False)
        assert breaker.state == "closed"

    def test_probe_schedule_is_counter_based(self):
        breaker = CircuitBreaker(threshold=1, probe_interval=3)
        breaker.record(ok=False)
        # Denials until the probe_interval-th attempt becomes a probe.
        decisions = [breaker.allow() for _ in range(6)]
        assert decisions == [False, False, True, False, False, False]
        assert breaker.state == "half-open"
        assert breaker.probes == 1

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, probe_interval=2)
        breaker.record(ok=False)
        while not breaker.allow():
            pass
        breaker.record(ok=True)
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_countdown(self):
        breaker = CircuitBreaker(threshold=1, probe_interval=3)
        breaker.record(ok=False)
        while not breaker.allow():
            pass
        breaker.record(ok=False)
        assert breaker.state == "open"
        assert [breaker.allow() for _ in range(3)] == [False, False, True]

    def test_stale_evidence_while_open_is_ignored(self):
        # An outcome arriving for an attempt admitted before the trip
        # must not close (or further damage) the breaker.
        breaker = CircuitBreaker(threshold=1, probe_interval=4)
        breaker.record(ok=False)
        breaker.record(ok=True)
        assert breaker.state == "open"

    def test_determinism_same_call_sequence_same_states(self):
        def drive(breaker):
            out = []
            breaker.record(ok=False)
            for step in range(10):
                allowed = breaker.allow()
                if allowed:
                    breaker.record(ok=step >= 8)
                out.append((allowed, breaker.state))
            return out

        assert drive(CircuitBreaker(threshold=1)) == drive(
            CircuitBreaker(threshold=1)
        )

    def test_board_tracks_rungs_independently(self):
        board = BreakerBoard(threshold=1, probe_interval=2)
        assert board.allow("greedy")
        board.record("greedy", ok=False)
        assert not board.allow("greedy")
        assert board.allow("sampled")
        states = board.states()
        assert states["greedy"]["state"] == "open"
        assert states["sampled"]["state"] == "closed"
        board.reset()
        assert board.allow("greedy")

    def test_validation(self):
        with pytest.raises(SolverError):
            CircuitBreaker(threshold=0)
        with pytest.raises(SolverError):
            CircuitBreaker(probe_interval=0)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_codec_round_trip(self):
        message = {"op": "plan", "id": 7, "queries": [["a", "b"]]}
        assert protocol.decode_message(protocol.encode_message(message)) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.BadRequestError):
            protocol.decode_message(b"not json\n")
        with pytest.raises(protocol.BadRequestError):
            protocol.decode_message(b"[1, 2]\n")

    def test_parse_request_validates_op(self):
        with pytest.raises(protocol.BadRequestError):
            protocol.parse_request({"op": "explode", "id": 1})
        with pytest.raises(protocol.BadRequestError):
            protocol.parse_request({"id": 1})

    def test_parse_plan_payload_validation(self):
        ok = {"op": "plan", "id": 1, "queries": ["a b", ["c"]]}
        queries, deadline = protocol.parse_plan_payload(ok)
        assert queries == ["a b", ["c"]] and deadline is None
        for bad in (
            {"op": "plan", "id": 1},
            {"op": "plan", "id": 1, "queries": []},
            {"op": "plan", "id": 1, "queries": "a b"},
            {"op": "plan", "id": 1, "queries": [3]},
            {"op": "plan", "id": 1, "queries": ["a"], "deadline_seconds": 0},
            {"op": "plan", "id": 1, "queries": ["a"], "deadline_seconds": "x"},
        ):
            with pytest.raises(protocol.BadRequestError):
                protocol.parse_plan_payload(bad)

    def test_error_reply_maps_to_typed_exceptions(self):
        for code, exc_type in (
            ("queue-full", QueueFullError),
            ("deadline-exceeded", DeadlineExceededError),
            ("shutting-down", ShuttingDownError),
        ):
            reply = protocol.error_reply(1, code, "why")
            with pytest.raises(exc_type):
                protocol.raise_error_reply(reply)
        assert protocol.raise_error_reply(protocol.ok_reply(1, {"x": 2})) == {
            "x": 2
        }


# ----------------------------------------------------------------------
# Daemon end-to-end (in-process client)
# ----------------------------------------------------------------------


class TestDaemon:
    def test_plan_stats_ping(self, tmp_path):
        async def scenario():
            config = ServiceConfig(journal_path=str(tmp_path / "w.journal"))
            service = PlannerService(plain_cost(), config)
            await service.start()
            client = PlannerClient(service)
            assert (await client.ping())["pong"] is True
            first = await client.plan(["a b", "c"])
            assert first["seq"] == 0 and first["total_cost"] > 0
            second = await client.plan([["c", "d"]])
            assert second["seq"] == 1
            assert second["total_cost"] >= first["total_cost"]
            stats = await client.stats()
            await service.stop()
            return first, stats

        first, stats = run(scenario())
        assert stats["workload"]["batches"] == 2
        assert stats["requests"]["completed"] == 2
        assert stats["queue_capacity"] == 64
        assert stats["journal"]["appended"] == 2
        assert stats["requests"]["latency"]["total"]["count"] == 2
        assert len(first["state_digest"]) == 32
        bound = stats["lower_bound"]
        assert bound["components"] >= bound["bounded"] >= bound["certified"]
        assert bound["bounded"] > 0
        assert bound["cost"] == stats["workload"]["total_cost"]
        assert 0 < bound["value"] <= bound["cost"] * (1 + 1e-6)
        assert bound["cost_ratio"] == bound["cost"] / bound["value"]

    def test_queue_full_sheds_with_typed_error(self):
        async def scenario():
            service = PlannerService(plain_cost(), ServiceConfig(queue_depth=2))
            # No worker: the queue stays exactly as stuffed, so the shed
            # path is deterministic (admission is synchronous put_nowait).
            service._queue = asyncio.Queue(maxsize=2)
            loop = asyncio.get_running_loop()
            for i in range(2):
                service._queue.put_nowait(
                    _Pending(
                        f"stuffed{i}",
                        (frozenset({"a"}),),
                        deadline=None,
                        admitted_at=0.0,
                        future=loop.create_future(),
                    )
                )
            client = PlannerClient(service)
            with pytest.raises(QueueFullError):
                await client.plan(["a b"])
            return service.snapshot()

        stats = run(scenario())
        assert stats["requests"]["shed"] == 1
        assert stats["requests"]["admitted"] == 0

    def test_expired_requests_not_journaled(self, tmp_path):
        async def scenario():
            config = ServiceConfig(journal_path=str(tmp_path / "w.journal"))
            service = PlannerService(plain_cost(), config)
            await service.start()
            loop = asyncio.get_running_loop()
            pending = _Pending(
                "late",
                (frozenset({"a"}),),
                deadline=-1.0,
                admitted_at=0.0,
                future=loop.create_future(),
            )
            service._queue.put_nowait(pending)
            reply = await pending.future
            stats = service.snapshot()
            await service.stop()
            return reply, stats

        reply, stats = run(scenario())
        assert reply["error"]["code"] == "deadline-exceeded"
        assert stats["requests"]["expired_unapplied"] == 1
        assert read_journal(str(tmp_path / "w.journal")).records == ()

    def test_deadline_exceeded_is_typed_and_daemon_survives(self):
        async def scenario():
            chaos = ServiceChaos(plan={("post-journal", 0): "stall"}, stall_seconds=0.6)
            service = PlannerService(plain_cost(), ServiceConfig(), chaos=chaos)
            await service.start()
            client = PlannerClient(service)
            with pytest.raises(DeadlineExceededError):
                await client.plan(["a b"], deadline_seconds=0.1)
            # The daemon is alive and still serves (at-least-once: the
            # stalled batch applied even though its requester timed out).
            later = await client.plan([["c"]])
            stats = await client.stats()
            await service.stop()
            return later, stats

        later, stats = run(scenario())
        assert stats["requests"]["deadline_exceeded"] == 1
        assert stats["workload"]["batches"] == 2
        assert later["total_cost"] > 0

    def test_same_fingerprint_requests_coalesce(self):
        async def scenario():
            chaos = ServiceChaos(plan={("post-journal", 0): "stall"}, stall_seconds=0.4)
            service = PlannerService(
                plain_cost(), ServiceConfig(batch_window=8), chaos=chaos
            )
            await service.start()
            client = PlannerClient(service)
            blocker = asyncio.create_task(client.plan(["a"]))
            await asyncio.sleep(0.1)  # worker is now stalled on batch 0
            twin_a = asyncio.create_task(client.plan(["a b", "c"]))
            twin_b = asyncio.create_task(client.plan(["c", "b a"]))
            other = asyncio.create_task(client.plan([["d"]]))
            results = await asyncio.gather(blocker, twin_a, twin_b, other)
            stats = await client.stats()
            await service.stop()
            return results, stats

        (blocker, twin_a, twin_b, other), stats = run(scenario())
        # The twins denote identical component work → one journaled batch.
        assert twin_a["seq"] == twin_b["seq"]
        assert {twin_a["coalesced"], twin_b["coalesced"]} == {False, True}
        assert other["seq"] != twin_a["seq"]
        assert stats["requests"]["coalesced"] == 1
        assert stats["workload"]["batches"] == 3  # not 4

    def test_drain_rejects_new_work(self):
        async def scenario():
            service = PlannerService(plain_cost(), ServiceConfig())
            await service.start()
            client = PlannerClient(service)
            await client.plan(["a"])
            assert (await client.drain())["drained"] is True
            stats = await client.stats()
            with pytest.raises(ShuttingDownError):
                await client.plan(["b"])
            await service.stop()
            return stats

        stats = run(scenario())
        assert stats["draining"] is True

    def test_bad_query_spec_is_bad_request(self):
        async def scenario():
            service = PlannerService(plain_cost(), ServiceConfig())
            await service.start()
            client = PlannerClient(service)
            with pytest.raises(protocol.BadRequestError):
                await client.plan([""])
            await service.stop()

        run(scenario())

    def test_breaker_states_in_stats(self):
        async def scenario():
            service = PlannerService(plain_cost(), ServiceConfig())
            await service.start()
            service.breakers.record("greedy", ok=False)
            client = PlannerClient(service)
            stats = await client.stats()
            await service.stop()
            return stats

        stats = run(scenario())
        assert stats["breakers"]["greedy"]["consecutive_failures"] == 1


# ----------------------------------------------------------------------
# Crash recovery (in-process)
# ----------------------------------------------------------------------


class TestRecovery:
    def drive(self, tmp_path, batches, chaos=None, cost=None):
        async def scenario():
            config = ServiceConfig(journal_path=str(tmp_path / "w.journal"))
            service = PlannerService(cost or plain_cost(), config, chaos=chaos)
            await service.start()
            client = PlannerClient(service)
            for batch in batches:
                await client.plan(batch)
            digest = service.planner.state_digest()
            await service.stop()
            return digest

        return run(scenario())

    def test_restart_reproduces_state_bit_identically(self, tmp_path):
        live_digest = self.drive(
            tmp_path, [["a b", "c"], [["c", "d"]], ["b"]]
        )
        restarted = PlannerService(
            plain_cost(),
            ServiceConfig(journal_path=str(tmp_path / "w.journal")),
        )
        assert restarted.recover() == 3
        assert restarted.planner.state_digest() == live_digest
        restarted.journal.close()

    def test_recovery_with_damaged_tail_matches_reference(self, tmp_path):
        self.drive(tmp_path, [["a b"], ["c"], [["c", "d"]]])
        path = str(tmp_path / "w.journal")
        corrupt_journal_tail(path)
        recovered = read_journal(path)
        assert recovered.dropped_entries == 1
        assert len(recovered.records) == 3
        config = ServiceConfig(journal_path=path)
        reference = replay_reference(plain_cost(), config, recovered.records)
        restarted = PlannerService(plain_cost(), config)
        restarted.recover()
        assert restarted.planner.state_digest() == reference.state_digest()
        restarted.journal.close()

    def test_restart_skips_a_batch_whose_apply_raised(self, tmp_path):
        # mc3-k2 rejects a length-3 query after the batch is journaled.
        # The live daemon replies an error and keeps serving; a restart
        # must replay past that record instead of raising on it.
        path = str(tmp_path / "w.journal")
        config = ServiceConfig(
            solver_name="mc3-k2", journal_path=path, journal_fsync=False
        )

        async def scenario():
            service = PlannerService(UniformCost(1.0), config)
            await service.start()
            client = PlannerClient(service)
            await client.plan([["a", "b"]])
            with pytest.raises(protocol.InternalServiceError, match="ReductionError"):
                await client.plan([["a", "b", "c"]])
            await client.plan([["d"]])
            digest = service.planner.state_digest()
            await service.stop()
            return digest

        live_digest = run(scenario())
        records = read_journal(path).records
        assert len(records) == 3
        reference = replay_reference(UniformCost(1.0), config, records)
        restarted = PlannerService(UniformCost(1.0), config)
        assert restarted.recover() == 3
        assert restarted.planner.state_digest() == live_digest
        assert restarted.planner.state_digest() == reference.state_digest()
        restarted.journal.close()

    def test_recovered_daemon_keeps_planning(self, tmp_path):
        self.drive(tmp_path, [["a b"], ["c"]])

        async def scenario():
            config = ServiceConfig(journal_path=str(tmp_path / "w.journal"))
            service = PlannerService(plain_cost(), config)
            await service.start()
            client = PlannerClient(service)
            result = await client.plan([["c", "d"]])
            stats = await client.stats()
            await service.stop()
            return result, stats

        result, stats = run(scenario())
        assert stats["recovered_batches"] == 2
        assert result["seq"] == 2  # seq continues after the journal

    def test_service_chaos_schedule_is_deterministic(self):
        a = ServiceChaos(seed=4, kill_rate=0.3, stall_rate=0.3)
        b = ServiceChaos(seed=4, kill_rate=0.3, stall_rate=0.3)
        keys = [(seam, seq) for seam in SERVICE_SEAMS for seq in range(20)]
        assert [a.decision(*k) for k in keys] == [b.decision(*k) for k in keys]
        assert set(SERVICE_CHAOS_MODES) == {"kill", "stall"}

    def test_service_chaos_validation(self):
        with pytest.raises(SolverError):
            ServiceChaos(kill_rate=0.8, stall_rate=0.8)
        with pytest.raises(SolverError):
            ServiceChaos(plan={("mid-air", 0): "kill"})
        with pytest.raises(SolverError):
            ServiceChaos(plan={("pre-journal", 0): "meteor"})


# ----------------------------------------------------------------------
# The real thing: SIGKILL a daemon subprocess, assert recovery.
# ----------------------------------------------------------------------


class TestDrill:
    def test_sigkill_recovery_equivalence(self, tmp_path):
        from repro.service.drill import run_drill

        summary = run_drill(seed=5, workdir=str(tmp_path), kill_seq=1, batches=3)
        assert summary["ok"] is True
        assert summary["recovered_digest"] == summary["reference_digest"]
        assert summary["journaled_records"] == 2
        assert summary["dropped_tail_entries"] == 1

    def test_drill_workload_is_seed_deterministic(self):
        assert workload_batch(3, 0) == workload_batch(3, 0)
        assert workload_batch(3, 0) != workload_batch(4, 0)
        cost = drill_cost(3)
        config = drill_config("unused")
        assert config.default_deadline_seconds is None
        assert cost.cost(frozenset({"p1"})) == drill_cost(3).cost(
            frozenset({"p1"})
        )
