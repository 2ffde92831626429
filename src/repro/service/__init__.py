"""Planner-as-a-service: a crash-safe asyncio daemon over the engine.

The service layer wraps :class:`~repro.extensions.incremental.IncrementalPlanner`
with the operational contract a long-lived planner needs:

* :mod:`repro.service.protocol` — JSON-lines wire format and the typed
  error taxonomy (``queue-full``, ``deadline-exceeded``, …);
* :mod:`repro.service.journal` — append-only, fsync'd, checksummed
  write-ahead workload journal and its deterministic tail recovery;
* :mod:`repro.service.breaker` — per-rung circuit breakers with a
  deterministic half-open probe schedule;
* :mod:`repro.service.daemon` — the daemon itself: bounded admission,
  fingerprint-coalesced batching, deadline→budget mapping, graceful
  drain, journaled recovery;
* :mod:`repro.service.drill` — the chaos drill that SIGKILLs a live
  daemon and asserts recovery equivalence (used by CI).

See ``docs/robustness.md`` ("Planner service") for the full contract.
"""

from repro.service.breaker import BreakerBoard, CircuitBreaker
from repro.service.daemon import (
    PlannerClient,
    PlannerService,
    ServiceConfig,
    ServiceConfigError,
    replay_reference,
)
from repro.service.journal import JournalError, WorkloadJournal, read_journal
from repro.service.protocol import (
    BadRequestError,
    DeadlineExceededError,
    InternalServiceError,
    PlannerServiceError,
    QueueFullError,
    ShuttingDownError,
)

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "PlannerClient",
    "PlannerService",
    "ServiceConfig",
    "ServiceConfigError",
    "replay_reference",
    "JournalError",
    "WorkloadJournal",
    "read_journal",
    "PlannerServiceError",
    "BadRequestError",
    "QueueFullError",
    "DeadlineExceededError",
    "ShuttingDownError",
    "InternalServiceError",
]
