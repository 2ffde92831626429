"""Per-rung circuit breakers layered on the resilience fallback chains.

A fallback chain already survives a broken rung — but it survives it
*every time*, burning the rung's full retry budget on every
component while the rung keeps failing.  A circuit breaker remembers:
after ``threshold`` consecutive failures the rung's circuit opens and
subsequent attempts skip it instantly (the chain advances to the next
rung with a synthesized ``"breaker-open"`` failure, spending no solve
time).

Recovery is probed deterministically: while a circuit is open, every
``probe_interval``-th skipped attempt is let through as a half-open
probe.  A successful probe closes the circuit; a failed probe re-opens
it and restarts the skip count.  The schedule is counter-based — *not*
wall-clock-based — so a replayed workload drives the breaker through
the identical state sequence regardless of timing (the determinism
contract the rest of the engine lives by).

State machine per rung::

    CLOSED --[threshold consecutive failures]--> OPEN
    OPEN   --[every probe_interval-th attempt]--> HALF-OPEN (probe runs)
    HALF-OPEN --[probe succeeds]--> CLOSED
    HALF-OPEN --[probe fails]-----> OPEN (skip count restarts)

The engine talks to a :class:`BreakerBoard` through two duck-typed
methods (``allow(rung_name)`` / ``record(rung_name, ok)``) on
:attr:`repro.engine.resilience.ResiliencePolicy.breakers`, so the
engine layer never imports this module.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.exceptions import SolverError

#: Reported breaker states.
BREAKER_STATES = ("closed", "open", "half-open")


class CircuitBreaker:
    """Failure-counting breaker for one rung.  Not thread-safe on its
    own — :class:`BreakerBoard` serializes access."""

    __slots__ = (
        "threshold",
        "probe_interval",
        "_open",
        "_probing",
        "consecutive_failures",
        "skip_count",
        "trips",
        "probes",
        "successes",
        "failures",
        "skips",
    )

    def __init__(self, threshold: int = 3, probe_interval: int = 4):
        if threshold < 1:
            raise SolverError("breaker threshold must be >= 1")
        if probe_interval < 1:
            raise SolverError("breaker probe_interval must be >= 1")
        self.threshold = threshold
        self.probe_interval = probe_interval
        self._open = False
        self._probing = False
        self.consecutive_failures = 0
        self.skip_count = 0
        self.trips = 0
        self.probes = 0
        self.successes = 0
        self.failures = 0
        self.skips = 0

    @property
    def state(self) -> str:
        if not self._open:
            return "closed"
        return "half-open" if self._probing else "open"

    def allow(self) -> bool:
        """May the next attempt of this rung run?

        Closed: always.  Open: skipped, except that every
        ``probe_interval``-th skipped attempt runs as the half-open
        probe.  Deterministic: depends only on the call sequence.
        """
        if not self._open:
            return True
        if self._probing:
            # A probe is already in flight (e.g. another component's
            # attempt); don't pile more attempts onto a suspect rung.
            self.skips += 1
            return False
        self.skip_count += 1
        if self.skip_count % self.probe_interval == 0:
            self._probing = True
            self.probes += 1
            return True
        self.skips += 1
        return False

    def record(self, ok: bool) -> None:
        """Feed one attempt outcome back into the state machine."""
        if ok:
            self.successes += 1
        else:
            self.failures += 1
        if self._open:
            if not self._probing:
                # Outcome of an attempt admitted before the trip —
                # stale evidence; the probe schedule decides recovery.
                return
            self._probing = False
            if ok:
                self._open = False
                self.consecutive_failures = 0
                self.skip_count = 0
            else:
                self.skip_count = 0  # restart the probe countdown
            return
        if ok:
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold:
            self._open = True
            self._probing = False
            self.trips += 1
            self.skip_count = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "threshold": self.threshold,
            "probe_interval": self.probe_interval,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
            "probes": self.probes,
            "skips": self.skips,
            "successes": self.successes,
            "failures": self.failures,
        }


class BreakerBoard:
    """Thread-safe registry of one :class:`CircuitBreaker` per rung name.

    This is the object handed to
    :attr:`~repro.engine.resilience.ResiliencePolicy.breakers`; it
    outlives individual engine runs, which is the whole point — rung
    health is *daemon* state, accumulated across requests.
    """

    def __init__(self, threshold: int = 3, probe_interval: int = 4):
        self.threshold = threshold
        self.probe_interval = probe_interval
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def _breaker(self, rung_name: str) -> CircuitBreaker:
        breaker = self._breakers.get(rung_name)
        if breaker is None:
            breaker = CircuitBreaker(self.threshold, self.probe_interval)
            self._breakers[rung_name] = breaker
        return breaker

    def allow(self, rung_name: str) -> bool:
        with self._lock:
            return self._breaker(rung_name).allow()

    def record(self, rung_name: str, ok: bool) -> None:
        with self._lock:
            self._breaker(rung_name).record(ok)

    def states(self) -> Dict[str, Dict[str, object]]:
        """Per-rung breaker snapshots, rung names sorted."""
        with self._lock:
            return {
                name: self._breakers[name].as_dict()
                for name in sorted(self._breakers)
            }

    def reset(self) -> None:
        with self._lock:
            self._breakers.clear()
