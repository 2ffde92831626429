"""Fault-tolerant component execution: budgets, fallback chains, policies.

One hung LP solve, one OOM-killed worker, or one ``SolverError`` in a
single component used to abort the whole engine run.  This module makes
the paper's implicit quality ladder (Algorithm 3 takes the better of
greedy and LP rounding, with primal–dual as the large-instance
fallback, Section 5) an explicit runtime mechanism:

* **budgets** — a per-attempt wall-clock ``timeout_seconds`` plus an
  optional count of immediate retries of the same rung;
* **fallback chains** — an ordered list of rungs; when an attempt
  fails (error, timeout, worker death, infeasible output) the next
  rung solves the *same* component.  Rungs are named entries of
  :data:`FALLBACK_RUNGS` (``"greedy"``, ``"sampled"``,
  ``"primal-dual"``, ``"k2-exact"``, ``"query-oriented"``) or any
  object satisfying the
  :class:`~repro.engine.component.SolvesComponents` contract;
* **worker-crash recovery** — a ``BrokenProcessPool`` re-runs the
  surviving in-flight tasks one at a time in isolated single-worker
  pools (so a second death is attributable), and the identified poison
  component is quarantined to the in-process sequential path;
* **an ``on_error`` policy** — ``"raise"`` (chain exhaustion raises
  :class:`~repro.exceptions.FallbackExhaustedError` with the full
  chain history), ``"degrade"`` (the component falls to the
  query-oriented rung of last resort, which is always feasible), or
  ``"skip"`` (the component's queries are left uncovered and recorded).

Every failed attempt becomes a :class:`ComponentFailure` carrying the
failed rung's name, the attempt number, and the worker's formatted
traceback; runs that degraded or skipped return a
:class:`PartialSolution` so callers can see exactly what they got.

Determinism contract: with a fixed chaos seed (see
:mod:`repro.devtools.chaos`) the sequence of (rung, attempt, failure
kind) per component — and therefore the final output — is bit-identical
across ``jobs=1`` and ``jobs=N``.  Timeout adjudication uses the
worker-measured solve time in both modes; the pool's preemptive
deadline only abandons attempts that overrun the budget plus a grace
margin, which a scheduled stall does deliberately.

:class:`~repro.exceptions.UncoverableQueryError` is *not* a fault: it
is a property of the data that no fallback rung can repair.  Under
``on_error="raise"`` it propagates unchanged; under ``"degrade"`` /
``"skip"`` the component is recorded as uncovered without burning the
rest of the chain.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.bitspace import PropertySpace
from repro.core.coverage import verify_cover
from repro.core.instance import MC3Instance
from repro.core.kernels.registry import use_backend
from repro.core.mincover import min_cover_from_model
from repro.core.properties import Classifier, Query
from repro.core.solution import Solution
from repro.engine.component import ComponentOutcome, SolvesComponents
from repro.engine.executors import ComponentTask, _solve_one, pool_context
from repro.engine.routing import solve_component_k2
from repro.exceptions import (
    FallbackExhaustedError,
    InfeasibleSolutionError,
    ReproError,
    SolverError,
    UncoverableQueryError,
)
from repro.reductions import mc3_to_wsc
from repro.setcover import derive_seed, greedy_wsc, primal_dual_wsc, sampled_greedy_wsc

# ----------------------------------------------------------------------
# Fallback rungs
# ----------------------------------------------------------------------


class GreedyWSCRung:
    """Greedy weighted set cover — the cheap, always-available ladder rung."""

    name = "greedy"

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)
        wsc_solution = greedy_wsc(wsc)
        return {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}, {
            "rung": self.name
        }


class SampledGreedyRung:
    """Sampling-based sub-linear greedy — the large-component rung.

    Useful ahead of ``greedy`` in a chain serving huge components: the
    sampled solve touches a fraction of the universe per round, so it
    finishes inside budgets the exact-gain greedy would blow.  Small
    components take its built-in exactness fallback, so the rung is
    safe anywhere in a chain.  The per-component seed is derived from
    the rung seed and the component's queries (content digest), keeping
    chain outputs bit-identical across ``jobs`` and hash seeds.
    """

    name = "sampled"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)
        wsc_solution = sampled_greedy_wsc(
            wsc, seed=derive_seed(self.seed, component.queries)
        )
        return {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}, {
            "rung": self.name
        }


class PrimalDualRung:
    """Primal–dual WSC — the paper's linear-time large-instance fallback."""

    name = "primal-dual"

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)
        wsc_solution = primal_dual_wsc(wsc)
        return {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}, {
            "rung": self.name
        }


class K2ExactRung:
    """Exact max-flow solve; only valid when every query has length ≤ 2.

    On longer queries the Theorem 4.1 reduction raises
    :class:`~repro.exceptions.ReductionError`, which the chain treats as
    a failed rung — so ``k2-exact`` can safely lead a chain that also
    serves general components.
    """

    name = "k2-exact"

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        return solve_component_k2(component)


class QueryOrientedRung:
    """Cover every query independently — always feasible, never optimal.

    This is the rung of last resort and the built-in ``degrade`` target:
    each query gets its own minimum-cost cover (the full-query
    classifier when it is the cheapest, per the paper's query-oriented
    baseline; a cheapest classifier combination otherwise — residual
    components routinely price the full-query classifier at infinity
    after preprocessing rewrites the queries).  Sharing across queries
    is ignored entirely, which is what makes the rung unconditional.
    """

    name = "query-oriented"

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        selected: Set[Classifier] = set()
        for q in component.queries:
            cover = min_cover_from_model(q, component)
            if cover is None:
                raise UncoverableQueryError(q)
            selected.update(cover.classifiers)
        return selected, {"rung": self.name}


#: Named rung registry for CLI/config declarations (``--fallback``).
FALLBACK_RUNGS = {
    "greedy": GreedyWSCRung,
    "sampled": SampledGreedyRung,
    "primal-dual": PrimalDualRung,
    "k2-exact": K2ExactRung,
    "query-oriented": QueryOrientedRung,
}


def resolve_rung(spec) -> SolvesComponents:
    """A rung instance from a registry name or a SolvesComponents object."""
    if isinstance(spec, str):
        try:
            return FALLBACK_RUNGS[spec]()
        except KeyError:
            known = ", ".join(sorted(FALLBACK_RUNGS))
            raise SolverError(
                f"unknown fallback rung {spec!r} (known: {known})"
            ) from None
    if callable(getattr(spec, "solve_component", None)):
        return spec
    raise SolverError(
        f"fallback rung {spec!r} is neither a registry name nor a "
        "SolvesComponents object"
    )


# ----------------------------------------------------------------------
# Failure records and the partial solution
# ----------------------------------------------------------------------

#: Failure kinds recorded per attempt.  ``"breaker-open"`` is
#: synthesized (no solve ran): the rung's circuit breaker skipped the
#: attempt and the chain advanced straight to the next rung.
FAILURE_KINDS = ("error", "timeout", "crash", "infeasible", "uncoverable", "breaker-open")


@dataclass(frozen=True)
class ComponentFailure:
    """One failed attempt at solving one component.

    ``rung`` names the chain rung that failed, ``attempt`` is the
    0-based retry counter within that rung, ``kind`` is one of
    :data:`FAILURE_KINDS`, and ``traceback`` preserves the worker's
    formatted traceback when one crossed the process boundary (worker
    deaths have no traceback to preserve; a synthesized message says
    so).
    """

    index: int
    rung: str
    attempt: int
    kind: str
    error_type: str
    message: str
    traceback: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "rung": self.rung,
            "attempt": self.attempt,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }


class PartialSolution(Solution):
    """A solution that survived component failures.

    Behaves exactly like :class:`~repro.core.solution.Solution` for the
    covered part of the load, and additionally records what went wrong:
    ``failures`` (every failed attempt, in order), ``uncovered_queries``
    (non-empty only under ``on_error="skip"`` or for uncoverable
    components), and the indices of components that were degraded to the
    last-resort rung or skipped entirely.  :meth:`verify` checks the
    covered sub-load against the independent coverage checker, so a
    degraded-but-complete run still verifies end to end.
    """

    __slots__ = (
        "failures",
        "uncovered_queries",
        "degraded_components",
        "skipped_components",
    )

    def __init__(
        self,
        classifiers: Iterable[Classifier],
        cost: float,
        failures: Sequence[ComponentFailure] = (),
        uncovered_queries: Iterable[Query] = (),
        degraded_components: Sequence[int] = (),
        skipped_components: Sequence[int] = (),
    ):
        super().__init__(classifiers, cost)
        self.failures: Tuple[ComponentFailure, ...] = tuple(failures)
        self.uncovered_queries: FrozenSet[Query] = frozenset(uncovered_queries)
        self.degraded_components: Tuple[int, ...] = tuple(degraded_components)
        self.skipped_components: Tuple[int, ...] = tuple(skipped_components)

    @property
    def complete(self) -> bool:
        """Whether every query of the original load is covered."""
        return not self.uncovered_queries

    def verify(self, instance) -> "PartialSolution":
        """Verify feasibility of the covered sub-load and the recorded cost."""
        covered = [q for q in instance.queries if q not in self.uncovered_queries]
        verify_cover(covered, self.classifiers)
        expected = instance.total_weight(self.classifiers)
        if not math.isclose(expected, self.cost, rel_tol=1e-9, abs_tol=1e-9):
            raise InfeasibleSolutionError(
                f"recorded cost {self.cost} != instance pricing {expected}"
            )
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartialSolution cost={self.cost} classifiers={len(self.classifiers)} "
            f"failures={len(self.failures)} uncovered={len(self.uncovered_queries)}>"
        )


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------

ON_ERROR_POLICIES = ("raise", "degrade", "skip")

#: Extra margin the pool scheduler grants on top of ``timeout_seconds``
#: before abandoning a still-running attempt.
TIMEOUT_GRACE_SECONDS = 0.25

#: How long the pool scheduler waits for a completion before it checks
#: in-flight attempts against their deadline again.
POLL_INTERVAL_SECONDS = 0.02


@dataclass
class ResiliencePolicy:
    """Budgets, fallback chain, and failure policy for one engine run.

    Parameters
    ----------
    timeout_seconds:
        Per-attempt wall-clock budget, adjudicated on the worker-measured
        solve time (identically in sequential and pool modes).  ``None``
        disables the budget.
    max_retries:
        Extra attempts of the *same* rung after a failure, run
        immediately.  Timeouts are never retried: a deterministic solver
        that overran once will overrun again.
    on_error:
        What chain exhaustion means: ``"raise"`` (default) raises
        :class:`~repro.exceptions.FallbackExhaustedError`; ``"degrade"``
        hands the component to the always-feasible query-oriented rung;
        ``"skip"`` records the component's queries as uncovered.
    fallback:
        Rungs tried, in order, after the primary solver fails — registry
        names (see :data:`FALLBACK_RUNGS`) or SolvesComponents objects.
    validate_covers:
        Independently check that each successful attempt actually covers
        its component; an infeasible answer (a buggy rung, an injected
        corruption) counts as a failed attempt instead of poisoning the
        merge.
    chaos:
        Optional fault injector (see
        :class:`repro.devtools.chaos.ChaosInjector`): anything with a
        ``wrap(rung, index, attempt)`` method.  Wraps every chain
        attempt; the degrade-of-last-resort runs unwrapped so the
        safety net itself stays deterministic.
    breakers:
        Optional per-rung circuit-breaker board (see
        :class:`repro.service.breaker.BreakerBoard` — duck-typed as
        ``allow(rung_name) -> bool`` / ``record(rung_name, ok)`` so the
        engine layer never imports the service).  When a rung's circuit
        is open, its attempts are skipped with a synthesized
        ``"breaker-open"`` failure and the chain falls through to the
        next rung immediately; every attempt outcome (success or
        failure) is reported back to the board.  The board outlives
        individual runs — rung health accumulates across requests.
    """

    timeout_seconds: Optional[float] = None
    max_retries: int = 0
    on_error: str = "raise"
    fallback: Sequence[object] = ()
    validate_covers: bool = True
    chaos: Optional[object] = None
    breakers: Optional[object] = None

    def __post_init__(self):
        if self.on_error not in ON_ERROR_POLICIES:
            raise SolverError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {self.on_error!r}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise SolverError("timeout_seconds must be positive (or None)")
        if self.max_retries < 0:
            raise SolverError("max_retries must be >= 0")
        self.fallback = tuple(self.fallback)

    def chain_for(self, primary: SolvesComponents) -> List[SolvesComponents]:
        """The full rung chain for one component: primary, then fallbacks."""
        return [primary] + [resolve_rung(entry) for entry in self.fallback]


# ----------------------------------------------------------------------
# Run report
# ----------------------------------------------------------------------


class ResilienceReport:
    """Counters and records accumulated over one resilient dispatch."""

    __slots__ = (
        "failures",
        "retries",
        "fallbacks",
        "degraded",
        "skipped",
        "quarantined",
        "uncovered_queries",
        "pool_rebuilds",
        "abandoned_attempts",
        "kind_counts",
    )

    def __init__(self):
        self.failures: List[ComponentFailure] = []
        self.retries = 0
        self.fallbacks = 0
        self.degraded: List[int] = []
        self.skipped: List[int] = []
        self.quarantined: List[int] = []
        self.uncovered_queries: Set[Query] = set()
        self.pool_rebuilds = 0
        self.abandoned_attempts = 0
        self.kind_counts: Dict[str, int] = {}

    @property
    def clean(self) -> bool:
        return not self.failures and not self.degraded and not self.skipped

    def record(self, failure: ComponentFailure) -> None:
        self.failures.append(failure)
        self.kind_counts[failure.kind] = self.kind_counts.get(failure.kind, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "failures": len(self.failures),
            "failure_kinds": dict(self.kind_counts),
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "degraded_components": sorted(self.degraded),
            "skipped_components": sorted(self.skipped),
            "quarantined_components": sorted(self.quarantined),
            "uncovered_queries": len(self.uncovered_queries),
            "pool_rebuilds": self.pool_rebuilds,
            "abandoned_attempts": self.abandoned_attempts,
            "failure_records": [f.as_dict() for f in self.failures],
        }


# ----------------------------------------------------------------------
# Chain state machine (shared by the sequential and pool paths)
# ----------------------------------------------------------------------


class _ChainState:
    """Where one component currently stands on its fallback chain."""

    __slots__ = (
        "index",
        "component",
        "route",
        "backend",
        "chain",
        "pos",
        "attempt",
        "failures",
        "quarantined",
    )

    def __init__(self, task: ComponentTask, policy: ResiliencePolicy):
        self.index, primary, self.component, self.route, self.backend = task
        self.chain = policy.chain_for(primary)
        self.pos = 0
        self.attempt = 0
        self.failures: List[ComponentFailure] = []
        self.quarantined = False

    @property
    def rung(self) -> SolvesComponents:
        return self.chain[self.pos]

    @property
    def total_attempts(self) -> int:
        return len(self.failures) + 1

    def attempt_solver(self, policy: ResiliencePolicy) -> SolvesComponents:
        if policy.chaos is not None:
            return policy.chaos.wrap(self.rung, self.index, self.attempt)
        return self.rung

    def attempt_task(self, policy: ResiliencePolicy) -> ComponentTask:
        return (
            self.index,
            self.attempt_solver(policy),
            self.component,
            self.route,
            self.backend,
        )

    def failure(
        self,
        kind: str,
        error_type: str,
        message: str,
        traceback_text: str = "",
    ) -> ComponentFailure:
        return ComponentFailure(
            index=self.index,
            rung=self.rung.name,
            attempt=self.attempt,
            kind=kind,
            error_type=error_type,
            message=message,
            traceback=traceback_text,
        )


def _kind_of(exc: BaseException) -> str:
    if isinstance(exc, UncoverableQueryError):
        return "uncoverable"
    if getattr(exc, "simulates_worker_crash", False):
        return "crash"
    return "error"


def _failure_from_exception(state: _ChainState, exc: BaseException) -> ComponentFailure:
    return state.failure(
        kind=_kind_of(exc),
        error_type=type(exc).__name__,
        message=str(exc),
        traceback_text=getattr(exc, "worker_traceback", ""),
    )


def _advance(
    state: _ChainState,
    failure: ComponentFailure,
    policy: ResiliencePolicy,
    report: ResilienceReport,
) -> str:
    """Record ``failure`` and move the chain; returns the next action:
    ``"retry"`` | ``"fallback"`` | ``"exhausted"``."""
    state.failures.append(failure)
    report.record(failure)
    if failure.kind == "uncoverable":
        # A data property, not a fault: no rung can repair it (and the
        # breaker board never hears about it — the rung is healthy).
        return "exhausted"
    if policy.breakers is not None and failure.kind != "breaker-open":
        policy.breakers.record(state.rung.name, False)
    # A skipped-by-breaker attempt never retries: no solve ran, so a
    # retry of the same rung would just be skipped again.
    retryable = failure.kind not in ("breaker-open", "timeout")
    if retryable and state.attempt < policy.max_retries:
        state.attempt += 1
        report.retries += 1
        return "retry"
    if state.pos + 1 < len(state.chain):
        state.pos += 1
        state.attempt = 0
        report.fallbacks += 1
        return "fallback"
    return "exhausted"


def _resolution_details(state: _ChainState, rung_name: str) -> Dict[str, object]:
    return {
        "rung": rung_name,
        "attempts": state.total_attempts,
        "failed_rungs": [f.rung for f in state.failures],
    }


def _exhausted_outcome(
    state: _ChainState, policy: ResiliencePolicy, report: ResilienceReport
) -> ComponentOutcome:
    """Apply the on_error policy to a chain that ran dry."""
    uncoverable = any(f.kind == "uncoverable" for f in state.failures)
    if policy.on_error == "raise":
        if uncoverable:
            raise UncoverableQueryError(
                next(iter(state.component.queries)),
                f"component {state.index}: {state.failures[-1].message}",
            )
        raise FallbackExhaustedError(state.index, state.failures)
    if policy.on_error == "degrade" and not uncoverable:
        # The safety net runs unwrapped (no chaos) and untimed: it is
        # the deterministic floor the degrade contract promises.
        rung = QueryOrientedRung()
        started = time.perf_counter()
        with use_backend(state.backend):
            classifiers, details = rung.solve_component(state.component)
        seconds = time.perf_counter() - started
        report.degraded.append(state.index)
        details = dict(details)
        details["resilience"] = _resolution_details(state, "degraded")
        return ComponentOutcome(
            state.index,
            frozenset(classifiers),
            details,
            seconds,
            state.component.n,
            state.route,
            rung="degraded",
            attempts=state.total_attempts,
        )
    # "skip" — and "degrade" of a genuinely uncoverable component, which
    # even the last-resort rung cannot cover.
    report.skipped.append(state.index)
    report.uncovered_queries.update(state.component.queries)
    details: Dict[str, object] = {"resilience": _resolution_details(state, "skipped")}
    return ComponentOutcome(
        state.index,
        frozenset(),
        details,
        0.0,
        state.component.n,
        state.route,
        rung="skipped",
        attempts=state.total_attempts,
    )


def _breaker_gate(
    state: _ChainState, policy: ResiliencePolicy, report: ResilienceReport
) -> Optional[ComponentOutcome]:
    """Skip chain rungs whose circuit is open before attempting them.

    Walks the chain past every rung the breaker board refuses (each
    skip is a synthesized ``"breaker-open"`` failure, so the chain
    history stays complete); returns the exhausted outcome when the
    whole remaining chain is gated off, else ``None`` (the current
    rung may run).  With no board configured this is a no-op.
    """
    if policy.breakers is None:
        return None
    while not policy.breakers.allow(state.rung.name):
        failure = state.failure(
            kind="breaker-open",
            error_type="CircuitBreakerOpen",
            message=f"rung {state.rung.name!r} skipped: circuit breaker is open",
        )
        if _advance(state, failure, policy, report) == "exhausted":
            return _exhausted_outcome(state, policy, report)
    return None


def _success_outcome(
    state: _ChainState,
    classifiers: FrozenSet[Classifier],
    details: Dict[str, object],
    seconds: float,
    policy: ResiliencePolicy,
) -> ComponentOutcome:
    if policy.breakers is not None:
        policy.breakers.record(state.rung.name, True)
    if state.failures:
        details = dict(details)
        details["resilience"] = _resolution_details(state, state.rung.name)
    return ComponentOutcome(
        state.index,
        classifiers,
        details,
        seconds,
        state.component.n,
        state.route,
        rung=state.rung.name,
        attempts=state.total_attempts,
    )


def _adjudicate(
    state: _ChainState,
    classifiers: FrozenSet[Classifier],
    details: Dict[str, object],
    seconds: float,
    policy: ResiliencePolicy,
) -> Optional[ComponentFailure]:
    """Post-hoc checks on a completed attempt: budget, then feasibility.

    Returns a failure record when the attempt must be rejected, else
    ``None``.  Uses the worker-measured solve time so sequential and
    pool runs adjudicate identically.
    """
    if policy.timeout_seconds is not None and seconds > policy.timeout_seconds:
        return state.failure(
            kind="timeout",
            error_type="TimeoutError",
            message=(
                f"attempt took {seconds:.3f}s, budget is "
                f"{policy.timeout_seconds:.3f}s"
            ),
        )
    if policy.validate_covers:
        try:
            verify_cover(state.component.queries, classifiers)
        except InfeasibleSolutionError as exc:
            return state.failure(
                kind="infeasible",
                error_type=type(exc).__name__,
                message=str(exc),
            )
    return None


# ----------------------------------------------------------------------
# Sequential resilient execution
# ----------------------------------------------------------------------


def _solve_chain_inprocess(
    state: _ChainState, policy: ResiliencePolicy, report: ResilienceReport
) -> ComponentOutcome:
    """Walk one component's chain to completion in the calling process."""
    while True:
        gated = _breaker_gate(state, policy, report)
        if gated is not None:
            return gated
        try:
            _, classifiers, details, seconds, _, _ = _solve_one(
                state.attempt_task(policy)
            )
        except (ReproError, MemoryError, RecursionError) as exc:
            failure = _failure_from_exception(state, exc)
            action = _advance(state, failure, policy, report)
            if action == "exhausted":
                return _exhausted_outcome(state, policy, report)
            continue
        rejected = _adjudicate(state, classifiers, details, seconds, policy)
        if rejected is None:
            return _success_outcome(state, classifiers, details, seconds, policy)
        action = _advance(state, rejected, policy, report)
        if action == "exhausted":
            return _exhausted_outcome(state, policy, report)


def _run_sequential_resilient(
    tasks: List[ComponentTask], policy: ResiliencePolicy, report: ResilienceReport
) -> List[ComponentOutcome]:
    return [
        _solve_chain_inprocess(_ChainState(task, policy), policy, report)
        for task in tasks
    ]


# ----------------------------------------------------------------------
# Pool resilient execution
# ----------------------------------------------------------------------


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, mp_context=pool_context())


def _crash_failure(state: _ChainState) -> ComponentFailure:
    return state.failure(
        kind="crash",
        error_type="BrokenProcessPool",
        message=(
            "worker process died while solving this component "
            "(no traceback survives a worker death)"
        ),
    )


def _rerun_isolated(
    state: _ChainState,
    policy: ResiliencePolicy,
    report: ResilienceReport,
    outcomes: Dict[int, ComponentOutcome],
    requeue: deque,
) -> None:
    """Re-run one interrupted attempt in its own single-worker pool.

    The attempt keeps its (rung, attempt) key, so a deterministic fault
    recurs here and is now unambiguously attributable to this component;
    an innocent bystander of someone else's crash simply completes.  A
    recurring death quarantines the component: every later rung of its
    chain runs on the in-process sequential path, where it cannot take
    workers down with it.
    """
    deadline = None
    if policy.timeout_seconds is not None:
        deadline = policy.timeout_seconds + TIMEOUT_GRACE_SECONDS
    # No ``with`` block: context exit would wait for the worker, and the
    # abandonment path must *not* wait for a stalled attempt.
    mini = ProcessPoolExecutor(max_workers=1, mp_context=pool_context())
    try:
        future = mini.submit(_solve_one, state.attempt_task(policy))
        try:
            _, classifiers, details, seconds, _, _ = future.result(timeout=deadline)
        except BrokenProcessPool:
            # The lone worker is dead, so waiting is safe — and joining
            # the manager thread here keeps its wakeup pipe from being
            # poked by CPython's atexit hook after it is closed.
            mini.shutdown(wait=True)
            report.quarantined.append(state.index)
            state.quarantined = True
            action = _advance(state, _crash_failure(state), policy, report)
            if action == "exhausted":
                outcomes[state.index] = _exhausted_outcome(state, policy, report)
            else:
                outcomes[state.index] = _solve_chain_inprocess(state, policy, report)
            return
        except FuturesTimeoutError:
            report.abandoned_attempts += 1
            failure = state.failure(
                kind="timeout",
                error_type="TimeoutError",
                message=(
                    f"attempt abandoned after {deadline:.3f}s "
                    "(isolated worker still running)"
                ),
            )
            action = _advance(state, failure, policy, report)
            if action == "exhausted":
                outcomes[state.index] = _exhausted_outcome(state, policy, report)
            else:
                requeue.append(state)
            return
        except (ReproError, MemoryError, RecursionError) as exc:
            action = _advance(state, _failure_from_exception(state, exc), policy, report)
            if action == "exhausted":
                outcomes[state.index] = _exhausted_outcome(state, policy, report)
            else:
                requeue.append(state)
            return
    finally:
        mini.shutdown(wait=False)
    rejected = _adjudicate(state, classifiers, details, seconds, policy)
    if rejected is None:
        outcomes[state.index] = _success_outcome(
            state, classifiers, details, seconds, policy
        )
        return
    action = _advance(state, rejected, policy, report)
    if action == "exhausted":
        outcomes[state.index] = _exhausted_outcome(state, policy, report)
    else:
        requeue.append(state)


def _run_pool_resilient(
    tasks: List[ComponentTask],
    jobs: int,
    policy: ResiliencePolicy,
    report: ResilienceReport,
) -> List[ComponentOutcome]:
    workers = max(1, min(jobs, len(tasks)))
    outcomes: Dict[int, ComponentOutcome] = {}
    queue = deque(_ChainState(task, policy) for task in tasks)
    pool = _new_pool(workers)
    active: Dict[object, _ChainState] = {}
    submit_times: Dict[object, float] = {}
    abandoned: Set[object] = set()

    def handle_action(state: _ChainState, action: str) -> None:
        if action == "exhausted":
            outcomes[state.index] = _exhausted_outcome(state, policy, report)
        else:
            queue.append(state)

    try:
        while queue or active:
            done = {f for f in abandoned if f.done()}  # reprolint: ignore[RPL101] set difference commutes
            abandoned.difference_update(done)
            # Submit while a worker slot is free (abandoned-but-running
            # attempts still occupy their worker until they finish).
            progressed = False
            for _ in range(len(queue)):
                if len(active) + len(abandoned) >= workers:
                    break
                state = queue.popleft()
                if state.quarantined:
                    outcomes[state.index] = _solve_chain_inprocess(
                        state, policy, report
                    )
                    progressed = True
                    continue
                gated = _breaker_gate(state, policy, report)
                if gated is not None:
                    outcomes[state.index] = gated
                    progressed = True
                    continue
                future = pool.submit(_solve_one, state.attempt_task(policy))
                active[future] = state
                submit_times[future] = time.monotonic()
                progressed = True
            if not active:
                if queue and not progressed and abandoned:
                    # Every slot is held by an abandoned attempt:
                    # replace the pool so progress can resume.
                    pool.shutdown(wait=False)
                    pool = _new_pool(workers)
                    abandoned.clear()
                    report.pool_rebuilds += 1
                continue
            done, _ = wait(set(active), timeout=POLL_INTERVAL_SECONDS,
                           return_when=FIRST_COMPLETED)
            survivors: List[_ChainState] = []
            for future in done:
                state = active.pop(future)
                submit_times.pop(future, None)
                try:
                    _, classifiers, details, seconds, _, _ = future.result()
                except BrokenProcessPool:
                    survivors.append(state)
                    continue
                except (ReproError, MemoryError, RecursionError) as exc:
                    handle_action(
                        state, _advance(state, _failure_from_exception(state, exc),
                                        policy, report)
                    )
                    continue
                rejected = _adjudicate(state, classifiers, details, seconds, policy)
                if rejected is None:
                    outcomes[state.index] = _success_outcome(
                        state, classifiers, details, seconds, policy
                    )
                else:
                    handle_action(state, _advance(state, rejected, policy, report))
            if survivors:
                # The pool is broken: every in-flight attempt died with
                # it.  Re-run each survivor in isolation (attributable),
                # then continue on a fresh pool.
                survivors.extend(active.values())
                active.clear()
                submit_times.clear()
                abandoned.clear()
                # Broken pool: every worker is already dead, so waiting
                # is safe and lets the manager thread close its wakeup
                # pipe before CPython's atexit hook tries to use it.
                pool.shutdown(wait=True)
                pool = _new_pool(workers)
                report.pool_rebuilds += 1
                for state in sorted(survivors, key=lambda s: s.index):
                    _rerun_isolated(state, policy, report, outcomes, queue)
                continue
            if policy.timeout_seconds is not None:
                limit = policy.timeout_seconds + TIMEOUT_GRACE_SECONDS
                now = time.monotonic()
                for future, state in list(active.items()):
                    if now - submit_times.get(future, now) <= limit:
                        continue
                    # The worker is still running well past the budget:
                    # abandon the attempt (the result, if it ever comes,
                    # is discarded) and move the chain along.
                    active.pop(future)
                    submit_times.pop(future, None)
                    abandoned.add(future)
                    report.abandoned_attempts += 1
                    failure = state.failure(
                        kind="timeout",
                        error_type="TimeoutError",
                        message=(
                            f"attempt abandoned after {limit:.3f}s "
                            "(worker still running)"
                        ),
                    )
                    handle_action(state, _advance(state, failure, policy, report))
    finally:
        pool.shutdown(wait=False)
    return [outcomes[index] for index in sorted(outcomes)]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_components_resilient(
    tasks: List[ComponentTask],
    jobs: int,
    policy: ResiliencePolicy,
) -> Tuple[List[ComponentOutcome], ResilienceReport]:
    """Dispatch ``tasks`` under ``policy``; returns outcomes in index
    order plus the accumulated :class:`ResilienceReport`.

    Mirrors :func:`repro.engine.executors.run_components`' strategy
    choice: fewer than two tasks, or ``jobs <= 1``, run in-process.
    """
    report = ResilienceReport()
    if jobs <= 1 or len(tasks) < 2:
        outcomes = _run_sequential_resilient(tasks, policy, report)
    else:
        outcomes = _run_pool_resilient(tasks, jobs, policy, report)
    return outcomes, report
