"""Component execution: the one executor, with budgets and fallback chains.

The paper solves each property-disjoint component independently
(Observation 3.2); :func:`run_components` is the executor every engine
run goes through.  It takes ``(index, solver, component, route,
backend)`` tasks and returns :class:`ComponentOutcome` objects *in
index order* regardless of completion order, which is what makes
``jobs=N`` output bit-identical to ``jobs=1``.  Around each component
solve it runs the paper's implicit quality ladder (Algorithm 3 takes
the better of greedy and LP rounding, with primal–dual as the
large-instance fallback, Section 5) as an explicit runtime mechanism:

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

Every successful attempt is checked for coverage of its component; an
infeasible answer counts as a failed attempt instead of poisoning the
merge.  Every failed attempt becomes a :class:`ComponentFailure`
carrying the failed rung's name, the attempt number, and the worker's
formatted traceback; runs that degraded or skipped return a
:class:`PartialSolution` so callers can see exactly what they got.

The default :class:`ResiliencePolicy` — no budget, no retries, no
fallback rungs, ``on_error="raise"`` — re-raises the solver's own
exception with its original type, annotated with the failing
component's index (``exc.component_index``) and the worker's formatted
traceback (``exc.worker_traceback``; the remote traceback object does
not survive pickling, so the worker captures it as a string).  An
infeasible answer raises the coverage checker's
:class:`~repro.exceptions.InfeasibleSolutionError`.

:class:`~repro.exceptions.UncoverableQueryError` is *not* a fault: it
is a property of the data that no fallback rung can repair.  Under
``on_error="raise"`` it propagates unchanged, ``.query`` included;
under ``"degrade"`` / ``"skip"`` the component is recorded as
uncovered without burning the rest of the chain.

Determinism contract: with a fixed chaos seed (see
:mod:`repro.devtools.chaos`) the sequence of (rung, attempt, failure
kind) per component — and therefore the final output — is bit-identical
across ``jobs=1`` and ``jobs=N``.  Timeout adjudication uses the
worker-measured solve time in both modes; the pool's preemptive
deadline only abandons attempts that overrun the budget plus a grace
margin, which a scheduled stall does deliberately.

Process-pool notes: workers receive pickled ``(solver, component)``
pairs.  Every shipped cost model in :mod:`repro.core.costs` pickles
cleanly; ``CallableCost`` around a lambda does not (use a module-level
function).  Pools are built on :func:`pool_context`.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
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

#: One unit of work: (component index, solver-like, component, route name,
#: kernel backend name).  The backend is resolved by the scheduler, so a
#: worker process activates the same concrete backend the parent chose.
ComponentTask = Tuple[int, SolvesComponents, MC3Instance, Optional[str], Optional[str]]

#: What a completed attempt returns: (classifiers, details, solve seconds).
AttemptResult = Tuple[FrozenSet[Classifier], Dict[str, object], float]


def pool_context():
    """The multiprocessing context engine pools are built on.

    Explicitly ``fork`` where available (POSIX): forked workers inherit
    the parent's hash seed, so hash-order-sensitive iteration cannot
    diverge between sequential and pooled runs (under ``spawn`` each
    worker re-randomises ``PYTHONHASHSEED``).  Returns ``None`` (the
    platform default) only where fork does not exist, e.g. Windows;
    determinism then rests on the kernels being hash-order clean, which
    reprolint RPL101/RPL102 enforce.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _solve_one(task: ComponentTask) -> AttemptResult:
    """Worker: solve one component, timed.  Module-level for pickling."""
    index, solver, component, _route, backend = task
    started = time.perf_counter()
    try:
        with use_backend(backend):
            classifiers, details = solver.solve_component(component)
    except ReproError as exc:
        # Annotate in the worker, where the real traceback still exists.
        # Instance attributes survive pickling via the exception's state
        # dict, so the parent sees which component failed and why.
        exc.component_index = index
        exc.worker_traceback = traceback.format_exc()
        raise
    return frozenset(classifiers), details, time.perf_counter() - started


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

    The defaults — no budget, no retries, no fallback rungs,
    ``on_error="raise"`` — are what every run without an explicit policy
    uses: a failed component re-raises its solver's own exception.

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
        :class:`~repro.exceptions.FallbackExhaustedError` (or, for a
        chain of one rung, the failed attempt's own exception);
        ``"degrade"``
        hands the component to the always-feasible query-oriented rung;
        ``"skip"`` records the component's queries as uncovered.
    fallback:
        Rungs tried, in order, after the primary solver fails — registry
        names (see :data:`FALLBACK_RUNGS`) or SolvesComponents objects.
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
    """Counters and records accumulated over one dispatch."""

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
# Chain state machine (shared by the in-process and pool paths)
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
    if isinstance(exc, InfeasibleSolutionError):
        return "infeasible"
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
) -> bool:
    """Record ``failure`` and move the chain to its next attempt (a
    retry of the same rung, else the next rung); ``False`` when the
    chain is exhausted."""
    state.failures.append(failure)
    report.record(failure)
    if failure.kind == "uncoverable":
        # A data property, not a fault: no rung can repair it (and the
        # breaker board never hears about it — the rung is healthy).
        return False
    if policy.breakers is not None and failure.kind != "breaker-open":
        policy.breakers.record(state.rung.name, False)
    # A skipped-by-breaker attempt never retries: no solve ran, so a
    # retry of the same rung would just be skipped again.
    retryable = failure.kind not in ("breaker-open", "timeout")
    if retryable and state.attempt < policy.max_retries:
        state.attempt += 1
        report.retries += 1
        return True
    if state.pos + 1 < len(state.chain):
        state.pos += 1
        state.attempt = 0
        report.fallbacks += 1
        return True
    return False


def _resolution_details(state: _ChainState, rung_name: str) -> Dict[str, object]:
    return {
        "rung": rung_name,
        "attempts": state.total_attempts,
        "failed_rungs": [f.rung for f in state.failures],
    }


def _exhausted_outcome(
    state: _ChainState,
    policy: ResiliencePolicy,
    report: ResilienceReport,
    exc: Optional[BaseException],
) -> ComponentOutcome:
    """Apply the on_error policy to a chain that ran dry; ``exc`` is the
    last attempt's exception, when it raised one."""
    uncoverable = isinstance(exc, UncoverableQueryError)
    if policy.on_error == "raise":
        # A one-rung chain has no history worth wrapping: the caller
        # gets the solver's own exception, as if no executor stood
        # between them.  Uncoverable data is never a chain failure.
        if exc is not None and (uncoverable or len(state.chain) == 1):
            raise exc
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
        outcome = _settle(state, policy, report, failure)
        if outcome is not None:
            return outcome
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


def _rejection(
    state: _ChainState,
    classifiers: FrozenSet[Classifier],
    seconds: float,
    policy: ResiliencePolicy,
) -> object:
    """Why a completed attempt must be rejected, or ``None``.

    Budget first — a timeout record, adjudicated on the worker-measured
    solve time so sequential and pool runs agree — then feasibility:
    the coverage checker's error when a query is left uncovered (a
    buggy rung, an injected corruption).
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
    try:
        verify_cover(state.component.queries, classifiers)
    except InfeasibleSolutionError as exc:
        return exc
    return None


def _settle(
    state: _ChainState,
    policy: ResiliencePolicy,
    report: ResilienceReport,
    attempt: object,
) -> Optional[ComponentOutcome]:
    """Settle one finished attempt: accept it, retry the rung, move to
    the next rung, or apply ``on_error`` to the exhausted chain.

    ``attempt`` is what the attempt produced: an :data:`AttemptResult`,
    the exception it raised, or a synthesized :class:`ComponentFailure`
    (timeout, worker death, open breaker).  Returns the component's
    final outcome, or ``None`` when it must be attempted again —
    ``state`` then already names the rung and attempt to run.
    """
    if isinstance(attempt, tuple):
        classifiers, details, seconds = attempt
        rejection = _rejection(state, classifiers, seconds, policy)
        if rejection is None:
            return _success_outcome(state, classifiers, details, seconds, policy)
        attempt = rejection
    exc = attempt if isinstance(attempt, BaseException) else None
    failure = attempt if exc is None else _failure_from_exception(state, exc)
    if _advance(state, failure, policy, report):
        return None
    return _exhausted_outcome(state, policy, report, exc)


def _attempt(call, *args) -> object:
    """``call(*args)``, returning a solver failure instead of raising it
    so :func:`_settle` can classify it."""
    try:
        return call(*args)
    except (ReproError, MemoryError, RecursionError) as exc:
        return exc


# ----------------------------------------------------------------------
# In-process execution
# ----------------------------------------------------------------------


def _solve_chain_inprocess(
    state: _ChainState, policy: ResiliencePolicy, report: ResilienceReport
) -> ComponentOutcome:
    """Walk one component's chain to completion in the calling process."""
    while True:
        gated = _breaker_gate(state, policy, report)
        if gated is not None:
            return gated
        attempt = _attempt(_solve_one, state.attempt_task(policy))
        outcome = _settle(state, policy, report, attempt)
        if outcome is not None:
            return outcome


# ----------------------------------------------------------------------
# Pool execution
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


def _abandoned_failure(
    state: _ChainState, limit: float, where: str
) -> ComponentFailure:
    return state.failure(
        kind="timeout",
        error_type="TimeoutError",
        message=f"attempt abandoned after {limit:.3f}s ({where} still running)",
    )


def _isolated_attempt(
    state: _ChainState, policy: ResiliencePolicy, report: ResilienceReport
) -> object:
    """Re-run one interrupted attempt in its own single-worker pool.

    The attempt keeps its (rung, attempt) key, so a deterministic fault
    recurs here and is now unambiguously attributable to this component;
    an innocent bystander of someone else's crash simply completes.  A
    recurring death quarantines the component: the rest of its chain
    runs on the in-process path, where it cannot take workers down with
    it.  Returns the attempt for :func:`_settle`.
    """
    deadline = None
    if policy.timeout_seconds is not None:
        deadline = policy.timeout_seconds + TIMEOUT_GRACE_SECONDS
    abandoned = False
    mini = _new_pool(1)
    try:
        future = mini.submit(_solve_one, state.attempt_task(policy))
        try:
            return _attempt(future.result, deadline)
        except BrokenProcessPool:
            report.quarantined.append(state.index)
            state.quarantined = True
            return _crash_failure(state)
        except FuturesTimeoutError:
            abandoned = True
            report.abandoned_attempts += 1
            return _abandoned_failure(state, deadline, "isolated worker")
    finally:
        # Join the pool's threads and worker unless the worker is still
        # running an abandoned attempt, so no pool thread outlives the
        # call into later forks or CPython's atexit hook.
        mini.shutdown(wait=not abandoned)


def _run_pool(
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

    def settle(state: _ChainState, attempt: object) -> None:
        outcome = _settle(state, policy, report, attempt)
        if outcome is None and state.quarantined:
            outcome = _solve_chain_inprocess(state, policy, report)
        if outcome is None:
            queue.append(state)
        else:
            outcomes[state.index] = outcome

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
                progressed = True
                gated = _breaker_gate(state, policy, report)
                if gated is not None:
                    outcomes[state.index] = gated
                    continue
                future = pool.submit(_solve_one, state.attempt_task(policy))
                active[future] = state
                submit_times[future] = time.monotonic()
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
                    attempt = _attempt(future.result)
                except BrokenProcessPool:
                    survivors.append(state)
                    continue
                settle(state, attempt)
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
                    settle(state, _isolated_attempt(state, policy, report))
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
                    settle(state, _abandoned_failure(state, limit, "worker"))
    finally:
        # As in _isolated_attempt: wait, unless a worker may still be
        # running an abandoned attempt or (leaving by an exception) a
        # budgeted one.
        budgeted = policy.timeout_seconds is not None
        pool.shutdown(wait=not abandoned and not (budgeted and active))
    return [outcomes[index] for index in sorted(outcomes)]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_components(
    tasks: List[ComponentTask],
    jobs: int,
    policy: ResiliencePolicy,
) -> Tuple[List[ComponentOutcome], ResilienceReport]:
    """Dispatch ``tasks`` under ``policy``; returns outcomes in index
    order plus the accumulated :class:`ResilienceReport`.

    ``jobs <= 1`` (or fewer than two tasks) runs in-process — a pool of
    one worker would pay pickling and fork overhead for nothing.
    """
    report = ResilienceReport()
    if jobs <= 1 or len(tasks) < 2:
        outcomes = [
            _solve_chain_inprocess(_ChainState(task, policy), policy, report)
            for task in tasks
        ]
    else:
        outcomes = _run_pool(tasks, jobs, policy, report)
    return outcomes, report
