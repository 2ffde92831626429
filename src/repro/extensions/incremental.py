"""Incremental classifier planning.

Query loads evolve: new popular queries arrive after classifiers have
already been trained.  Re-solving from scratch would ignore the sunk
cost of existing classifiers; the incremental planner instead solves
each batch's *residual* problem — previously built classifiers are free
(weight 0, exactly the paper's modelling of "selected" classifiers) —
and accumulates the selection.

This wraps any registered solver.  Batch-by-batch costs are reported
incrementally; :meth:`IncrementalPlanner.replan` computes the
from-scratch optimum over everything seen so far, quantifying the price
of incrementality.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.costs import CostModel, OverlayCost
from repro.core.coverage import verify_cover
from repro.core.instance import MC3Instance
from repro.core.properties import (
    Classifier,
    Query,
    classifier_sort_key,
    query as make_query,
)
from repro.core.solution import Solution, SolverResult
from repro.exceptions import InvalidInstanceError
from repro.solvers import make_solver


class BatchOutcome:
    """Result of planning one batch of queries."""

    __slots__ = ("batch_index", "new_queries", "incremental_cost", "new_classifiers", "solver_result")

    def __init__(
        self,
        batch_index: int,
        new_queries: Tuple[Query, ...],
        incremental_cost: float,
        new_classifiers: FrozenSet[Classifier],
        solver_result: Optional[SolverResult],
    ):
        self.batch_index = batch_index
        self.new_queries = new_queries
        self.incremental_cost = incremental_cost
        self.new_classifiers = new_classifiers
        self.solver_result = solver_result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BatchOutcome #{self.batch_index}: +{len(self.new_queries)} queries, "
            f"+{len(self.new_classifiers)} classifiers, cost +{self.incremental_cost:g}>"
        )


class IncrementalPlanner:
    """Stateful planner over an evolving query load.

    Parameters
    ----------
    cost:
        The (stable) classifier cost model.
    solver_name / solver_kwargs:
        Which solver handles each residual batch (default: Algorithm 3).
    max_classifier_length:
        Optional bound k' applied to every batch.
    cache:
        Component-solution cache spec (see :mod:`repro.engine.cache`)
        shared by every batch solve *and* :meth:`replan`.  This is the
        incremental fast path: a new batch's residual decomposes into
        components, and every component untouched by the batch (no new
        query shares properties with it, no built classifier changed its
        candidate costs) fingerprints identically to last time and is
        served from the cache instead of re-solved.
    """

    def __init__(
        self,
        cost: CostModel,
        solver_name: str = "mc3-general",
        solver_kwargs: Optional[Dict[str, object]] = None,
        max_classifier_length: Optional[int] = None,
        cache: Optional[object] = None,
    ):
        self.cost = cost
        self.solver_name = solver_name
        self.solver_kwargs = dict(solver_kwargs or {})
        if cache is not None:
            self.solver_kwargs["cache"] = cache
        self.cache = self.solver_kwargs.get("cache")
        self.max_classifier_length = max_classifier_length
        self._built: Set[Classifier] = set()
        # The residual pricing: the base model with every built
        # classifier selected (weight 0).  Kept across batches and
        # extended by each batch's new classifiers, so a request never
        # rebuilds it, and its scoped content token lets untouched
        # components hit the solution cache.
        self._overlay = OverlayCost(cost)
        self._queries: List[Query] = []
        self._query_set: Set[Query] = set()
        self._batches: List[BatchOutcome] = []
        self._total_cost = 0.0
        self._digest_chain = hashlib.blake2b(
            b"mc3-incremental-state/v2", digest_size=16
        ).digest()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def built_classifiers(self) -> FrozenSet[Classifier]:
        """Everything trained so far."""
        return frozenset(self._built)

    @property
    def queries(self) -> Tuple[Query, ...]:
        """Every distinct query seen so far, in arrival order."""
        return tuple(self._queries)

    @property
    def total_cost(self) -> float:
        """Cumulative training spend."""
        return self._total_cost

    @property
    def batches(self) -> Tuple[BatchOutcome, ...]:
        return tuple(self._batches)

    def state_digest(self) -> str:
        """Content digest of the planner's workload state.

        A blake2b hash chain folded forward by :meth:`add_batch`: each
        link hashes the previous link together with that batch's
        canonical outcome — the fresh queries in arrival order, the new
        classifiers in canonical order, and the exact incremental cost
        (float bit pattern, not a rounded rendering).  Two planners
        with equal digests went through bit-identical batch-outcome
        histories, which is precisely what the journal-replay
        equivalence contract promises to reproduce; transient health
        state (breakers, caches) is deliberately outside the digest.
        Chaining makes reads O(1) — the planner daemon stamps every
        reply with the digest, so it must not rescan the whole
        accumulated state per request — and the sorted content keeps it
        stable across processes and ``PYTHONHASHSEED`` values.
        """
        return self._digest_chain.hex()

    def _fold_digest(self, outcome: BatchOutcome) -> None:
        """Advance the state-digest hash chain by one batch outcome."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._digest_chain)
        digest.update(
            struct.pack(
                "<IId",
                outcome.batch_index,
                len(outcome.new_queries),
                outcome.incremental_cost,
            )
        )
        for q in outcome.new_queries:
            digest.update(",".join(sorted(q)).encode("utf-8") + b"\x00")
        digest.update(struct.pack("<I", len(outcome.new_classifiers)))
        for clf in sorted(outcome.new_classifiers, key=classifier_sort_key):
            digest.update(",".join(sorted(clf)).encode("utf-8") + b"\x00")
        self._digest_chain = digest.digest()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def add_batch(
        self,
        queries: Iterable[object],
        solver_overrides: Optional[Dict[str, object]] = None,
    ) -> BatchOutcome:
        """Plan classifiers for a new batch of queries.

        Already-seen queries are ignored; already-built classifiers are
        free for the residual solve.  Returns the batch outcome (empty
        batch ⇒ zero-cost outcome).  Planner state changes only once the
        residual solve has returned: a batch whose solve raises leaves
        the seen queries, built classifiers, residual pricing and
        :meth:`state_digest` untouched.

        ``solver_overrides`` layers per-batch solver kwargs over the
        planner's defaults for this batch only — the planner daemon uses
        it to thread a request-scoped :class:`~repro.engine.resilience.ResiliencePolicy`
        (deadline-derived budget, breaker board) into the residual
        solve without perturbing the planner's configuration.
        """
        fresh: List[Query] = []
        fresh_set: Set[Query] = set()
        for spec in queries:
            q = make_query(spec)
            if q not in self._query_set and q not in fresh_set:
                fresh_set.add(q)
                fresh.append(q)
        index = len(self._batches)
        if not fresh:
            outcome = BatchOutcome(index, (), 0.0, frozenset(), None)
            self._batches.append(outcome)
            self._fold_digest(outcome)
            return outcome

        residual = MC3Instance(
            fresh,
            self._overlay,
            max_classifier_length=self.max_classifier_length,
            name=f"batch{index}",
        )
        kwargs = self.solver_kwargs
        if solver_overrides:
            kwargs = {**kwargs, **solver_overrides}
        solver = make_solver(self.solver_name, **kwargs)
        result = solver.solve(residual)

        # Commit only now: a solve that raised leaves the planner exactly
        # as it was, so a retried batch is planned from scratch.
        new_classifiers = frozenset(result.solution.classifiers) - self._built
        incremental_cost = self.cost.total(new_classifiers)
        self._query_set |= fresh_set
        self._queries.extend(fresh)
        self._built |= new_classifiers
        for clf in sorted(new_classifiers, key=classifier_sort_key):
            self._overlay.select(clf)
        self._total_cost += incremental_cost
        outcome = BatchOutcome(index, tuple(fresh), incremental_cost, new_classifiers, result)
        self._batches.append(outcome)
        self._fold_digest(outcome)
        return outcome

    def verify(self) -> None:
        """The built set must cover every query seen so far."""
        if self._queries:
            verify_cover(self._queries, self._built)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def replan(self) -> SolverResult:
        """From-scratch solve over everything seen so far (ignores sunk
        costs).  The gap ``total_cost - replan().cost`` is the price paid
        for incrementality."""
        if not self._queries:
            raise InvalidInstanceError("no queries have been added yet")
        instance = MC3Instance(
            self._queries,
            self.cost,
            max_classifier_length=self.max_classifier_length,
            name="replanned",
        )
        solver = make_solver(self.solver_name, **self.solver_kwargs)
        return solver.solve(instance)

    def regret(self) -> float:
        """``total_cost / replan cost`` (1.0 = incrementality was free)."""
        replanned = self.replan().cost
        if replanned == 0:
            return 1.0
        return self._total_cost / replanned

    def as_solution(self) -> Solution:
        """The cumulative selection priced against the base cost model."""
        return Solution(self._built, self.cost.total(self._built))
