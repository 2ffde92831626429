"""Exact MC³ solver (test oracle and small-instance tool).

Preprocessing (optimality-preserving) → per-component reduction to WSC →
exact branch-and-bound.  Exponential worst case — the general problem is
NP-hard (Theorem 5.1) — so a node limit guards against runaway searches.
The preprocess/dispatch/merge pipeline is the shared engine's; only the
per-component exact WSC solve lives here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.bitspace import PropertySpace
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import SolverError
from repro.preprocess import ALL_STEPS
from repro.reductions import mc3_to_wsc
from repro.setcover import DEFAULT_NODE_LIMIT, exact_wsc, exact_wsc_lp
from repro.solvers.base import ComponentSolver


class ExactSolver(ComponentSolver):
    """Optimal MC³ solutions via exact WSC branch-and-bound.

    ``engine="combinatorial"`` (default) uses the pure-Python search;
    ``engine="lp"`` uses the LP-bounded search, which proves optimality
    far faster on near-integral instances (hundreds of sets).  (The
    ``engine`` knob predates, and is unrelated to, the shared solving
    engine — it names the branch-and-bound variant.)
    """

    name = "exact"

    def __init__(
        self,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        node_limit: int = DEFAULT_NODE_LIMIT,
        engine: str = "combinatorial",
        jobs: int = 1,
        verify: bool = True,
        resilience: Optional[ResiliencePolicy] = None,
        cache: Optional[object] = None,
    ):
        super().__init__(
            preprocess_steps=preprocess_steps,
            jobs=jobs,
            verify=verify,
            resilience=resilience,
            cache=cache,
        )
        if engine not in ("combinatorial", "lp"):
            raise SolverError(f"unknown exact engine {engine!r}")
        self.node_limit = node_limit
        self.engine = engine

    def cache_token(self) -> Optional[Tuple[object, ...]]:
        # ``node_limit`` matters: a search that hits the limit raises,
        # so a cached entry proves the limit was generous enough — but a
        # *smaller* limit must not be served a bigger limit's answer, or
        # the limit stops being reproducible.
        return (self.name, self.engine, self.node_limit)

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)
        if self.engine == "lp":
            wsc_solution = exact_wsc_lp(wsc)
        else:
            wsc_solution = exact_wsc(wsc, node_limit=self.node_limit)
        classifiers = {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}
        bitspace = {
            "properties": space.size,
            "elements": wsc.universe_size,
            "sets": wsc.num_sets,
        }
        return classifiers, {"bitspace": bitspace}
