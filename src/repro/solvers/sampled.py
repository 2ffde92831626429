"""Sampling-based sub-linear MC³ solver (extension beyond the paper).

Same pipeline shape as :class:`~repro.solvers.general.GeneralSolver` —
preprocess, reduce each property-disjoint component to Weighted Set
Cover, cover it — but the per-component WSC solve is the
sampling-based sub-linear greedy of Indyk et al. (see
:mod:`repro.setcover.sampled_greedy`): gains are estimated on sampled
elements, then an exact greedy repairs the residual, so huge components
are covered without ever scanning their full universes per iteration.

Randomness is disciplined: the solver carries one run ``seed``, and each
component draws from ``derive_seed(seed, component.queries)`` — a
content digest, not ``hash()`` — so outputs are bit-identical across
``jobs=1``/``jobs=N``, scheduling orders, and ``PYTHONHASHSEED``
values (the chaos/determinism contract every engine solver obeys).

Each component also reports a ``lower_bound`` on its optimum, by the
rule of Algorithm 3's ``f`` arm (:func:`~repro.setcover.wsc_lower_bound`):
the sampled guarantee is stated against OPT, and the engine rolls the
bounds up into ``details["engine"]["lower_bound"]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bitspace import PropertySpace
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier
from repro.engine.cache import DETAILS_VERSION
from repro.engine.component import ComponentOutcome
from repro.engine.resilience import ResiliencePolicy
from repro.preprocess import ALL_STEPS
from repro.reductions import mc3_to_wsc
from repro.setcover import (
    DEFAULT_EXACT_THRESHOLD,
    DEFAULT_SAMPLE_RATES,
    derive_seed,
    sampled_greedy_wsc,
    wsc_lower_bound,
)
from repro.solvers.base import ComponentSolver


class SampledSolver(ComponentSolver):
    """MC³ approximation solver with a sub-linear sampled-greedy core.

    Parameters
    ----------
    seed:
        Run-level seed; the *only* source of randomness.  Identical
        seeds give bit-identical solutions regardless of ``jobs``.
    sample_rates:
        Per-round element-sampling schedule (fractions of the
        component's universe), default
        :data:`~repro.setcover.DEFAULT_SAMPLE_RATES`.
    exact_threshold:
        Universes at or below this size use the exact-gain greedy
        directly (sampling has nothing to save there), default
        :data:`~repro.setcover.DEFAULT_EXACT_THRESHOLD`.
    """

    name = "mc3-sampled"

    def __init__(
        self,
        seed: int = 0,
        sample_rates: Sequence[float] = DEFAULT_SAMPLE_RATES,
        exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
        preprocess_steps: Sequence[int] = ALL_STEPS,
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
        self.seed = int(seed)
        self.sample_rates = tuple(float(rate) for rate in sample_rates)
        self.exact_threshold = int(exact_threshold)

    def cache_token(self) -> Optional[Tuple[object, ...]]:
        return (
            self.name,
            DETAILS_VERSION,
            self.seed,
            *self.sample_rates,
            self.exact_threshold,
        )

    def solve_component(
        self, component: MC3Instance
    ) -> Tuple[Set[Classifier], Dict[str, object]]:
        space = PropertySpace.from_queries(component.queries)
        wsc = mc3_to_wsc(component, space=space)
        component_seed = derive_seed(self.seed, component.queries)
        stats: Dict[str, object] = {}
        wsc_solution = sampled_greedy_wsc(
            wsc,
            seed=component_seed,
            rates=self.sample_rates,
            exact_threshold=self.exact_threshold,
            stats=stats,
        )
        details: Dict[str, object] = {
            "sampled": stats,
            "lower_bound": wsc_lower_bound(wsc),
            "bitspace": {
                "properties": space.size,
                "elements": wsc.universe_size,
                "sets": wsc.num_sets,
            },
        }
        return {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}, details

    def aggregate_details(
        self, outcomes: List[ComponentOutcome]
    ) -> Dict[str, object]:
        modes: Dict[str, int] = {}
        sampled_rounds = 0
        residual_elements = 0
        for outcome in outcomes:
            stats = outcome.details.get("sampled")
            if not isinstance(stats, dict):
                continue
            mode = str(stats.get("mode", "unknown"))
            modes[mode] = modes.get(mode, 0) + 1
            sampled_rounds += len(stats.get("rounds", ()))
            residual_elements += int(stats.get("residual_elements", 0))
        return {
            "seed": self.seed,
            "sample_rates": list(self.sample_rates),
            "exact_threshold": self.exact_threshold,
            "component_modes": modes,
            "sampled_rounds": sampled_rounds,
            "residual_elements": residual_elements,
        }
