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

Approximation-gap probes: components small enough to afford it also run
the exact-gain greedy (and, on tiny set systems, the branch-and-bound
optimum) on a *forced-sampling* answer, and report the observed cost
ratios.  The engine aggregates them into
``details["engine"]["approx_gap"]`` so every run carries its own
measured gap alongside the speedup — the returned solution still comes
from the default path (exactness fallback included), the probe is
telemetry only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bitspace import PropertySpace
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier
from repro.engine.component import ComponentOutcome
from repro.engine.resilience import ResiliencePolicy
from repro.preprocess import ALL_STEPS
from repro.reductions import mc3_to_wsc
from repro.setcover import (
    DEFAULT_EXACT_THRESHOLD,
    DEFAULT_SAMPLE_RATES,
    derive_seed,
    exact_wsc,
    greedy_wsc,
    sampled_greedy_wsc,
)
from repro.solvers.base import ComponentSolver

#: Components with at most this many WSC elements run the gap probe
#: (greedy costs O(elements·sets) there — cheap at this size).
GAP_PROBE_MAX_ELEMENTS = 2000

#: Exact-optimum probe bound: branch-and-bound is exponential in the
#: number of sets, so only tiny set systems compare against OPT.
GAP_PROBE_MAX_EXACT_SETS = 16


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
    gap_probe:
        Run the approximation-gap probes on small components (default
        on; disable for pure benchmarking runs).
    """

    name = "mc3-sampled"

    def __init__(
        self,
        seed: int = 0,
        sample_rates: Sequence[float] = DEFAULT_SAMPLE_RATES,
        exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
        gap_probe: bool = True,
        preprocess_steps: Sequence[int] = ALL_STEPS,
        jobs: int = 1,
        verify: bool = True,
        resilience: Optional[ResiliencePolicy] = None,
        backend: Optional[str] = None,
        cache: Optional[object] = None,
    ):
        super().__init__(
            preprocess_steps=preprocess_steps,
            jobs=jobs,
            verify=verify,
            resilience=resilience,
            backend=backend,
            cache=cache,
        )
        self.seed = int(seed)
        self.sample_rates = tuple(float(rate) for rate in sample_rates)
        self.exact_threshold = int(exact_threshold)
        self.gap_probe = gap_probe

    def cache_token(self) -> Optional[Tuple[object, ...]]:
        # ``gap_probe`` leaves the selected classifiers alone but adds a
        # "gap" entry to the cached details, so it must key the entry.
        return (
            self.name,
            self.seed,
            *self.sample_rates,
            self.exact_threshold,
            self.gap_probe,
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
            "bitspace": {
                "properties": space.size,
                "elements": wsc.universe_size,
                "sets": wsc.num_sets,
            },
        }
        if self.gap_probe and wsc.universe_size <= GAP_PROBE_MAX_ELEMENTS:
            details["gap"] = self._probe_gap(wsc, component_seed)
        return {wsc.set_label(set_id) for set_id in wsc_solution.set_ids}, details

    def _probe_gap(self, wsc, component_seed: int) -> Dict[str, float]:
        """Measure sampling quality on a component cheap enough to
        afford reference solves.

        Forces the sampling path (``exact_threshold=0``) so the probe
        measures the estimator rather than the fallback, and compares
        against exact-gain greedy — plus branch-and-bound OPT when the
        set system is tiny.
        """
        forced = sampled_greedy_wsc(
            wsc, seed=component_seed, rates=self.sample_rates, exact_threshold=0
        )
        reference = greedy_wsc(wsc)
        probe: Dict[str, float] = {
            "sampled_cost": forced.cost,
            "greedy_cost": reference.cost,
            "ratio_vs_greedy": forced.cost / reference.cost if reference.cost else 1.0,
        }
        if wsc.num_sets <= GAP_PROBE_MAX_EXACT_SETS:
            optimum = exact_wsc(wsc)
            probe["exact_cost"] = optimum.cost
            probe["ratio_vs_exact"] = (
                forced.cost / optimum.cost if optimum.cost else 1.0
            )
        return probe

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
