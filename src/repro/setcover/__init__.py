"""Weighted Set Cover substrate: instance model, greedy (ln Δ + 1),
LP-rounding and primal–dual (both f-approximations), Algorithm 3's
best-of strategy, and an exact branch-and-bound oracle with the greedy
optimality certificate built on it."""

from typing import Optional

from repro.exceptions import SolverError
from repro.setcover.best_of import BestOf, best_of_wsc, f_approximation_wsc
from repro.setcover.bucket_greedy import bucket_greedy_wsc
from repro.setcover.exact import DEFAULT_NODE_LIMIT, certify_optimal, exact_wsc
from repro.setcover.exact_lp import exact_wsc_lp
from repro.setcover.greedy import greedy_wsc
from repro.setcover.instance import WSCInstance, WSCSolution
from repro.setcover.lagrangian import lagrangian_lower_bound, lagrangian_value
from repro.setcover.multicover import (
    exact_multicover,
    greedy_multicover,
    validate_demands,
    verify_multicover,
)
from repro.setcover.lp import (
    DEFAULT_SIZE_LIMIT,
    lp_lower_bound,
    lp_nonzeros,
    lp_relaxation,
    lp_rounding_wsc,
)
from repro.setcover.primal_dual import primal_dual_wsc
from repro.setcover.sampled_greedy import (
    DEFAULT_EXACT_THRESHOLD,
    DEFAULT_SAMPLE_RATES,
    derive_seed,
    sampled_greedy_wsc,
)


def solve_wsc(
    instance: WSCInstance,
    method: str = "best_of",
    lp_size_limit: Optional[int] = DEFAULT_SIZE_LIMIT,
    prune: bool = False,
    seed: int = 0,
) -> WSCSolution:
    """Solve a WSC instance with the named method.

    Methods
    -------
    ``greedy``
        Chvátal greedy, ``ln Δ + 1`` guarantee.
    ``bucket_greedy``
        Bucketed greedy [CKW'10], ``(1+ε)(ln Δ + 1)`` guarantee.
    ``lp``
        LP rounding, ``f`` guarantee.
    ``primal_dual``
        Primal–dual, ``f`` guarantee, no LP solve.
    ``best_of``
        Algorithm 3's inner strategy, :func:`best_of_wsc`: run greedy and
        an ``f``-approximation (LP rounding when the constraint matrix
        fits in ``lp_size_limit`` nonzeros, primal–dual otherwise) and
        keep the cheaper output; the ``f`` arm is skipped when greedy is
        proven optimal.
    ``exact``
        Combinatorial branch-and-bound optimum (small instances only).
    ``exact_lp``
        LP-based branch-and-bound optimum (hundreds of sets).
    ``sampled``
        Sampling-based sub-linear greedy [Indyk et al.]; exact-greedy
        fallback below :data:`DEFAULT_EXACT_THRESHOLD` elements.
        ``seed`` drives its (only) randomness.

    ``prune`` applies the redundancy post-pass to the LP-rounding and
    primal–dual outputs (extension beyond the paper; guarantee-safe).
    """
    if method == "greedy":
        return greedy_wsc(instance)
    if method == "bucket_greedy":
        return bucket_greedy_wsc(instance)
    if method == "sampled":
        return sampled_greedy_wsc(instance, seed=seed)
    if method == "lp":
        return lp_rounding_wsc(instance, prune=prune)
    if method == "primal_dual":
        return primal_dual_wsc(instance, prune=prune)
    if method == "exact":
        return exact_wsc(instance)
    if method == "exact_lp":
        return exact_wsc_lp(instance)
    if method == "best_of":
        return best_of_wsc(instance, lp_size_limit, prune).solution
    raise SolverError(f"unknown WSC method {method!r}")


__all__ = [
    "BestOf",
    "DEFAULT_EXACT_THRESHOLD",
    "DEFAULT_NODE_LIMIT",
    "DEFAULT_SAMPLE_RATES",
    "DEFAULT_SIZE_LIMIT",
    "WSCInstance",
    "WSCSolution",
    "best_of_wsc",
    "bucket_greedy_wsc",
    "certify_optimal",
    "derive_seed",
    "sampled_greedy_wsc",
    "exact_multicover",
    "exact_wsc",
    "exact_wsc_lp",
    "f_approximation_wsc",
    "greedy_multicover",
    "greedy_wsc",
    "lagrangian_lower_bound",
    "lagrangian_value",
    "validate_demands",
    "verify_multicover",
    "lp_lower_bound",
    "lp_nonzeros",
    "lp_relaxation",
    "lp_rounding_wsc",
    "primal_dual_wsc",
    "solve_wsc",
]
