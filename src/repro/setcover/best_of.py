"""Algorithm 3's inner strategy: greedy and an ``f``-approximation, keep
the cheaper (Theorem 5.3), with the ``f`` arm skipped when it cannot win.

Ties go to greedy.  Any feasible cover costs at least OPT, so once
greedy's cover is proven optimal the ``f`` arm can only tie, and the
answer is greedy's whether or not the arm runs.  :func:`best_of_wsc`
therefore asks :func:`~repro.setcover.exact.certify_optimal` first and
runs the ``f`` arm only when no proof comes back.  The proof is offered
only on integer costs with exact sums, where "ties go to greedy" means
the same thing in float arithmetic as in exact arithmetic, so the skip
never changes the chosen sets or the ``float.hex`` of the cost.

Every result carries a lower bound on the component's optimum, at no
extra solve: the optimum itself when certified, else the LP optimum
as HiGHS's row duals certify it (:func:`~repro.setcover.lp.dual_bound`)
or the primal–dual sum ``Σ y_e`` of the ``f`` arm that ran.
:func:`wsc_lower_bound` computes the same bound, by the same rule, for
solvers that cover a component some other way.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

from repro.core.kernels.pyjit import greedy_wsc
from repro.core.wsc import WSCInstance, WSCSolution
from repro.setcover.exact import certify_optimal
from repro.setcover.lp import (
    DEFAULT_SIZE_LIMIT,
    lp_lower_bound,
    lp_nonzeros,
    lp_rounding_wsc,
)
from repro.setcover.primal_dual import primal_dual_wsc

Arm = Callable[..., WSCSolution]


class BestOf(NamedTuple):
    """Outcome of :func:`best_of_wsc`.  ``solution.lower_bound`` is the
    component's lower bound (see the module docstring)."""

    solution: WSCSolution
    #: ``"greedy"`` or ``"f_approx"``.
    winner: str
    #: ``"lp"`` or ``"primal_dual"``; ``None`` when the arm was skipped.
    f_mode: Optional[str]
    #: Greedy's cover was proven optimal and the ``f`` arm skipped.
    certified: bool


def f_approximation_wsc(
    instance: WSCInstance,
    lp_size_limit: Optional[int] = DEFAULT_SIZE_LIMIT,
    prune: bool = False,
    *,
    lp: Arm = lp_rounding_wsc,
    primal_dual: Arm = primal_dual_wsc,
) -> Tuple[WSCSolution, str]:
    """The ``f``-approximation arm and its mode name: LP rounding when
    the constraint matrix fits in ``lp_size_limit`` nonzeros (``None``:
    no cap), primal–dual otherwise."""
    if _lp_fits(instance, lp_size_limit):
        return lp(instance, prune=prune), "lp"
    return primal_dual(instance, prune=prune), "primal_dual"


def wsc_lower_bound(
    instance: WSCInstance, lp_size_limit: Optional[int] = DEFAULT_SIZE_LIMIT
) -> float:
    """A lower bound on the optimum, by the ``f`` arm's rule: the LP
    relaxation's value when it fits in ``lp_size_limit`` nonzeros,
    primal–dual's dual sum ``Σ y_e`` otherwise."""
    if _lp_fits(instance, lp_size_limit):
        return lp_lower_bound(instance)
    return primal_dual_wsc(instance).lower_bound


def _lp_fits(instance: WSCInstance, lp_size_limit: Optional[int]) -> bool:
    return lp_size_limit is None or lp_nonzeros(instance) <= lp_size_limit


def best_of_wsc(
    instance: WSCInstance,
    lp_size_limit: Optional[int] = DEFAULT_SIZE_LIMIT,
    prune: bool = False,
    *,
    greedy: Arm = greedy_wsc,
    lp: Arm = lp_rounding_wsc,
    primal_dual: Arm = primal_dual_wsc,
) -> BestOf:
    """Run Algorithm 3 lines 3–5 on one WSC instance.

    ``prune`` applies the redundancy post-pass to the ``f`` arm.  The
    arm callables default to this package's solvers; a caller may pass
    its own references to the same functions so each arm is reached
    through the caller's names.
    """
    greedy_solution = greedy(instance)
    if certify_optimal(instance, greedy_solution):
        optimum = _with_bound(greedy_solution, greedy_solution.cost)
        return BestOf(optimum, "greedy", None, True)
    f_solution, f_mode = f_approximation_wsc(
        instance, lp_size_limit, prune, lp=lp, primal_dual=primal_dual
    )
    if greedy_solution.cost <= f_solution.cost:
        bounded = _with_bound(greedy_solution, f_solution.lower_bound)
        return BestOf(bounded, "greedy", f_mode, False)
    return BestOf(f_solution, "f_approx", f_mode, False)


def _with_bound(solution: WSCSolution, lower_bound: Optional[float]) -> WSCSolution:
    return WSCSolution(solution.set_ids, solution.cost, lower_bound=lower_bound)
