"""Component execution strategies: sequential and process-pool.

The engine hands the executor a list of ``(index, solver, component,
route)`` tasks; the executor returns :class:`ComponentOutcome` objects
*in index order* regardless of completion order, which is what makes
parallel runs bit-identical to sequential ones — the merge stage never
observes scheduling noise.

Process-pool notes:

* Workers receive pickled ``(solver, component)`` pairs.  Every shipped
  cost model in :mod:`repro.core.costs` pickles cleanly;
  ``CallableCost`` around a lambda does not (use a module-level
  function), mirroring the constraint of
  :mod:`repro.experiments.parallel`.
* Solver exceptions (e.g. :class:`~repro.exceptions.UncoverableQueryError`)
  propagate to the caller with their original type, annotated with the
  failing component's index (``exc.component_index``) and the worker's
  formatted traceback (``exc.worker_traceback``) — the remote traceback
  itself does not survive pickling, so the worker captures it as a
  string before re-raising.
* The pool is created with an explicit ``fork`` start method wherever
  the platform offers one (:func:`pool_context`), because fork is what
  keeps worker hash seeds identical to the parent's — under ``spawn``
  each worker re-randomises ``PYTHONHASHSEED`` and hash-order-sensitive
  iteration could diverge between sequential and parallel runs.
  Platforms without fork fall back to the default start method; the
  engine's determinism then rests entirely on the kernels being
  hash-order clean (which reprolint RPL101/RPL102 enforce).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.instance import MC3Instance
from repro.core.kernels.registry import use_backend
from repro.core.properties import Classifier
from repro.engine.component import ComponentOutcome, SolvesComponents
from repro.exceptions import ReproError

#: One unit of work: (component index, solver-like, component, route name,
#: kernel backend name).  The backend is resolved by the scheduler, so a
#: worker process activates the same concrete backend the parent chose.
ComponentTask = Tuple[int, SolvesComponents, MC3Instance, Optional[str], Optional[str]]


def pool_context():
    """The multiprocessing context engine pools are built on.

    Explicitly ``fork`` where available (POSIX): forked workers inherit
    the parent's hash seed, preserving the bit-identical-workers
    invariant documented above.  Returns ``None`` (the platform
    default) only where fork does not exist, e.g. Windows.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _solve_one(
    task: ComponentTask,
) -> Tuple[int, FrozenSet[Classifier], Dict[str, object], float, int, Optional[str]]:
    """Worker: solve one component, timed.  Module-level for pickling."""
    index, solver, component, route, backend = task
    started = time.perf_counter()
    try:
        with use_backend(backend):
            classifiers, details = solver.solve_component(component)
    except ReproError as exc:
        # Annotate in the worker, where the real traceback still exists.
        # Instance attributes survive pickling via the exception's state
        # dict, so the parent sees which component failed and why even
        # though the remote traceback object itself cannot cross the
        # process boundary.
        exc.component_index = index
        exc.worker_traceback = traceback.format_exc()
        raise
    seconds = time.perf_counter() - started
    return index, frozenset(classifiers), details, seconds, component.n, route


def _to_outcomes(rows) -> List[ComponentOutcome]:
    outcomes = [ComponentOutcome(*row) for row in rows]
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes


def run_sequential(tasks: List[ComponentTask]) -> List[ComponentOutcome]:
    """Solve every component in the calling process, in index order."""
    return _to_outcomes(_solve_one(task) for task in tasks)


def run_process_pool(tasks: List[ComponentTask], jobs: int) -> List[ComponentOutcome]:
    """Fan components out over ``jobs`` worker processes.

    ``pool.map`` preserves submission order, and outcomes are re-sorted
    by index anyway, so the merge stage sees the identical order the
    sequential executor produces.
    """
    workers = max(1, min(jobs, len(tasks)))
    with ProcessPoolExecutor(max_workers=workers, mp_context=pool_context()) as pool:
        rows = list(pool.map(_solve_one, tasks))
    return _to_outcomes(rows)


def run_components(
    tasks: List[ComponentTask], jobs: int = 1
) -> List[ComponentOutcome]:
    """Dispatch tasks with the strategy implied by ``jobs``.

    ``jobs <= 1`` (or fewer than two tasks) runs sequentially — a pool
    of one worker would pay pickling and fork overhead for nothing.
    """
    if jobs <= 1 or len(tasks) < 2:
        return run_sequential(tasks)
    return run_process_pool(tasks, jobs)
