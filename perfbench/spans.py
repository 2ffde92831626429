"""Span recording for the traced benchmark pass.

A traced pass installs timing wrappers around module attributes the
program already calls through — ``repro.engine.engine.preprocess``,
``repro.solvers.general.greedy_wsc``, ``Solution.verify``,
``WorkloadJournal.append_batch`` and so on — before it builds any
input.  Nothing under ``src/`` changes, and an untraced pass installs
nothing.  Every span is kept in memory as ``(name, start, end)`` on the
``time.perf_counter`` clock, which on Linux is the system-wide
monotonic clock, so spans recorded by the benchmark client and by the
daemon process share one timeline.  Counts are recorded at the same
boundaries.  :meth:`Recorder.dump` writes both out when the run ends.

Parentage is not stored: the benchmark drives one request at a time,
so a span's parent is the innermost span whose interval encloses it
(see :mod:`layers`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float]


class Recorder:
    """In-memory store of spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(name, time, value)`` count events, timed like spans so a
        #: pass can keep only those of its measured loop.
        self.counts: List[Tuple[str, float, float]] = []

    def add(self, name: str, value: float) -> None:
        self.counts.append((name, perf_counter(), value))

    def as_dict(self) -> Dict[str, object]:
        return {"spans": self.spans, "counts": self.counts}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle)


# -- counters read off a wrapped call's arguments and result ----------------


def _note_preprocess(recorder: Recorder, args, result) -> None:
    report = result.report
    recorder.add(
        "preprocess.removed",
        report.classifiers_removed_step3 + report.singletons_removed_step4,
    )
    recorder.add("preprocess.components", len(result.components))


def _note_lookup(recorder: Recorder, args, result) -> None:
    tasks = args[1]
    hits = len(result[0])
    recorder.add("engine.cache.hits", hits)
    recorder.add("engine.cache.misses", len(tasks) - hits)


def _note_dispatch(recorder: Recorder, args, result) -> None:
    recorder.add("engine.components", len(args[0]))


def _note_reduction(recorder: Recorder, args, result) -> None:
    recorder.add("reductions.wsc_sets", result.num_sets)
    recorder.add("reductions.wsc_elements", result.universe_size)


def _note_wins(recorder: Recorder, args, result) -> None:
    wins = result.get("wins", {})
    recorder.add("setcover.greedy_wins", wins.get("greedy", 0))
    recorder.add("setcover.f_approx_wins", wins.get("f_approx", 0))


def _time_method(method: str, name: str):
    """A counter hook that times ``method`` on the object a wrapped
    constructor returns, so only that caller's instances are timed."""

    def note(recorder: Recorder, args, result) -> None:
        setattr(result, method, _timed(getattr(result, method), recorder, name, None))

    return note


Note = Callable[[Recorder, tuple, object], None]

#: ``(module, attribute path, span name, counter)``.  The attribute is
#: looked up on the module and replaced in place, so every caller that
#: goes through that name is timed.  A ``None`` span name records only
#: the counter.  Names imported with ``from … import`` are wrapped in
#: the module that calls them, so one layer's function is not charged
#: to another layer that imports it under the same name.
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Note]], ...] = (
    # preprocess — Algorithm 1 steps 1–4
    ("repro.engine.engine", "preprocess", "preprocess", _note_preprocess),
    ("repro.preprocess.pipeline", "partition_queries", "preprocess.decompose", None),
    ("repro.preprocess.pipeline", "DominatedPruner", "preprocess.dominated",
     _time_method("run", "preprocess.dominated")),
    ("repro.preprocess.pipeline", "prune_k2_singletons", "preprocess.k2_prune", None),
    # The checker built by the pipeline only: verification builds its own.
    ("repro.preprocess.pipeline", "CoverageChecker", "preprocess.coverage",
     _time_method("uncovered_queries", "preprocess.coverage")),
    # engine — fingerprinting, cache, dispatch
    ("repro.engine.engine", "component_fingerprint", "engine.fingerprint", None),
    ("repro.engine.engine", "SolveEngine._cache_lookup", "engine.cache_lookup",
     _note_lookup),
    ("repro.engine.engine", "SolveEngine._cache_insert", "engine.cache_insert", None),
    ("repro.engine.engine", "run_components", "engine.dispatch", _note_dispatch),
    ("repro.engine.engine", "run_components_resilient", "engine.dispatch",
     _note_dispatch),
    # reductions and set cover — Algorithm 3's two arms
    ("repro.solvers.general", "mc3_to_wsc", "reductions.mc3_to_wsc", _note_reduction),
    ("repro.solvers.general", "greedy_wsc", "setcover.greedy", None),
    ("repro.solvers.general", "lp_rounding_wsc", "setcover.lp", None),
    ("repro.solvers.general", "primal_dual_wsc", "setcover.primal_dual", None),
    ("repro.solvers.general", "GeneralSolver.aggregate_details", None, _note_wins),
    # core — pricing and verification
    ("repro.preprocess.pipeline", "PreprocessResult.finalize", "core.finalize", None),
    ("repro.core.solution", "Solution.verify", "core.verify", None),
    ("repro.engine.resilience", "PartialSolution.verify", "core.verify", None),
    # extensions.incremental and service — the daemon path
    ("repro.extensions.incremental", "IncrementalPlanner.add_batch",
     "incremental.add_batch", None),
    ("repro.service.daemon", "PlannerService.handle_request", "service.handle", None),
    ("repro.service.daemon", "PlannerService._apply_batch", "service.apply", None),
    ("repro.service.journal", "WorkloadJournal.append_batch", "service.journal", None),
    ("repro.service.protocol", "encode_message", "service.protocol", None),
    ("repro.service.protocol", "decode_message", "service.protocol", None),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{path} is not defined where it is called")
    return owner, attr, vars(owner)[attr]


def _timed(
    fn, recorder: Recorder, name: Optional[str], note: Optional[Note]
):
    spans = recorder.spans
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                spans.append((name, start, perf_counter()))
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            if name is not None:
                spans.append((name, start, perf_counter()))
        if note is not None:
            note(recorder, args, result)
        return result

    return wrapper


def install(recorder: Recorder) -> List[Tuple[object, str, object]]:
    """Wrap every target; returns ``(owner, attribute, original)`` rows
    that :func:`uninstall` puts back.  Raises ``AttributeError`` when the
    program no longer calls through a target, so a renamed entry point
    fails the traced pass instead of silently going untimed."""
    resolved = [
        (_resolve(module, path), name, note)
        for module, path, name, note in TARGETS
    ]
    undo = []
    for (owner, attr, original), name, note in resolved:
        undo.append((owner, attr, original))
        setattr(owner, attr, _timed(original, recorder, name, note))
    return undo


def uninstall(undo: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
