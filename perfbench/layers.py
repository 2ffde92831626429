"""Span arithmetic: nesting, self time, unattributed time, percentiles,
and the per-layer metrics of a traced pass.

Spans are ``(name, start, end)`` tuples (see :mod:`spans`).  A span's
parent is the innermost span whose interval encloses it; the benchmark
drives one request at a time, so interval nesting is the call nesting,
across the client and daemon processes alike.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float]

#: Names of the spans the benchmark itself records around each call
#: into the program: one library ``solve()`` or one daemon request.
ROOTS = ("plan", "request")

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def nest(spans: Sequence[Span]) -> List[Optional[int]]:
    """Parent index of each span (``None`` for a top-level span).

    A span that only partly overlaps an open span is not its child; it
    goes to the innermost span that encloses it whole, if any.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
    parents: List[Optional[int]] = [None] * len(spans)
    stack: List[int] = []
    for index in order:
        _, start, end = spans[index]
        while stack and spans[stack[-1]][2] <= start:
            stack.pop()
        parents[index] = next((j for j in reversed(stack) if spans[j][2] >= end), None)
        stack.append(index)
    return parents


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    parents = nest(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent is not None:
            children.setdefault(parent, []).append(spans[index][1:])
    return [
        (end - start) - covered(children.get(index, ()))
        for index, (_, start, end) in enumerate(spans)
    ]


def unattributed_fraction(spans: Sequence[Span], roots: Sequence[str] = ROOTS) -> float:
    """Share of root-span wall-clock that no layer span covers."""
    root_spans = [span for span in spans if span[0] in roots]
    layer_spans = [span[1:] for span in spans if span[0] not in roots]
    total = sum(end - start for _, start, end in root_spans)
    if total <= 0:
        return 0.0
    uncovered = 0.0
    for _, start, end in root_spans:
        inside = [
            (max(s, start), min(e, end)) for s, e in layer_spans if s < end and e > start
        ]
        uncovered += (end - start) - covered(inside)
    return uncovered / total


def outermost_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Total duration per span name, counting a span nested inside a
    span of the same name only once (through its outer span)."""
    parents = nest(spans)
    totals: Dict[str, float] = {}
    for index, (name, start, end) in enumerate(spans):
        parent = parents[index]
        nested_in_same = False
        while parent is not None:
            if spans[parent][0] == name:
                nested_in_same = True
                break
            parent = parents[parent]
        if not nested_in_same:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q`` percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def _ms_summary(durations: Sequence[float]) -> Tuple[float, float]:
    """(p50, p99) in ms; 0.0 where the layer took no samples."""
    if not durations:
        return 0.0, 0.0
    p99 = tail_percentile(durations, 0.99)
    if p99 is None:
        raise ValueError(f"p99 needs more than {len(durations)} samples")
    return statistics.median(durations) * 1000.0, p99 * 1000.0


#: Per-layer time metrics: total span time of a name per plan operation.
TIME_METRICS = {
    "preprocess.s": "preprocess",
    "preprocess.decompose_s": "preprocess.decompose",
    "preprocess.dominated_s": "preprocess.dominated",
    "preprocess.k2_prune_s": "preprocess.k2_prune",
    "preprocess.coverage_s": "preprocess.coverage",
    "engine.fingerprint_s": "engine.fingerprint",
    "engine.cache_put_s": "engine.cache_insert",
    "reductions.mc3_to_wsc_s": "reductions.mc3_to_wsc",
    "setcover.greedy_s": "setcover.greedy",
    "setcover.lp_s": "setcover.lp",
    "setcover.primal_dual_s": "setcover.primal_dual",
    "core.finalize_s": "core.finalize",
    "core.verify_s": "core.verify",
    "service.protocol_s": "service.protocol",
}

#: Per-layer self-time metrics: span time minus children, per plan.
SELF_METRICS = {
    "engine.cache_get_s": "engine.cache_lookup",
    "engine.dispatch_self_s": "engine.dispatch",
    "incremental.add_batch_self_s": "incremental.add_batch",
}

#: Counters reported per plan operation.
COUNT_METRICS = (
    "preprocess.removed",
    "preprocess.components",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.components",
    "reductions.wsc_sets",
    "reductions.wsc_elements",
)


def layer_metrics(
    spans: Sequence[Span], counts: Dict[str, float], plans: int
) -> Dict[str, float]:
    """Every per-layer metric derivable from one traced pass.

    Times and counts are per plan operation (a ``solve()`` or a daemon
    plan request), so they do not depend on how many operations fit in
    the run.  A layer the workload does not exercise reads 0.
    """
    if plans < 1:
        raise ValueError("a traced pass needs at least one plan operation")
    totals = outermost_totals(spans)
    selfs = self_times(spans)
    self_totals: Dict[str, float] = {}
    for (name, _, _), value in zip(spans, selfs):
        self_totals[name] = self_totals.get(name, 0.0) + value

    metrics: Dict[str, float] = {}
    for metric, name in TIME_METRICS.items():
        metrics[metric] = totals.get(name, 0.0) / plans
    for metric, name in SELF_METRICS.items():
        metrics[metric] = self_totals.get(name, 0.0) / plans
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0.0) / plans

    hits = counts.get("engine.cache.hits", 0.0)
    lookups = hits + counts.get("engine.cache.misses", 0.0)
    metrics["engine.cache.hit_frac"] = hits / lookups if lookups else 0.0
    greedy = counts.get("setcover.greedy_wins", 0.0)
    arms = greedy + counts.get("setcover.f_approx_wins", 0.0)
    metrics["setcover.greedy_win_frac"] = greedy / arms if arms else 0.0

    parents = nest(spans)
    queue_waits = []
    for index, (name, start, _) in enumerate(spans):
        parent = parents[index]
        if name == "service.apply" and parent is not None:
            if spans[parent][0] == "service.handle":
                queue_waits.append(start - spans[parent][1])
    per_stage = {
        "service.queue_wait_ms": queue_waits,
        "service.journal_ms": [e - s for n, s, e in spans if n == "service.journal"],
        "service.solve_ms": [
            e - s
            for index, (n, s, e) in enumerate(spans)
            if n == "incremental.add_batch" and _under(spans, parents, index, "service.apply")
        ],
    }
    for prefix, durations in per_stage.items():
        metrics[prefix + ".p50"], metrics[prefix + ".p99"] = _ms_summary(durations)
    metrics["trace.unattributed_frac"] = unattributed_fraction(spans)
    return metrics


def _under(spans: Sequence[Span], parents, index: int, name: str) -> bool:
    parent = parents[index]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = parents[parent]
    return False
