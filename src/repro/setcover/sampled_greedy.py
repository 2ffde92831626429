"""Sampling-based sub-linear greedy for Weighted Set Cover.

The recipe follows "Set Cover in Sub-linear Time" (Indyk, Mahabadi,
Rubinfeld, Vakilian & Yodpinyanee): instead of maintaining exact fresh
coverage for every set over the whole universe, estimate coverage gains
on a *sample* of the uncovered elements, run the (exact) greedy on that
restricted sub-instance, and repair whatever the sampled rounds missed.
The final repair phase here is itself an exact greedy over the residual
uncovered elements, so the output is always a feasible cover and the
only quality loss comes from early selections being guided by sampled
rather than exact gains ("No need to choose" by Ailon & Karnin is the
theory anchor for keeping approximation quality under sampling).

Inputs are *set systems*, a duck-typed superset of
:class:`~repro.core.wsc.WSCInstance`: anything exposing
``universe_size``, ``num_sets``, ``set_cost(set_id)``,
``set_members(set_id)``, and ``sets_containing(element_id)`` over dense
integer ids.  Crucially the algorithm touches *only* the members of
selected sets and the candidate lists of sampled/residual elements —
never the full incidence structure — so a lazily-evaluated system (see
:mod:`repro.datasets.scale`) is solved without ever materialising the
instance.  This is what makes the 1M–10M-query scale tiers tractable:
the materialise-then-solve pipeline is O(n·f) time and memory before
the solver even starts, while this path is O(sample + solution).

Determinism contract (reprolint RPL504): the only randomness is a
``random.Random`` seeded from the explicit ``seed`` argument, so output
is bit-identical across runs, processes, ``jobs`` settings, and
``PYTHONHASHSEED`` values.  Below ``exact_threshold`` the sampler is
skipped entirely and the classic Chvátal greedy answers, keeping the
``ln Δ + 1`` guarantee exact on every small instance.
"""

from __future__ import annotations

import heapq
import random
from hashlib import blake2b
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.kernels.pyjit import greedy_wsc, sampled_gains
from repro.core.wsc import WSCInstance, WSCSolution
from repro.exceptions import SolverError, UncoverableQueryError

#: Geometric sample schedule: fraction of the universe sampled per
#: round.  Two rounds keep per-set gain estimates statistically usable
#: (the second round samples harder because most of the universe is
#: already covered) while the residual exact-greedy pass mops up the
#: tail.  Part of every cache token that involves this solver.
DEFAULT_SAMPLE_RATES: Tuple[float, ...] = (0.02, 0.08)

#: Below this universe size sampling cannot pay for itself; the classic
#: Chvátal greedy runs instead (exactness fallback, guarantee intact).
DEFAULT_EXACT_THRESHOLD = 4096


def derive_seed(seed: int, queries: Iterable[Iterable[str]]) -> int:
    """A per-component seed from the solver seed and the component content.

    Components must sample independently (identical sampling across
    components would correlate their errors) yet deterministically across
    process boundaries and ``PYTHONHASHSEED`` values — so the mix uses a
    content digest of the canonically-sorted query labels, never the
    builtin ``hash``.
    """
    digest = blake2b(str(int(seed)).encode("ascii"), digest_size=8)
    for rendered in sorted(",".join(sorted(q)) for q in queries):
        digest.update(b"|")
        digest.update(rendered.encode("utf-8"))
    return int.from_bytes(digest.digest(), "little")


def _uncovered_ids(covered: bytearray) -> List[int]:
    """Ids of the zero bytes in ``covered`` — a C-speed ``find`` scan, so
    the cost is proportional to ``n`` memchr plus the uncovered count."""
    out: List[int] = []
    find = covered.find
    index = find(0)
    while index != -1:
        out.append(index)
        index = find(0, index + 1)
    return out


def _materialize(system) -> WSCInstance:
    """A concrete :class:`WSCInstance` mirroring ``system`` with identical
    dense ids (used only for the small-instance exactness fallback)."""
    instance = WSCInstance()
    for element_id in range(system.universe_size):
        instance.add_element(element_id)
    for set_id in range(system.num_sets):
        instance.add_set_ids(set_id, system.set_members(set_id), system.set_cost(set_id))
    return instance


def _greedy_restricted(
    system,
    elements: Sequence[int],
    covered: bytearray,
    chosen: bytearray,
    selection: List[int],
) -> Tuple[float, int]:
    """Exact Chvátal greedy on the sub-instance induced by ``elements``.

    ``elements`` must be uncovered and sorted ascending.  Selected sets
    are appended to ``selection`` and their *full* membership is marked
    in ``covered`` (coverage beyond the sample is what makes the sampled
    rounds sub-linear: one selection pays for many unsampled elements).
    Returns ``(added cost, newly covered element count)``.
    """
    nbytes = (len(elements) + 7) >> 3
    buffers: Dict[int, bytearray] = {}
    for index, element in enumerate(elements):
        candidates = system.sets_containing(element)
        hit = False
        for set_id in candidates:
            if chosen[set_id]:
                continue  # pre-chosen sets already marked their members
            buffer = buffers.get(set_id)
            if buffer is None:
                buffer = buffers[set_id] = bytearray(nbytes)
            buffer[index >> 3] |= 1 << (index & 7)
            hit = True
        if not hit:
            raise UncoverableQueryError(
                frozenset([element]),
                f"WSC element {element!r} belongs to no selectable set",
            )
    set_ids = sorted(buffers)
    masks = [int.from_bytes(buffers[set_id], "little") for set_id in set_ids]
    costs = [system.set_cost(set_id) for set_id in set_ids]
    gains = sampled_gains(masks, 0)

    # Lazy-deletion heap, same discipline and tie-breaks as the full
    # greedy kernel: ties on ratio resolve by lowest (global) set id.
    heap = [
        (costs[local_id] / gain, set_ids[local_id], local_id, gain)
        for local_id, gain in enumerate(gains)
        if gain
    ]
    heapq.heapify(heap)

    local_covered = 0
    need = len(elements)
    matched = 0
    added_cost = 0.0
    newly_global = 0
    while matched < need:
        if not heap:
            raise SolverError(
                "sampled greedy ran out of sets before covering its sample"
            )
        _ratio, set_id, local_id, recorded = heapq.heappop(heap)
        fresh_mask = masks[local_id] & ~local_covered
        fresh = fresh_mask.bit_count()
        if fresh == 0:
            continue
        if fresh != recorded:
            heapq.heappush(
                heap, (costs[local_id] / fresh, set_id, local_id, fresh)
            )
            continue
        selection.append(set_id)
        chosen[set_id] = 1
        added_cost += costs[local_id]
        local_covered |= fresh_mask
        matched += fresh
        for element in system.set_members(set_id):
            if not covered[element]:
                covered[element] = 1
                newly_global += 1
    return added_cost, newly_global


def sampled_greedy_wsc(
    system,
    seed: int = 0,
    rates: Sequence[float] = DEFAULT_SAMPLE_RATES,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    stats: Optional[dict] = None,
) -> WSCSolution:
    """Solve a set system with the sampling-based sub-linear greedy.

    Parameters
    ----------
    system:
        A :class:`WSCInstance` or any duck-typed set system (see the
        module docstring).  Lazily-evaluated systems are never
        materialised.
    seed:
        Seeds the element sampler (the algorithm's only randomness).
        Thread the engine-level seed here — see :func:`derive_seed` for
        the per-component mix.
    rates:
        Per-round sample rates over the universe size; each round runs
        an exact greedy on its sampled sub-instance.  The tuple is part
        of the algorithm's identity and belongs in every cache token.
    exact_threshold:
        Universe size at or below which the classic greedy runs instead
        (``ln Δ + 1`` guarantee preserved exactly).
    stats:
        Optional dict filled with per-phase telemetry (mode, rounds,
        residual size, selection count).
    """
    n = int(system.universe_size)
    if n <= int(exact_threshold):
        instance = system if isinstance(system, WSCInstance) else _materialize(system)
        solution = greedy_wsc(instance)
        if stats is not None:
            stats.update(
                {"mode": "exact-fallback", "universe": n, "rounds": [],
                 "residual_elements": 0, "sets_selected": len(solution.set_ids)}
            )
        return solution

    rng = random.Random(f"sampled-wsc-{int(seed)}")
    covered = bytearray(n)
    chosen = bytearray(system.num_sets)
    selection: List[int] = []
    total_cost = 0.0
    uncovered_count = n
    round_stats: List[dict] = []

    for round_index, rate in enumerate(rates):
        if uncovered_count == 0:
            break
        target = max(1, min(uncovered_count, round(float(rate) * n)))
        if round_index == 0:
            # Nothing is covered yet: sample directly from the id range
            # without materialising a population list.
            sampled = sorted(rng.sample(range(n), target))
        else:
            population = _uncovered_ids(covered)
            if target >= len(population):
                sampled = population
            else:
                sampled = sorted(rng.sample(population, target))
        cost, newly = _greedy_restricted(
            system, sampled, covered, chosen, selection
        )
        total_cost += cost
        uncovered_count -= newly
        round_stats.append(
            {"rate": float(rate), "sampled": len(sampled),
             "newly_covered": newly, "uncovered_after": uncovered_count}
        )

    residual = _uncovered_ids(covered) if uncovered_count else []
    if residual:
        # Repair phase: exact greedy on the residual sub-instance.  This
        # both guarantees feasibility and keeps quality tight — the
        # sampled rounds only ever *guide* selections, the tail is solved
        # exactly.
        cost, newly = _greedy_restricted(
            system, residual, covered, chosen, selection
        )
        total_cost += cost
        uncovered_count -= newly
    if uncovered_count:
        raise SolverError(
            f"sampled greedy left {uncovered_count} elements uncovered"
        )

    if stats is not None:
        stats.update(
            {"mode": "sampled", "universe": n, "rounds": round_stats,
             "residual_elements": len(residual),
             "sets_selected": len(selection)}
        )
    return WSCSolution(selection, total_cost)
