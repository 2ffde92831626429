"""Weighted Set Cover instances (Definition 2.4).

A :class:`WSCInstance` owns a universe of elements and a collection of
weighted sets.  Elements and sets carry arbitrary hashable labels so the
MC³ → WSC reduction can use ``(property, query)`` pairs and classifiers
directly; internally everything is dense integer ids.

The instance exposes the two parameters the paper's bounds are stated
in: the *frequency* ``f`` (max number of sets any element belongs to)
and the *degree* ``Δ`` (cardinality of the largest set).

A leaf module: the kernel module (:mod:`repro.core.kernels.pyjit`) and
the :mod:`repro.setcover` package both import it, and it imports
neither.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidInstanceError, UncoverableQueryError


class WSCSolution:
    """A selection of sets with its total cost.

    ``lower_bound`` is a bound on the optimum that the algorithm proved
    on the way, when it has one: the LP optimum as its row duals
    certify it for LP rounding, the dual sum for primal–dual, the
    optimum itself for branch-and-bound.
    ``None`` means the algorithm proves nothing (greedy).
    """

    __slots__ = ("set_ids", "cost", "lower_bound")

    def __init__(
        self,
        set_ids: Iterable[int],
        cost: float,
        lower_bound: Optional[float] = None,
    ):
        self.set_ids: Tuple[int, ...] = tuple(set_ids)
        self.cost = float(cost)
        self.lower_bound = lower_bound

    def __len__(self) -> int:
        return len(self.set_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WSCSolution cost={self.cost} sets={len(self.set_ids)}>"


class WSCInstance:
    """Universe + weighted sets, with validation and parameter analysis."""

    def __init__(self) -> None:
        self._element_ids: Dict[Hashable, int] = {}
        self._element_labels: List[Hashable] = []
        self._set_labels: List[Hashable] = []
        self._set_members: List[List[int]] = []
        self._set_costs: List[float] = []
        self._element_sets: List[List[int]] = []  # element id -> set ids
        self._member_masks: Optional[List[int]] = None  # lazy, see member_masks()
        self._member_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None  # lazy

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_element(self, label: Hashable) -> int:
        """Register a universe element; idempotent, returns its id."""
        if label in self._element_ids:
            return self._element_ids[label]
        element_id = len(self._element_labels)
        self._element_ids[label] = element_id
        self._element_labels.append(label)
        self._element_sets.append([])
        return element_id

    def add_set(self, label: Hashable, members: Iterable[Hashable], cost: float) -> int:
        """Add a weighted set over (possibly new) element labels.

        Infinite or NaN costs are rejected — the convention, as in the
        paper, is that unavailable sets are simply not part of the input.
        """
        if not math.isfinite(cost) or cost < 0:
            raise InvalidInstanceError(f"set cost must be finite and >= 0, got {cost}")
        member_ids = sorted({self.add_element(m) for m in members})
        if not member_ids:
            raise InvalidInstanceError(f"set {label!r} has no elements")
        set_id = len(self._set_labels)
        self._set_labels.append(label)
        self._set_members.append(member_ids)
        self._set_costs.append(float(cost))
        for element_id in member_ids:
            self._element_sets[element_id].append(set_id)
        self._member_masks = None
        self._member_arrays = None
        return set_id

    def add_set_ids(self, label: Hashable, member_ids: Iterable[int], cost: float) -> int:
        """Add a weighted set over already-registered element *ids*.

        Fast path for builders that track dense ids themselves (the
        bitmask MC³ → WSC reduction): skips the per-member label lookup
        of :meth:`add_set`.  Ids must come from prior
        :meth:`add_element` calls; unknown ids raise.
        """
        if not math.isfinite(cost) or cost < 0:
            raise InvalidInstanceError(f"set cost must be finite and >= 0, got {cost}")
        ordered = sorted(set(member_ids))
        if not ordered:
            raise InvalidInstanceError(f"set {label!r} has no elements")
        if ordered[0] < 0 or ordered[-1] >= len(self._element_labels):
            raise InvalidInstanceError(
                f"set {label!r} references unregistered element ids"
            )
        set_id = len(self._set_labels)
        self._set_labels.append(label)
        self._set_members.append(ordered)
        self._set_costs.append(float(cost))
        for element_id in ordered:
            self._element_sets[element_id].append(set_id)
        self._member_masks = None
        self._member_arrays = None
        return set_id

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def universe_size(self) -> int:
        return len(self._element_labels)

    @property
    def num_sets(self) -> int:
        return len(self._set_labels)

    def element_label(self, element_id: int) -> Hashable:
        return self._element_labels[element_id]

    def set_label(self, set_id: int) -> Hashable:
        return self._set_labels[set_id]

    def set_members(self, set_id: int) -> List[int]:
        return self._set_members[set_id]

    def set_cost(self, set_id: int) -> float:
        return self._set_costs[set_id]

    def set_costs(self) -> List[float]:
        """All set costs, indexed by set id (the backing list — do not
        mutate).  Lets batch kernels grab every cost in one call instead
        of ``num_sets`` :meth:`set_cost` round-trips."""
        return self._set_costs

    def sets_containing(self, element_id: int) -> List[int]:
        return self._element_sets[element_id]

    def member_masks(self) -> List[int]:
        """Per-set member bitmasks over element ids (bit ``e`` ⇔ element
        ``e`` belongs to the set).

        Built lazily on first use and cached until the instance grows;
        the greedy solvers use these so "freshly covered" is a popcount
        of ``members & ~covered`` instead of a per-element scan.
        """
        if self._member_masks is None:
            # Build each mask in a byte buffer and convert once: repeated
            # ``mask |= 1 << e`` on a python int is O(universe/64) per
            # member (the big int is copied every time), which turns
            # scale-tier universes into minutes; setting bits in a
            # bytearray is O(1) per member and ``int.from_bytes`` is a
            # single C pass.  The resulting masks are identical.
            nbytes = (len(self._element_labels) + 7) >> 3
            masks: List[int] = []
            for members in self._set_members:
                buf = bytearray(nbytes)
                for element_id in members:
                    buf[element_id >> 3] |= 1 << (element_id & 7)
                masks.append(int.from_bytes(buf, "little"))
            self._member_masks = masks
        return self._member_masks

    def member_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every set's member ids in compressed-column form: set ``s``
        holds ``indices[indptr[s]:indptr[s + 1]]``, ascending (both
        ``int32``).

        Built lazily and cached until the instance grows, so the LP
        relaxation and its dual bound share one build.
        """
        if self._member_arrays is None:
            members = self._set_members
            starts = list(accumulate(map(len, members), initial=0))
            indptr = np.array(starts, dtype=np.int32)
            indices = np.fromiter(chain.from_iterable(members), np.int32, starts[-1])
            self._member_arrays = (indptr, indices)
        return self._member_arrays

    def solution_labels(self, solution: WSCSolution) -> List[Hashable]:
        """Labels of the selected sets (deterministic order)."""
        return [self._set_labels[set_id] for set_id in solution.set_ids]

    # ------------------------------------------------------------------
    # Parameters and validation
    # ------------------------------------------------------------------

    def frequency(self) -> int:
        """``f``: maximum number of sets any element belongs to (0 for an
        empty universe)."""
        if not self._element_sets:
            return 0
        return max(len(sets) for sets in self._element_sets)

    def degree(self) -> int:
        """``Δ``: cardinality of the largest set (0 if no sets)."""
        if not self._set_members:
            return 0
        return max(len(members) for members in self._set_members)

    def validate_coverable(self) -> None:
        """Every element must belong to at least one set."""
        for element_id, sets in enumerate(self._element_sets):
            if not sets:
                raise UncoverableQueryError(
                    frozenset([self._element_labels[element_id]]),
                    f"WSC element {self._element_labels[element_id]!r} "
                    "belongs to no set",
                )

    def verify_solution(self, solution: WSCSolution) -> None:
        """Independent feasibility + cost check."""
        covered = set()
        total = 0.0
        for set_id in solution.set_ids:
            covered.update(self._set_members[set_id])
            total += self._set_costs[set_id]
        if len(covered) != self.universe_size:
            missing = self.universe_size - len(covered)
            raise InvalidInstanceError(f"WSC solution leaves {missing} elements uncovered")
        if not math.isclose(total, solution.cost, rel_tol=1e-9, abs_tol=1e-9):
            raise InvalidInstanceError(
                f"WSC solution cost mismatch: recorded {solution.cost}, actual {total}"
            )

    def prune_redundant(self, set_ids: Sequence[int]) -> List[int]:
        """Drop sets that are redundant in the given cover.

        Iterates most-expensive-first and removes any set whose elements
        remain covered without it.  Used to post-process the LP rounding
        (removals only lower the cost, so approximation guarantees are
        preserved).
        """
        selected = list(set_ids)
        coverage_count = [0] * self.universe_size
        for set_id in selected:
            for element_id in self._set_members[set_id]:
                coverage_count[element_id] += 1
        for set_id in sorted(selected, key=lambda sid: -self._set_costs[sid]):
            if all(coverage_count[e] >= 2 for e in self._set_members[set_id]):
                selected.remove(set_id)
                for element_id in self._set_members[set_id]:
                    coverage_count[element_id] -= 1
        return selected

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WSCInstance |U|={self.universe_size} m={self.num_sets} "
            f"f={self.frequency()} deg={self.degree()}>"
        )
