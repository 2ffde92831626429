"""Properties, queries and classifiers as canonical frozensets.

Following the paper's formalism (Section 2.1), a *property* is an opaque
atom, a *query* ``q ⊆ P`` is a set of properties, and a *classifier* is a
non-empty subset of some query's properties.  We represent properties as
(non-empty) strings and both queries and classifiers as
``frozenset[str]``.  Using the same immutable, hashable representation
for queries and classifiers mirrors the paper, where a classifier *is* a
set of properties and a query of length ``l`` has ``2^l - 1`` relevant
classifiers.

This module provides canonical constructors, validation and the subset
enumeration helpers used throughout the solvers.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, FrozenSet, Iterable, Iterator, List, Tuple

from repro.exceptions import InvalidInstanceError

# Type aliases shared across the package.  A ``PropertySet`` is the common
# currency: queries and classifiers are both property sets.
PropertySet = FrozenSet[str]
Query = PropertySet
Classifier = PropertySet


def validate_property(prop: object) -> str:
    """Return ``prop`` if it is a valid property, else raise.

    A valid property is a non-empty string with no surrounding whitespace.
    """
    if not isinstance(prop, str):
        raise InvalidInstanceError(f"property must be a string, got {type(prop).__name__}")
    if not prop or prop != prop.strip():
        raise InvalidInstanceError(f"property must be a non-empty trimmed string, got {prop!r}")
    return prop


def property_set(properties: Iterable[object]) -> PropertySet:
    """Build a validated ``PropertySet`` from an iterable of properties."""
    return frozenset(validate_property(p) for p in properties)


def query(spec: object) -> Query:
    """Build a query from a flexible specification.

    Accepts either an iterable of property names or a single
    whitespace-separated string, so ``query("white adidas juventus")`` and
    ``query(["white", "adidas", "juventus"])`` are equivalent.

    Raises :class:`InvalidInstanceError` for empty queries — the model has
    no notion of a query testing zero properties.
    """
    if type(spec) is frozenset:
        # Already a set: validate it and keep the object, so a query
        # passed again (a slid window's log) stays one object, and dict
        # lookups across plans compare by identity.
        for prop in spec:
            validate_property(prop)
        result = spec
    elif isinstance(spec, str):
        result = property_set(spec.split())
    else:
        result = property_set(list(spec))
    if not result:
        raise InvalidInstanceError("a query must test at least one property")
    return result


def classifier(spec: object) -> Classifier:
    """Build a classifier from a flexible specification (same rules as queries).

    A classifier tests the conjunction of its properties; an empty
    classifier is meaningless and rejected.
    """
    result = query(spec)
    return result


def queries(specs: Iterable[object]) -> List[Query]:
    """Build a list of queries; convenience plural of :func:`query`."""
    return [query(spec) for spec in specs]


def canonical_label(props: PropertySet) -> str:
    """A deterministic human-readable label for a property set.

    Properties are sorted so that the label is stable across runs; the
    paper's ``XYZ`` notation corresponds to ``canonical_label({x, y, z})``.
    """
    return "+".join(sorted(props))


def classifier_sort_key(props: PropertySet) -> Tuple[int, Tuple[str, ...]]:
    """Canonical total order for classifiers: length, then lexicographic.

    This is the tie-break order the kernels and reductions use whenever
    a set of classifiers must be walked deterministically (e.g. summing
    float weights, where accumulation order changes the rounded total).
    """
    return (len(props), tuple(sorted(props)))


#: Sums of non-negative integers below this are exact in binary64 in any
#: order: every partial sum is an integer no larger than the total, and
#: each integer below ``2**53`` is representable.
EXACT_INTEGER_SUM = 2**53


def canonical_sum(
    weight: Callable[[Classifier], float], classifiers: Iterable[Classifier]
) -> float:
    """``Σ weight(c)`` over ``classifiers``, the same float whatever their order.

    When every weight is a non-negative integer and the total is below
    :data:`EXACT_INTEGER_SUM`, no partial sum rounds, so the sum in
    arrival order is already the canonical one.  Anything else
    (fractional, infinite or NaN weights, or a larger total) is summed
    in :func:`classifier_sort_key` order.  ``weight`` is called once
    per member.
    """
    members = list(classifiers)
    weights = [weight(clf) for clf in members]
    # Returned only when every term is a non-negative integer and the
    # total is below 2**53: then every order gives this same float.
    total = sum(weights)  # reprolint: sanitize exact integer sum, order-free
    if total < EXACT_INTEGER_SUM and all(w >= 0 and w % 1 == 0 for w in weights):
        return total
    order = sorted(range(len(members)), key=lambda i: classifier_sort_key(members[i]))
    return sum(weights[i] for i in order)


def iter_nonempty_subsets(
    props: PropertySet, max_length: int | None = None
) -> Iterator[Classifier]:
    """Yield all non-empty subsets of ``props`` of length ``<= max_length``.

    With ``max_length=None`` this enumerates ``C_q = 2^q \\ {∅}``, the
    paper's universe of classifiers relevant to query ``q``.  Subsets are
    yielded by increasing length, then lexicographically, so iteration
    order is deterministic.
    """
    ordered = sorted(props)
    limit = len(ordered) if max_length is None else min(max_length, len(ordered))
    for size in range(1, limit + 1):
        for combo in combinations(ordered, size):
            yield frozenset(combo)


def count_nonempty_subsets(length: int, max_length: int | None = None) -> int:
    """Number of classifiers relevant to a query of the given length.

    Equals ``2^length - 1`` when unbounded; with a bound ``k'`` it is the
    partial binomial sum ``sum_{i=1..k'} C(length, i)``.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if max_length is None or max_length >= length:
        return (1 << length) - 1
    total = 0
    from math import comb

    for size in range(1, max_length + 1):
        total += comb(length, size)
    return total


def iter_two_partitions(props: PropertySet) -> Iterator[Tuple[Classifier, Classifier]]:
    """Yield unordered pairs ``(a, b)`` of non-empty sets with ``a | b == props``.

    This is the *disjoint* restriction of the decompositions considered by
    preprocessing step 3 (Algorithm 1, line 8).  Restricting to disjoint
    pairs is a conservative choice: pruning decisions based on a subset of
    the decompositions can only retain extra classifiers, never remove a
    needed one.  :func:`iter_two_covers` enumerates the full (possibly
    overlapping) family at ``O(3^|S|)`` cost.

    Each unordered pair is yielded exactly once (the member containing the
    lexicographically smallest property comes first).
    """
    ordered = sorted(props)
    if len(ordered) < 2:
        return
    anchor = ordered[0]
    rest = ordered[1:]
    # Assign every non-anchor property to side a or side b; anchor stays in
    # a to avoid yielding mirrored duplicates.  Skip the assignment that
    # leaves b empty.
    for pattern in range(1, 1 << len(rest)):
        side_a = [anchor]
        side_b = []
        for index, prop in enumerate(rest):
            if pattern & (1 << index):
                side_b.append(prop)
            else:
                side_a.append(prop)
        yield frozenset(side_a), frozenset(side_b)


def iter_two_covers(props: PropertySet) -> Iterator[Tuple[Classifier, Classifier]]:
    """Yield unordered pairs ``(a, b)`` of non-empty *proper* subsets with
    ``a | b == props``, including overlapping pairs.

    This is the full family from Algorithm 1, line 8 ("all combinations of
    two classifiers whose union is S").  The enumeration assigns every
    property to side a only, side b only, or both — ``3^|props|`` cases —
    and keeps those where both sides are proper subsets.  To yield each
    unordered pair once, the lexicographically smallest property never goes
    to "side b only".
    """
    ordered = sorted(props)
    if len(ordered) < 2:
        return
    anchor, rest = ordered[0], ordered[1:]
    full = frozenset(ordered)
    # Each property in ``rest`` takes one of three assignments; the anchor
    # takes one of two (a-only or both), halving the mirrored duplicates.
    for anchor_in_b in (False, True):
        for pattern in range(3 ** len(rest)):
            side_a = [anchor]
            side_b = [anchor] if anchor_in_b else []
            code = pattern
            for prop in rest:
                code, assignment = divmod(code, 3)
                if assignment == 0:
                    side_a.append(prop)
                elif assignment == 1:
                    side_b.append(prop)
                else:
                    side_a.append(prop)
                    side_b.append(prop)
            a, b = frozenset(side_a), frozenset(side_b)
            if not b or a == full or b == full:
                continue
            if a | b != full:
                continue
            if anchor_in_b and tuple(sorted(a)) > tuple(sorted(b)):
                # When the anchor is on both sides, (a, b) and (b, a) both
                # appear; keep the lexicographically ordered orientation.
                continue
            yield a, b


def union_of(sets: Iterable[PropertySet]) -> PropertySet:
    """Union of property sets; the paper's ``P(S)`` operator."""
    result: set = set()
    for member in sets:
        result |= member
    return frozenset(result)
