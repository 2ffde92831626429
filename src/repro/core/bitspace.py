"""Bitset property space: interned integer-bitmask hot paths.

The frozenset representation of :mod:`repro.core.properties` is the
package's public currency, but inside one property-disjoint component
every hot loop — dominated pruning's decomposition search, the
single-query min-cover DP, the MC³ → WSC reduction and the greedy set
cover — repeats the same subset/union/intersection tests on tiny sets
of strings, paying string hashing and a set-object allocation per test.

A :class:`PropertySpace` interns a component's properties to bit
positions (sorted order, so bit ``i`` is the ``i``-th property
lexicographically) and represents every query and classifier as a plain
``int`` mask.  Subset testing becomes ``a & ~b == 0``, union ``a | b``,
"freshly covered" a popcount — single machine-word operations for the
component sizes preprocessing produces (the same dense-id trick
:class:`~repro.setcover.instance.WSCInstance` uses for elements).

Interning is scoped to one component: each ``solve_component`` (and
each :class:`~repro.preprocess.dominated.DominatedPruner`) builds its
own space, so masks stay as wide as the *component's* property count,
not the instance's.  Because bit order mirrors lexicographic property
order, mask enumeration helpers reproduce the deterministic orders of
their frozenset counterparts exactly, keeping outputs bit-identical.
"""

from __future__ import annotations

import hashlib
import math
import struct
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.costs import CostModel, OverlayCost
from repro.core.properties import Classifier, PropertySet, Query

INFINITY = math.inf


def popcount(mask: int) -> int:
    """Number of set bits (classifier/query length of a mask)."""
    return mask.bit_count()


def mask_union(masks: Iterable[int]) -> int:
    """Union of masks; the mask-level ``P(S)`` operator."""
    result = 0
    for mask in masks:
        result |= mask
    return result


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PropertySpace:
    """Bidirectional interning between a component's properties and bits.

    Properties are assigned bits in sorted (lexicographic) order, so for
    any mask the ascending bit positions correspond to the sorted
    property names — the invariant every deterministic-order guarantee
    below rests on.
    """

    __slots__ = ("_properties", "_bit_of", "_set_cache")

    def __init__(self, properties: Iterable[str]):
        ordered = sorted(set(properties))
        self._properties: Tuple[str, ...] = tuple(ordered)
        self._bit_of: Dict[str, int] = {p: i for i, p in enumerate(ordered)}
        # mask -> frozenset, shared across all conversions in this space.
        self._set_cache: Dict[int, Classifier] = {}

    @classmethod
    def from_queries(cls, queries: Iterable[Query]) -> "PropertySpace":
        """Space over the union of the queries' properties."""
        props: List[str] = []
        for q in queries:
            props.extend(q)
        return cls(props)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of interned properties (mask width)."""
        return len(self._properties)

    @property
    def properties(self) -> Tuple[str, ...]:
        """Interned properties; index ``i`` is the property of bit ``i``."""
        return self._properties

    @property
    def full_mask(self) -> int:
        """Mask with every interned property set."""
        return (1 << len(self._properties)) - 1

    def mask_of(self, props: PropertySet) -> int:
        """Intern a property set to its mask (``KeyError`` on foreign
        properties — masks never silently cross component boundaries)."""
        bit_of = self._bit_of
        mask = 0
        for prop in props:
            mask |= 1 << bit_of[prop]
        return mask

    def set_of(self, mask: int) -> Classifier:
        """The frozenset a mask denotes (memoised per space)."""
        cached = self._set_cache.get(mask)
        if cached is None:
            names = self._properties
            cached = frozenset(names[bit] for bit in iter_bits(mask))
            self._set_cache[mask] = cached
        return cached

    def bits_of(self, mask: int) -> Tuple[int, ...]:
        """Ascending set-bit positions (sorted-property order)."""
        return tuple(iter_bits(mask))

    def label(self, mask: int) -> str:
        """``canonical_label`` of the mask's property set."""
        return "+".join(self._properties[bit] for bit in iter_bits(mask))

    # ------------------------------------------------------------------
    # Enumeration helpers (mask mirrors of repro.core.properties)
    # ------------------------------------------------------------------

    def iter_subset_masks(
        self, mask: int, max_length: Optional[int] = None
    ) -> Iterator[int]:
        """Non-empty submasks of ``mask``, by increasing popcount then
        lexicographically — the exact order of
        :func:`~repro.core.properties.iter_nonempty_subsets` under the
        sorted-property interning."""
        bits = [1 << bit for bit in iter_bits(mask)]
        limit = len(bits) if max_length is None else min(max_length, len(bits))
        for size in range(1, limit + 1):
            for combo in combinations(bits, size):
                sub = 0
                for bit in combo:
                    sub |= bit
                yield sub

    def iter_two_partition_masks(self, mask: int) -> Iterator[Tuple[int, int]]:
        """Unordered pairs ``(a, b)`` of non-empty *disjoint* masks with
        ``a | b == mask`` — the family of
        :func:`~repro.core.properties.iter_two_partitions` (enumeration
        order differs; callers take a minimum over the family)."""
        if popcount(mask) < 2:
            return
        anchor = mask & -mask  # lowest bit stays on side a: no mirrors
        rest = mask ^ anchor
        sub = rest
        while sub:
            yield mask ^ sub, sub
            sub = (sub - 1) & rest

    @staticmethod
    def iter_two_cover_masks(mask: int) -> Iterator[Tuple[int, int]]:
        """Unordered pairs of non-empty *proper* submasks with union
        ``mask``, including overlapping pairs — the family of
        :func:`~repro.core.properties.iter_two_covers` (``O(3^len)``
        cases; order differs, callers take a minimum)."""
        if popcount(mask) < 2:
            return
        # a runs over proper non-empty submasks; b must contain the
        # complement of a plus any overlap s ⊆ a (s == a would make b the
        # full mask).  Each unordered pair appears once as (a, b) with
        # a < b and once mirrored, so keep the a < b orientation.
        a = (mask - 1) & mask
        while a:
            complement = mask ^ a
            s = (a - 1) & a  # proper submasks of a, including 0
            while True:
                b = complement | s
                if a < b:
                    yield a, b
                if s == 0:
                    break
                s = (s - 1) & a
            a = (a - 1) & mask


class MaskCost:
    """Mask-keyed cost overlay over a component's frozenset cost model.

    Reads are memoised by mask (``int`` hashing instead of frozenset
    hashing) and :meth:`select` / :meth:`remove` write *through* to the
    underlying :class:`~repro.core.costs.OverlayCost`, so the rest of
    the pipeline — which keeps pricing by frozenset — observes every
    mask-level decision.  The cache stays coherent because the owning
    pass is the only writer while it runs (preprocessing components are
    property-disjoint, so two pruners never share classifiers).
    """

    __slots__ = ("space", "base", "_cache")

    def __init__(self, space: PropertySpace, base: CostModel):
        self.space = space
        self.base = base
        self._cache: Dict[int, float] = {}

    def cost(self, mask: int) -> float:
        cached = self._cache.get(mask)
        if cached is None:
            cached = self.base.cost(self.space.set_of(mask))
            self._cache[mask] = cached
        return cached

    def select(self, mask: int) -> None:
        """Weight 0 (selected), here and in the base overlay."""
        base = self.base
        if isinstance(base, OverlayCost):
            base.select(self.space.set_of(mask))
        self._cache[mask] = 0.0

    def remove(self, mask: int) -> None:
        """Weight ``∞`` (removed), here and in the base overlay."""
        base = self.base
        if isinstance(base, OverlayCost):
            base.remove(self.space.set_of(mask))
        self._cache[mask] = INFINITY

    def stats(self) -> Dict[str, int]:
        """Cache footprint, for telemetry."""
        return {"properties": self.space.size, "cached_costs": len(self._cache)}


# ----------------------------------------------------------------------
# Content-addressed component fingerprints
# ----------------------------------------------------------------------

#: Bumped whenever the fingerprint's byte layout changes, so stale
#: on-disk cache entries can never be confused with current ones.
#: v2: cost content is fed as either a model content-token or the
#: enumerated per-candidate prices (domain-separated).
#: v3: the content token is scoped to the component's properties.
#: v4: no kernel-backend knob (there is one kernel implementation).
FINGERPRINT_VERSION = 4

#: The rung slot cache lookups pin: cached entries always hold the
#: *primary* solver's answer (fallback/degraded outputs are never
#: inserted, see :mod:`repro.engine.cache`).
PRIMARY_RUNG = "primary"


def _feed_bytes(digest, data: bytes) -> None:
    """Length-prefixed update — unambiguous concatenation."""
    digest.update(len(data).to_bytes(4, "little"))
    digest.update(data)


def _feed_text(digest, text: str) -> None:
    _feed_bytes(digest, text.encode("utf-8"))


def _feed_mask(digest, mask: int) -> None:
    """Masks may exceed one machine word; encode as little-endian bytes."""
    width = (mask.bit_length() + 7) // 8 or 1
    _feed_bytes(digest, mask.to_bytes(width, "little"))


def _feed_float(digest, value: float) -> None:
    """Exact IEEE-754 bits — no string rounding, ``inf`` included."""
    digest.update(struct.pack("<d", value))


def _feed_knob(digest, part: object) -> None:
    """Type-tagged scalar encoding for solver/route knob tokens, so
    ``1`` and ``"1"`` (or ``None`` and ``"None"``) can never collide."""
    if part is None:
        _feed_text(digest, "n:")
    elif isinstance(part, bool):
        _feed_text(digest, f"b:{int(part)}")
    elif isinstance(part, int):
        _feed_text(digest, f"i:{part}")
    elif isinstance(part, float):
        _feed_text(digest, "f:")
        _feed_float(digest, part)
    else:
        _feed_text(digest, f"s:{part}")


def component_fingerprint(
    component,
    solver_token: Sequence[object] = (),
    route: Optional[str] = None,
    rung: str = PRIMARY_RUNG,
) -> str:
    """Canonical content hash of one property-disjoint component.

    Two components receive the same fingerprint **iff** a deterministic
    solver must produce the same answer for both: the hash covers the
    interned property grid (sorted names — the
    :class:`PropertySpace` invariant makes this canonical), the query
    masks (sorted, so input order cannot leak in), the pricing content,
    and every output-affecting knob: the solver's cache token, the
    engine route, and the resilience rung slot.

    Pricing is captured one of two domain-separated ways.  When the
    component's cost chain advertises a
    :meth:`~repro.core.costs.CostModel.content_token` (tables, overlays,
    every shipped model except opaque callables), the token *scoped to
    the component's sorted property tuple* is fed directly.  Every
    candidate classifier is a subset of one of the component's queries,
    so it lies inside those properties; the scoped token pins the price
    of every candidate while ignoring overlay edits elsewhere in the
    load.  Two components that agree on properties, query masks, base
    digest, length cap and in-scope overrides therefore share a
    fingerprint — a re-plan whose edits touch other components is served
    from the cache.  Immutable models digest their whole content once;
    an overlay digests only its in-scope overrides, found through a
    per-property index.  Otherwise every candidate classifier the
    solvers may consider (all submasks of the queries up to
    ``max_classifier_length``) is priced through ``component.weight``
    so overlay select/remove state is captured exactly, floats encoded
    bit-for-bit.

    ``component`` needs only ``queries``, ``weight`` and
    ``max_classifier_length`` (the :class:`~repro.core.instance.MC3Instance`
    surface).  Nothing hash-seed-dependent is consumed: no ``hash()``,
    no ``id()``, no ``repr()`` of unordered containers, no unsorted
    set/dict iteration (reprolint RPL204 enforces this).
    """
    space = PropertySpace.from_queries(component.queries)
    digest = hashlib.blake2b(digest_size=20)
    _feed_text(digest, f"mc3-component-fingerprint/v{FINGERPRINT_VERSION}")

    _feed_text(digest, str(len(space.properties)))
    for name in space.properties:  # already sorted by the interning
        _feed_text(digest, name)

    qmasks = sorted({space.mask_of(q) for q in component.queries})
    _feed_text(digest, str(len(qmasks)))
    for qmask in qmasks:
        _feed_mask(digest, qmask)

    cap = component.max_classifier_length
    _feed_knob(digest, cap)
    cost_token = None
    token_of = getattr(component, "cost_content_token", None)
    if token_of is not None:
        cost_token = token_of(space.properties)
    if cost_token is not None:
        # Content-token fast path: the cost chain digests its own
        # pricing inside this component's properties, so candidates
        # need not be priced one by one.  Domain-separated from the
        # enumerated path — the two encodings can never collide.
        _feed_text(digest, "costs:token")
        _feed_bytes(digest, cost_token)
    else:
        _feed_text(digest, "costs:enumerated")
        seen_masks = set()
        for qmask in qmasks:
            for sub in space.iter_subset_masks(qmask, cap):
                if sub in seen_masks:
                    continue
                seen_masks.add(sub)
                _feed_mask(digest, sub)
                _feed_float(digest, component.weight(space.set_of(sub)))

    _feed_text(digest, str(len(tuple(solver_token))))
    for part in tuple(solver_token):
        _feed_knob(digest, part)
    _feed_knob(digest, route)
    _feed_knob(digest, rung)
    return digest.hexdigest()


def compress_masks(qmask: int, masks: Sequence[int]) -> Tuple[int, List[int]]:
    """Re-index component-space masks to query-local bit positions.

    Returns ``(full, locals)`` where ``full = 2^popcount(qmask) - 1``
    and ``locals`` holds each submask of ``qmask`` with every component
    bit replaced by its rank within ``qmask``; masks that are not
    submasks of ``qmask`` are dropped.  Ascending component bits map to
    ascending local bits, so sorted-property order (and with it every
    tie-break that depends on enumeration order) is preserved.
    """
    local_of = {bit: i for i, bit in enumerate(iter_bits(qmask))}
    compressed: List[int] = []
    for mask in masks:
        if mask & ~qmask:
            continue
        local = 0
        for bit in iter_bits(mask):
            local |= 1 << local_of[bit]
        compressed.append(local)
    return (1 << len(local_of)) - 1, compressed
