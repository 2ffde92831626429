"""Section 5.2: the reduction from MC³ to Weighted Set Cover.

For every query ``q`` and property ``p ∈ q`` the universe gets a distinct
element ``(p, q)``.  Every finite-weight classifier ``S`` becomes a set
containing element ``(x, q)`` iff ``x ∈ S`` and ``S ⊆ q`` — i.e. the
classifier covers its properties *in every query it fits inside*.  Set
costs are classifier weights; solutions translate back one-to-one and
cost-for-cost (the instances are "completely analogous", Figure 2).

The builder runs on interned bitmasks: queries and candidate
classifiers are masks in a per-call (or caller-supplied)
:class:`~repro.core.bitspace.PropertySpace`, each distinct classifier's
weight is looked up once per mask instead of once per ``(query,
classifier)`` occurrence, and set members are accumulated as dense
element ids — skipping the label round-trips of the original reduction
while producing an identical :class:`~repro.core.wsc.WSCInstance`
(same element ids, set ids, labels, and costs; see
:mod:`repro.core.reference`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.bitspace import PropertySpace, popcount
from repro.core.instance import MC3Instance
from repro.core.solution import Solution
from repro.exceptions import UncoverableQueryError
from repro.setcover import WSCInstance, WSCSolution


def mc3_to_wsc(
    instance: MC3Instance, space: Optional[PropertySpace] = None
) -> WSCInstance:
    """Build the WSC instance of Section 5.2 for an MC³ instance.

    Elements are ``(property, query_index)`` pairs; set labels are the
    classifiers themselves.  ``space`` lets component solvers reuse an
    existing interning (it must cover the instance's properties); when
    omitted one is built for this call.  Raises
    :class:`UncoverableQueryError` if a query's elements cannot all be
    covered (equivalently, the query has no finite-cost cover).
    """
    if space is None:
        space = PropertySpace.from_queries(instance.queries)
    prop_names = space.properties
    max_length = instance.max_classifier_length

    wsc = WSCInstance()
    # Register all elements first so uncoverable ones are detectable.
    # Element ids ascend per query in sorted-property (= ascending bit)
    # order, matching the original sorted(q) registration.
    query_bits: List[tuple] = []
    element_of: List[Dict[int, int]] = []  # per query: bit -> element id
    for query_index, q in enumerate(instance.queries):
        bits = space.bits_of(space.mask_of(q))
        ids = {
            bit: wsc.add_element((prop_names[bit], query_index)) for bit in bits
        }
        query_bits.append(bits)
        element_of.append(ids)

    weight_of: Dict[int, float] = {}  # classifier mask -> weight, once each
    members: Dict[int, List[int]] = {}  # classifier mask -> element ids
    for query_index, bits in enumerate(query_bits):
        qmask = 0
        for bit in bits:
            qmask |= 1 << bit
        ids = element_of[query_index]
        for mask in space.iter_subset_masks(qmask, max_length):
            weight = weight_of.get(mask)
            if weight is None:
                weight = instance.weight(space.set_of(mask))
                weight_of[mask] = weight
            if not math.isfinite(weight):
                continue
            bucket = members.setdefault(mask, [])
            sub = mask
            while sub:
                low = sub & -sub
                bucket.append(ids[low.bit_length() - 1])
                sub ^= low

    # (popcount, ascending bits) reproduces the original (length, sorted
    # label) set ordering — bit order is lexicographic property order.
    for mask in sorted(members, key=lambda m: (popcount(m), space.bits_of(m))):
        wsc.add_set_ids(space.set_of(mask), members[mask], weight_of[mask])

    try:
        wsc.validate_coverable()
    except UncoverableQueryError as exc:
        # Re-raise with the offending *query* rather than the WSC element.
        prop, query_index = next(iter(exc.query))
        raise UncoverableQueryError(instance.queries[query_index]) from exc
    return wsc


def wsc_solution_to_mc3(wsc: WSCInstance, solution: WSCSolution, instance: MC3Instance) -> Solution:
    """Translate a WSC solution back to classifiers (set labels) and price
    it against the MC³ instance; costs agree by construction."""
    classifiers = [wsc.set_label(set_id) for set_id in solution.set_ids]
    return Solution.from_instance(classifiers, instance)
