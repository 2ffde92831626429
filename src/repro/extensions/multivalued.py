"""Multi-valued classifiers (Section 5.3).

Two regimes from the paper:

* **Only multi-valued classifiers** — merge all properties belonging to
  the same attribute ("color = red", "color = blue" → "color"); the
  result is again an ordinary MC³ instance over attributes
  (:func:`merge_attributes`).
* **Multi-valued alongside binary classifiers** — extend the WSC
  reduction with one extra set per multi-valued classifier that covers
  every element whose property is a value of that attribute
  (:func:`extended_wsc`).  Analysis then follows the binary case.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.core.costs import TableCost
from repro.core.instance import MC3Instance
from repro.core.properties import Classifier, Query
from repro.reductions import mc3_to_wsc
from repro.setcover import WSCInstance, solve_wsc


class AttributeSchema:
    """Maps properties ("color=red") to attributes ("color").

    Properties without an attribute are their own singleton attribute —
    convenient for loads where only some properties are attribute
    values.
    """

    def __init__(self, attribute_of: Mapping[str, str]):
        self.attribute_of: Dict[str, str] = {str(k): str(v) for k, v in attribute_of.items()}

    def attribute(self, prop: str) -> str:
        return self.attribute_of.get(prop, prop)

    def values_of(self, attribute: str, properties: Iterable[str]) -> List[str]:
        """Properties among ``properties`` whose attribute is ``attribute``."""
        return sorted(p for p in properties if self.attribute(p) == attribute)

    def merge_query(self, q: Query) -> Query:
        """A query over properties → a query over attributes."""
        return frozenset(self.attribute(p) for p in q)


def merge_attributes(
    instance: MC3Instance,
    schema: AttributeSchema,
    attribute_costs: Mapping[object, float],
    name: str = "",
) -> MC3Instance:
    """The "only multi-valued classifiers" regime: transform the instance
    into an MC³ instance over attributes.

    ``attribute_costs`` prices the attribute-level classifiers (these are
    external estimations of training multi-valued classifiers, per the
    paper); the result adheres to exactly the same model and any solver
    applies unchanged.
    """
    merged = [schema.merge_query(q) for q in instance.queries]
    return MC3Instance(
        merged,
        TableCost(attribute_costs),
        max_classifier_length=instance.max_classifier_length,
        name=name or f"{instance.name}|attributes",
    )


#: Marker distinguishing multi-valued sets in the extended WSC reduction.
MULTIVALUED_LABEL_KIND = "multivalued"


def extended_wsc(
    instance: MC3Instance,
    schema: AttributeSchema,
    multivalued_costs: Mapping[str, float],
) -> WSCInstance:
    """The mixed regime: binary classifiers *and* multi-valued attribute
    classifiers compete in one WSC instance.

    Starts from the standard reduction (Section 5.2) and adds, per
    attribute classifier ``A`` with finite cost, a set covering every
    element ``(p, q)`` whose property ``p`` is a value of ``A`` — e.g. a
    team classifier covers the "chelsea" and "juventus" elements of
    every query they appear in.  Set labels are
    ``(MULTIVALUED_LABEL_KIND, attribute)`` tuples, so solutions remain
    translatable.
    """
    wsc = mc3_to_wsc(instance)
    by_attribute: Dict[str, List[Tuple[str, int]]] = {}
    for query_index, q in enumerate(instance.queries):
        for prop in q:
            attribute = schema.attribute(prop)
            by_attribute.setdefault(attribute, []).append((prop, query_index))
    for attribute in sorted(by_attribute):
        cost = multivalued_costs.get(attribute)
        if cost is None or not math.isfinite(cost):
            continue
        # A multi-valued classifier only makes sense when cheaper than
        # the sum of the binary classifiers it subsumes (the paper prunes
        # it otherwise); we add it regardless and let the optimiser skip
        # it, which is equivalent and simpler.
        wsc.add_set(
            (MULTIVALUED_LABEL_KIND, attribute), by_attribute[attribute], float(cost)
        )
    return wsc


class MixedSelection:
    """Outcome of solving the mixed binary/multi-valued problem."""

    def __init__(
        self,
        binary_classifiers: List[Classifier],
        multivalued_attributes: List[str],
        cost: float,
    ):
        self.binary_classifiers = binary_classifiers
        self.multivalued_attributes = multivalued_attributes
        self.cost = cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MixedSelection cost={self.cost} binary={len(self.binary_classifiers)} "
            f"multivalued={self.multivalued_attributes}>"
        )


def solve_with_multivalued(
    instance: MC3Instance,
    schema: AttributeSchema,
    multivalued_costs: Mapping[str, float],
    method: str = "best_of",
) -> MixedSelection:
    """Solve the mixed regime end to end (reduction + WSC solve +
    translation)."""
    wsc = extended_wsc(instance, schema, multivalued_costs)
    solution = solve_wsc(wsc, method=method)
    binary: List[Classifier] = []
    attributes: List[str] = []
    for set_id in solution.set_ids:
        label = wsc.set_label(set_id)
        if isinstance(label, tuple) and label and label[0] == MULTIVALUED_LABEL_KIND:
            attributes.append(label[1])
        else:
            binary.append(label)
    return MixedSelection(binary, sorted(attributes), solution.cost)
