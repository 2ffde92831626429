"""Descriptive statistics of an MC³ instance.

Backs Table 1 of the paper (dataset summary: number of queries, max
cost, max length) and the in-text dataset characterisations (share of
short queries, property-sharing structure).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Optional

from repro.core.instance import MC3Instance


class InstanceStats:
    """Computed summary of an :class:`MC3Instance`."""

    def __init__(self, instance: MC3Instance, sample_costs: int = 2000):
        self.name = instance.name
        self.n = instance.n
        self.num_properties = len(instance.properties)
        self.max_query_length = instance.max_query_length
        self.length_histogram: Dict[int, int] = dict(
            Counter(len(q) for q in instance.queries)
        )
        self.short_fraction = (
            sum(count for length, count in self.length_histogram.items() if length <= 2)
            / self.n
        )
        self.incidence = instance.incidence()
        self.property_occurrences = self._occurrence_histogram(instance)
        self.rare_property_fraction = (
            sum(
                count
                for occurrences, count in self.property_occurrences.items()
                if occurrences <= 2
            )
            / max(1, self.num_properties)
        )
        self.max_cost, self.min_cost = self._cost_extremes(instance, sample_costs)

    @staticmethod
    def _occurrence_histogram(instance: MC3Instance) -> Dict[int, int]:
        """How many properties appear in exactly ``k`` queries — the
        head/tail structure the algorithms exploit."""
        per_property = Counter(prop for q in instance.queries for prop in q)
        return dict(Counter(per_property.values()))

    @staticmethod
    def _cost_extremes(instance: MC3Instance, sample: int):
        """Extremes of finite classifier costs.

        For lazily-priced universes we bound work by sampling candidate
        classifiers from the first ``sample`` queries; Table 1 only needs
        the max, which for the generated datasets is attained quickly.
        """
        max_cost: Optional[float] = None
        min_cost: Optional[float] = None
        for q in instance.queries[:sample]:
            for clf in instance.candidates(q):
                weight = instance.weight(clf)
                if not math.isfinite(weight):
                    continue
                if max_cost is None or weight > max_cost:
                    max_cost = weight
                if min_cost is None or weight < min_cost:
                    min_cost = weight
        return max_cost, min_cost

    def as_row(self) -> Dict[str, object]:
        """The Table 1 row for this dataset."""
        return {
            "dataset": self.name,
            "queries": self.n,
            "max_cost": self.max_cost,
            "max_length": self.max_query_length,
        }

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [
            f"dataset      : {self.name or '<unnamed>'}",
            f"queries (n)  : {self.n}",
            f"properties   : {self.num_properties}",
            f"max length k : {self.max_query_length}",
            f"short (<=2)  : {self.short_fraction:.1%}",
            f"incidence I  : {self.incidence}",
            f"rare props   : {self.rare_property_fraction:.1%} appear in <=2 queries",
            f"cost range   : [{self.min_cost}, {self.max_cost}]",
            "length histogram:",
        ]
        for length in sorted(self.length_histogram):
            count = self.length_histogram[length]
            lines.append(f"  len {length:>2}: {count:>8} ({count / self.n:.1%})")
        return "\n".join(lines)
