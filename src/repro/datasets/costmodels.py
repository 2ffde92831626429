"""Cost models used by the generated datasets.

:class:`SubAdditiveHashCost` captures the phenomenon motivating the
paper (Example 1.1): a multi-property classifier can cost *less* than
its individual parts ("detecting that a shirt is an Adidas shirt may be
non-trivial ... classification for the 'Adidas Juventus' conjunction is
an easier task, since these shirts have just a few variants").

The model: each property has a *base difficulty* (labelled examples
needed for its standalone classifier).  A conjunction restricts the item
variants the classifier must recognise, so its cost anchors on the
*easiest* component, scaled by a deterministic pseudo-random specificity
factor, plus a small spill-over for the remaining components:

    cost(c) = clamp(round(u(c) · min_base(c) + spill · (sum_base − min_base)),
                    low, high)

with ``u(c)`` hash-uniform in ``[u_low, u_high]``.  With ``u_high > 1``
some conjunctions still cost more than their cheapest part (the paper's
``AW: 5N`` vs ``W: 1N``), while most undercut an expensive rare part —
the regime where the MC³ optimisation pays off.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Mapping, Optional

from repro.core.costs import CostModel, validate_weight
from repro.core.properties import Classifier, canonical_label
from repro.exceptions import InvalidInstanceError


class SubAdditiveHashCost(CostModel):
    """Deterministic sub-additive integer costs (see module docstring)."""

    def __init__(
        self,
        base_costs: Mapping[str, float],
        low: int = 1,
        high: int = 63,
        u_low: float = 0.55,
        u_high: float = 1.25,
        spill: float = 0.1,
        seed: int = 0,
        max_length: Optional[int] = None,
    ):
        if low < 0 or high < low:
            raise InvalidInstanceError(f"invalid cost range [{low}, {high}]")
        if not 0 < u_low <= u_high:
            raise InvalidInstanceError(f"invalid specificity range [{u_low}, {u_high}]")
        if spill < 0:
            raise InvalidInstanceError("spill must be >= 0")
        self.base_costs: Dict[str, float] = {}
        for prop, base in base_costs.items():
            self.base_costs[str(prop)] = validate_weight(base)
        self.low = int(low)
        self.high = int(high)
        self.u_low = float(u_low)
        self.u_high = float(u_high)
        self.spill = float(spill)
        self.seed = int(seed)
        self.max_length = max_length

    def _specificity(self, clf: Classifier) -> float:
        digest = hashlib.blake2b(
            canonical_label(clf).encode(),
            digest_size=8,
            salt=self.seed.to_bytes(8, "little", signed=False),
        ).digest()
        unit = int.from_bytes(digest, "little") / float(1 << 64)
        return self.u_low + unit * (self.u_high - self.u_low)

    def cost(self, clf: Classifier) -> float:
        if self.max_length is not None and len(clf) > self.max_length:
            return math.inf
        try:
            bases = [self.base_costs[prop] for prop in clf]
        except KeyError:
            # Unknown property: the classifier is outside this dataset's
            # universe, hence unavailable.
            return math.inf
        if len(bases) == 1:
            value = bases[0]
        else:
            lowest = min(bases)
            # fsum is correctly rounded, so the hash order of ``clf``
            # cannot reach the float (integer bases sum exactly anyway).
            value = self._specificity(clf) * lowest + self.spill * (
                math.fsum(bases) - lowest
            )
        return float(min(self.high, max(self.low, round(value))))
