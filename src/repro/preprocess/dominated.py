"""Preprocessing step 3 (Observation 3.3): remove classifiers whose
covering contribution is subsumed by a set of shorter classifiers of at
most the same cost.

The implementation lives in the kernel layer
(:mod:`repro.core.kernels`): every backend provides a pruner with the
historical ``DominatedPruner`` surface — frozenset queries in,
frozenset removals/selections out, write-through to the shared
:class:`~repro.core.costs.OverlayCost` — and bit-identical decisions
(:mod:`repro.core.reference` keeps that claim executable).  This module
is the compatibility shim: :func:`DominatedPruner` constructs the
active backend's pruner, and the pruning constants are re-exported for
existing importers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.costs import OverlayCost
from repro.core.kernels.api import (  # noqa: F401  (re-exported constants)
    FORCED_COVER_MAX_CANDIDATES,
    FORCED_COVER_MAX_LENGTH,
    FORCED_COVER_NODE_BUDGET,
    FULL_ENUMERATION_MAX_LENGTH,
    PrunesDominated,
)
from repro.core.kernels.registry import get_backend
from repro.core.properties import Query

__all__ = [
    "DominatedPruner",
    "FORCED_COVER_MAX_CANDIDATES",
    "FORCED_COVER_MAX_LENGTH",
    "FORCED_COVER_NODE_BUDGET",
    "FULL_ENUMERATION_MAX_LENGTH",
]


def DominatedPruner(  # noqa: N802 - keeps the historical class-style name
    queries: Sequence[Query],
    overlay: OverlayCost,
    max_classifier_length: Optional[int] = None,
) -> PrunesDominated:
    """Stateful step-3 pass over one property-disjoint component.

    Factory over the kernel registry: builds the active backend's
    pruner (see :func:`repro.core.kernels.registry.use_backend`).
    """
    return get_backend().make_dominated_pruner(
        queries, overlay, max_classifier_length
    )
