"""Preprocessing step 3 (Observation 3.3): remove classifiers whose
covering contribution is subsumed by a set of shorter classifiers of
at most the same cost.

The pruner is a mask kernel and lives in :mod:`repro.core.kernels.pyjit`
— frozenset queries in, frozenset removals/selections out, write-through
to the shared :class:`~repro.core.costs.OverlayCost`, decisions
bit-identical to the frozenset original in :mod:`repro.core.reference`.
This module names it, and the pruning constants, where the
preprocessing pipeline and existing importers look for them.
"""

from repro.core.kernels.pyjit import (
    FORCED_COVER_MAX_CANDIDATES,
    FORCED_COVER_MAX_LENGTH,
    FORCED_COVER_NODE_BUDGET,
    FULL_ENUMERATION_MAX_LENGTH,
    DominatedPruner,
)

__all__ = [
    "DominatedPruner",
    "FORCED_COVER_MAX_CANDIDATES",
    "FORCED_COVER_MAX_LENGTH",
    "FORCED_COVER_NODE_BUDGET",
    "FULL_ENUMERATION_MAX_LENGTH",
]
