"""Chvátal's greedy WSC algorithm (``ln Δ + 1``, Theorem 2.6).

Shim over the kernel layer: the lazy-deletion heap implementation lives
in the ``pyjit`` backend and a vectorized variant in ``array``, both
reached through :mod:`repro.core.kernels.registry` and both
bit-identical to the per-element reference
(:func:`repro.core.reference.reference_greedy_wsc`).
"""

from __future__ import annotations

from repro.core.kernels.registry import get_backend
from repro.setcover.instance import WSCInstance, WSCSolution


def greedy_wsc(instance: WSCInstance) -> WSCSolution:
    """Solve a WSC instance greedily with the active kernel backend;
    raises if some element is uncoverable."""
    return get_backend().greedy_wsc(instance)
