"""Chvátal's greedy WSC algorithm (``ln Δ + 1``, Theorem 2.6).

The lazy-deletion heap implementation is a mask kernel in
:mod:`repro.core.kernels.pyjit`, bit-identical to the per-element
reference (:func:`repro.core.reference.reference_greedy_wsc`).
"""

from __future__ import annotations

# A module import, not ``from … import greedy_wsc``: the kernel module
# imports ``repro.setcover.instance``, whose package imports this
# module, so the kernel may still be initialising here.
from repro.core.kernels import pyjit
from repro.setcover.instance import WSCInstance, WSCSolution


def greedy_wsc(instance: WSCInstance) -> WSCSolution:
    """Solve a WSC instance greedily; raises if some element is
    uncoverable."""
    return pyjit.greedy_wsc(instance)
