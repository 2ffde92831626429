"""Disk-friendly bucketed greedy for WSC [Cormode, Karloff & Wirth,
CIKM 2010] — the efficient-greedy reference the paper cites for
Algorithm 3's inner loop.  Guarantee: ``(1+ε)(ln Δ + 1)`` times
optimal.

Shim over the kernel layer: the bucket-sequential implementation lives
in the ``pyjit`` backend (with a batched variant in ``array``), reached
through :mod:`repro.core.kernels.registry`.
"""

from __future__ import annotations

from repro.core.kernels.registry import get_backend
from repro.setcover.instance import WSCInstance, WSCSolution


def bucket_greedy_wsc(instance: WSCInstance, epsilon: float = 0.1) -> WSCSolution:
    """Solve WSC with the bucketed greedy on the active kernel backend.

    ``epsilon`` trades quality for movement: larger values mean fewer
    bucket migrations and a looser ``(1+ε)`` factor on the greedy
    ratio.
    """
    return get_backend().bucket_greedy_wsc(instance, epsilon)
