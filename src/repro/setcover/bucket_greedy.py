"""Disk-friendly bucketed greedy for WSC [Cormode, Karloff & Wirth,
CIKM 2010] — the efficient-greedy reference the paper cites for
Algorithm 3's inner loop.  Guarantee: ``(1+ε)(ln Δ + 1)`` times
optimal.

The bucket-sequential implementation is a mask kernel in
:mod:`repro.core.kernels.pyjit`.
"""

from __future__ import annotations

# Module import for the same cycle reason as in ``setcover/greedy.py``.
from repro.core.kernels import pyjit
from repro.setcover.instance import WSCInstance, WSCSolution


def bucket_greedy_wsc(instance: WSCInstance, epsilon: float = 0.1) -> WSCSolution:
    """Solve WSC with the bucketed greedy.

    ``epsilon`` trades quality for movement: larger values mean fewer
    bucket migrations and a looser ``(1+ε)`` factor on the greedy
    ratio.
    """
    return pyjit.bucket_greedy_wsc(instance, epsilon)
