"""The name of the kernel implementation, for run headers.

There is one kernel implementation, :mod:`repro.core.kernels.pyjit`.
Benchmark harnesses that record which implementation a run used (the
``kernel_backend`` field of the ``perfbench`` run header) still ask for
it by this name, so the name stays answerable.
"""

from __future__ import annotations

from typing import Optional


def resolve_backend_name(choice: Optional[str] = None) -> str:
    """Always ``"pyjit"``, the one kernel implementation.

    ``choice`` is accepted and ignored so that callers written against
    the earlier multi-backend registry, which passed ``None`` for "the
    active default", keep working.
    """
    return "pyjit"
