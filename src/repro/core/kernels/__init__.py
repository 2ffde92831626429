"""The batch mask kernels.

Everything lives in :mod:`repro.core.kernels.pyjit`: the one
implementation of dominated pruning, both greedy set covers, the
single-query min-cover DP and the sampled greedy's gain counts.  This
package imports nothing eagerly, so ``core/mincover`` and ``setcover``
can import the kernel module while it is itself importing them.
"""
