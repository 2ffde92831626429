"""The batch mask kernels.

Everything lives in :mod:`repro.core.kernels.pyjit`: the one
implementation of dominated pruning, the greedy set cover, the
single-query min-cover DP and the sampled greedy's gain counts.  This
package imports nothing eagerly, so ``core/mincover`` can import the
kernel module while the kernel module is itself importing it.
"""
