"""The mask kernels against the frozenset references and exact oracles.

:mod:`repro.core.kernels.pyjit` is the one implementation of the batch
mask kernels.  Each must return *exactly* the selections, tie-breaks
and costs of its pre-bitset original in :mod:`repro.core.reference`
(Chvátal greedy, the single-query min-cover DP),
or the exact count it promises (the sampled greedy's gains).  The
dominated pruner and the MC³ → WSC reduction are held to the same
references in ``test_bitspace.py``.
"""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import pyjit
from repro.core.kernels.registry import resolve_backend_name
from repro.core.reference import (
    patch_reference_kernels,
    reference_greedy_wsc,
    reference_min_cover,
)
from repro.datasets import synthetic
from repro.solvers import make_solver
from tests.test_setcover import random_wsc


class TestRegistry:
    def test_default_is_pyjit(self):
        # Run headers still name the one kernel implementation.
        assert resolve_backend_name() == "pyjit"
        assert resolve_backend_name(None) == "pyjit"


@pytest.mark.parametrize(
    "first", ["repro.core.kernels.pyjit", "repro.setcover", "repro.core.wsc"]
)
def test_import_order(first):
    # The kernel module and the setcover package import each other's
    # names directly; neither may depend on the other being imported
    # first.  A fresh interpreter makes ``first`` the first import.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    script = (
        f"import {first}\n"
        "from repro.core.kernels import pyjit\n"
        "from repro.preprocess import DominatedPruner\n"
        "from repro.setcover import WSCInstance, greedy_wsc\n"
        "assert greedy_wsc is pyjit.greedy_wsc\n"
        "assert DominatedPruner is pyjit.DominatedPruner\n"
        "assert WSCInstance.__module__ == 'repro.core.wsc'\n"
    )
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


# ----------------------------------------------------------------------
# Bit-identity with the reference kernels
# ----------------------------------------------------------------------


def _dp_case(seed: int, bits: int, num_candidates: int, negative: bool):
    rng = random.Random(f"kernels-dp-{seed}")
    full = (1 << bits) - 1
    low = -2.0 if negative else 0.0
    usable = []
    for _ in range(num_candidates):
        mask = rng.randint(1, full)
        usable.append((mask, rng.uniform(low, 5.0)))
    return full, usable


def _classifier(mask: int):
    """Local bit ``i`` as property ``b<i>`` (``bits <= 7`` keeps the
    names' sorted order equal to the bit order)."""
    return frozenset(f"b{bit}" for bit in range(mask.bit_length()) if mask >> bit & 1)


def _brute_force_cover(full, usable):
    best = math.inf
    best_count = None
    for combo in range(1 << len(usable)):
        union = 0
        cost = 0.0
        count = 0
        for idx, (mask, weight) in enumerate(usable):
            if combo >> idx & 1:
                union |= mask
                cost += weight
                count += 1
        if union == full and cost < best:
            best = cost
            best_count = count
    return None if math.isinf(best) else (best, best_count)


class TestReferenceIdentity:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_greedy_wsc_identical(self, seed):
        instance = random_wsc(seed, num_elements=3 + seed % 9, num_sets=1 + seed % 12)
        new = pyjit.greedy_wsc(instance)
        ref = reference_greedy_wsc(instance)
        assert list(new.set_ids) == list(ref.set_ids)
        assert new.cost == ref.cost

    @given(
        seed=st.integers(0, 10_000),
        bits=st.integers(1, 7),
        num_candidates=st.integers(0, 8),
        negative=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_min_cover_dp_identical(self, seed, bits, num_candidates, negative):
        full, usable = _dp_case(seed, bits, num_candidates, negative)
        new = pyjit.min_cover_dp(full, usable)
        query = _classifier(full)
        ref = reference_min_cover(
            query, [(_classifier(mask), weight) for mask, weight in usable],
            required=False,
        )
        if ref is None:
            assert new is None
            return
        cost, chosen = new
        # The reference is the exhaustive sweep the bound-pruned DP
        # replaced: same cost bits, same classifiers in the same order.
        assert cost == ref.cost
        assert tuple(_classifier(usable[idx][0]) for idx in chosen) == ref.classifiers
        if not negative:
            # Against the brute-force oracle: optimal cost, and the DP's
            # fewer-sets tie-break can never use more sets than some
            # optimum.  The DP accumulates along its path, the oracle in
            # index order — same optimum, possibly different float
            # association, so compare with tolerance here.
            brute = _brute_force_cover(full, usable)
            assert math.isclose(cost, brute[0], rel_tol=1e-9, abs_tol=1e-9)
            total = sum(usable[idx][1] for idx in chosen)
            assert math.isclose(total, cost, rel_tol=1e-9, abs_tol=1e-9)
            union = 0
            for idx in chosen:
                union |= usable[idx][0]
            assert union == full

    @given(
        seed=st.integers(0, 10_000),
        bits=st.integers(1, 80),
        num_masks=st.integers(0, 12),
        covered_none=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampled_gains_identical(self, seed, bits, num_masks, covered_none):
        rng = random.Random(f"kernels-gains-{seed}")
        full = (1 << bits) - 1
        masks = [rng.randint(1, full) for _ in range(num_masks)]
        covered = 0 if covered_none else rng.randint(0, full)
        # Exact-count oracle: fresh coverage is a popcount over ~covered.
        assert pyjit.sampled_gains(masks, covered) == [
            bin(mask & ~covered & full).count("1") for mask in masks
        ]

    def test_min_cover_dp_trivial_and_unreachable(self):
        assert pyjit.min_cover_dp(0, [(1, 1.0)]) == (0.0, [])
        assert pyjit.min_cover_dp(0b111, [(0b001, 1.0)]) is None
        assert pyjit.min_cover_dp(0b11, []) is None

    @given(seed=st.integers(0, 400))
    @settings(max_examples=12, deadline=None)
    def test_solver_pipeline_identical_to_reference(self, seed):
        # End-to-end: the full GeneralSolver pipeline (preprocessing with
        # dominated pruning, reduction, WSC) on the kernels and with the
        # reference kernels patched in.
        instance = synthetic(n=60, seed=seed)
        solver = make_solver("mc3-general", preprocess_steps=(1, 2, 3))
        current = solver.solve(instance)
        with patch_reference_kernels():
            patched = solver.solve(instance)
        assert current.solution.classifiers == patched.solution.classifiers
        assert current.cost == patched.cost
