"""Tests of the benchmark's own arithmetic and of its timing wrappers.

Run from the root of the checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from layers import (  # noqa: E402
    covered,
    layer_metrics,
    nest,
    outermost_totals,
    self_times,
    tail_percentile,
    unattributed_fraction,
)
from probe import REFERENCE_S, Speed, reference_seconds, scale  # noqa: E402
from spans import TARGETS, Recorder, install, uninstall  # noqa: E402


class TestCovered:
    def test_disjoint_intervals_add(self):
        assert covered([(0, 1), (2, 4)]) == 3

    def test_overlaps_count_once(self):
        assert covered([(0, 3), (1, 2), (2, 5)]) == 5

    def test_empty(self):
        assert covered([]) == 0


class TestSelfTime:
    def test_span_minus_children(self):
        spans = [("outer", 0.0, 10.0), ("a", 1.0, 3.0), ("b", 4.0, 8.0)]
        assert self_times(spans) == [4.0, 2.0, 4.0]

    def test_grandchildren_are_charged_to_their_parent_only(self):
        spans = [("outer", 0.0, 10.0), ("mid", 1.0, 9.0), ("leaf", 2.0, 5.0)]
        assert self_times(spans) == [2.0, 5.0, 3.0]

    def test_overlapping_children_are_not_subtracted_twice(self):
        # Children from two processes may overlap each other in time.
        spans = [("outer", 0.0, 10.0), ("a", 1.0, 6.0), ("b", 1.0, 4.0), ("c", 5.0, 7.0)]
        parents = nest(spans)
        assert parents[1] == 0 and parents[2] == 1 and parents[3] == 0
        assert self_times(spans)[0] == 10.0 - covered([(1.0, 6.0), (5.0, 7.0)])

    def test_partial_overlap_is_not_a_child(self):
        spans = [("a", 0.0, 5.0), ("b", 4.0, 8.0)]
        assert nest(spans) == [None, None]
        assert self_times(spans) == [5.0, 4.0]

    def test_same_name_nesting_counts_once(self):
        spans = [("verify", 0.0, 4.0), ("verify", 1.0, 3.0), ("verify", 5.0, 6.0)]
        assert outermost_totals(spans) == {"verify": 5.0}


class TestUnattributed:
    def test_remainder_of_root_not_covered_by_layers(self):
        spans = [("plan", 0.0, 10.0), ("preprocess", 0.0, 4.0), ("setcover.lp", 5.0, 8.0)]
        assert unattributed_fraction(spans) == pytest.approx(0.3)

    def test_nested_layers_do_not_double_count(self):
        spans = [("plan", 0.0, 10.0), ("preprocess", 0.0, 6.0), ("preprocess.decompose", 1.0, 2.0)]
        assert unattributed_fraction(spans) == pytest.approx(0.4)

    def test_layer_time_outside_roots_is_ignored(self):
        spans = [("request", 0.0, 2.0), ("service.handle", 1.0, 2.0), ("preprocess", 5.0, 9.0)]
        assert unattributed_fraction(spans) == pytest.approx(0.5)

    def test_no_roots(self):
        assert unattributed_fraction([("preprocess", 0.0, 1.0)]) == 0.0


class TestTailPercentile:
    def test_needs_ten_samples_beyond(self):
        values = [float(i) for i in range(1, 1001)]
        assert tail_percentile(values, 0.99) == 990.0  # 10 samples beyond
        assert tail_percentile(values[:-1], 0.99) is None  # only 9 beyond

    def test_median_rank_of_small_sample(self):
        assert tail_percentile([float(i) for i in range(20)], 0.5) == 9.0
        assert tail_percentile([float(i) for i in range(19)], 0.5) is None

    def test_empty(self):
        assert tail_percentile([], 0.5) is None


class TestLayerMetrics:
    def test_times_and_counts_are_per_plan(self):
        spans = [
            ("plan", 0.0, 4.0), ("preprocess", 0.0, 2.0),
            ("plan", 5.0, 9.0), ("preprocess", 5.0, 6.0),
            ("engine.dispatch", 6.0, 9.0), ("setcover.greedy", 6.5, 7.5),
        ]
        counts = {"engine.cache.hits": 3.0, "engine.cache.misses": 1.0}
        metrics = layer_metrics(spans, counts, plans=2)
        assert metrics["preprocess.s"] == pytest.approx(1.5)
        assert metrics["engine.dispatch_self_s"] == pytest.approx(1.0)
        assert metrics["engine.cache.hits"] == pytest.approx(1.5)
        assert metrics["engine.cache.hit_frac"] == pytest.approx(0.75)
        # Plan one leaves 2 of its 4 s uncovered; plan two none of its 4 s.
        assert metrics["trace.unattributed_frac"] == pytest.approx(2.0 / 8.0)
        assert metrics["service.journal_ms.p50"] == 0.0

    def test_queue_wait_is_admission_to_apply(self):
        spans = []
        for i in range(1000):
            t = 10.0 * i
            spans += [
                ("request", t, t + 5.0),
                ("service.handle", t + 1.0, t + 4.0),
                ("service.apply", t + 1.5, t + 3.5),
                ("service.journal", t + 1.5, t + 2.0),
                ("incremental.add_batch", t + 2.0, t + 3.0),
            ]
        metrics = layer_metrics(spans, {}, plans=1000)
        assert metrics["service.queue_wait_ms.p50"] == pytest.approx(500.0)
        assert metrics["service.solve_ms.p50"] == pytest.approx(1000.0)
        assert metrics["incremental.add_batch_self_s"] == pytest.approx(1.0)

    def test_too_few_samples_for_p99_is_an_error(self):
        spans = [("service.journal", float(i), i + 0.5) for i in range(50)]
        with pytest.raises(ValueError):
            layer_metrics(spans, {}, plans=50)


class TestReferenceSeconds:
    def test_window_is_scaled_by_the_median_probe_near_it(self):
        probes = [REFERENCE_S * f for f in (1.0, 9.0, 2.0, 2.0, 2.0, 2.0, 9.0, 9.0)]
        # The window closed by probe 3 sees probes 0..5, median 2.0: the
        # far 9s do not count and the near one is outvoted.
        assert scale(probes, 3) == pytest.approx(0.5)
        assert scale(probes, 1) == pytest.approx(0.5)  # probes 0..3
        assert scale(probes, 7) == pytest.approx(1 / 5.5)  # probes 4..7

    def test_setups_and_windows_in_reference_seconds(self):
        result = {
            "probe_s": [2.0 * REFERENCE_S] * 3,
            "setups": [(1, 3.0)],
            "windows": [(2, [2.0, 4.0], [1.0], 8.0)],
        }
        assert reference_seconds(result) == {
            "setup_s": [1.5], "plan_s": [1.0, 2.0], "plan_cpu_s": [0.5], "plans_per_s": [0.5],
        }

    def test_probe_helper_answers_and_stops(self):
        with Speed() as speed:
            assert speed.probe() == 1
        assert speed.process.returncode == 0
        assert all(seconds > 0 for seconds in speed.probes)


class TestWrappers:
    def test_every_target_resolves_and_restores(self):
        import importlib

        recorder = Recorder()
        undo = install(recorder)
        try:
            assert len(undo) == len(TARGETS)
        finally:
            uninstall(undo)
        for (owner, attr, original), (module, path, _, _) in zip(undo, TARGETS):
            assert vars(owner)[attr] is original, f"{module}.{path} not restored"
            importlib.import_module(module)

    def test_wrapped_calls_record_spans_and_keep_results(self):
        from repro import make_solver
        from repro.datasets import bestbuy_like

        instance = bestbuy_like(n=60, seed=3)
        plain = make_solver("mc3-general", cache="off").solve(instance)
        recorder = Recorder()
        undo = install(recorder)
        try:
            traced = make_solver("mc3-general", cache="off").solve(instance)
        finally:
            uninstall(undo)
        assert traced.solution == plain.solution and traced.cost == plain.cost
        names = {name for name, _, _ in recorder.spans}
        assert {"preprocess", "engine.dispatch", "core.verify"} <= names
        assert all(start <= end for _, start, end in recorder.spans)
