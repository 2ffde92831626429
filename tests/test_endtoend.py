"""Tests for catalog simulation and the budget-vs-recall experiment."""

import pytest

from repro.catalog import SearchEngine, catalog_for_load
from repro.exceptions import DatasetError
from repro.experiments import budget_recall_curve
from tests.conftest import random_instance


@pytest.fixture
def instance():
    return random_instance(5, num_properties=6, num_queries=4, max_length=3)


class TestCatalogForLoad:
    def test_every_query_has_matching_items(self, instance):
        catalog = catalog_for_load(instance, items_per_query=2, seed=1)
        for q in instance.queries:
            assert len(catalog.items_with_latent(q)) >= 2

    def test_item_count(self, instance):
        catalog = catalog_for_load(
            instance, items_per_query=2, distractors=5, seed=1
        )
        assert len(catalog) == 2 * instance.n + 5

    def test_observe_rate_extremes(self, instance):
        full = catalog_for_load(instance, observe_rate=1.0, seed=1)
        assert full.observed_completeness() == 1.0
        empty = catalog_for_load(instance, observe_rate=0.0, seed=1)
        assert empty.observed_completeness() == 0.0

    def test_deterministic(self, instance):
        a = catalog_for_load(instance, seed=3)
        b = catalog_for_load(instance, seed=3)
        assert [item.item_id for item in a] == [item.item_id for item in b]
        assert [sorted(item.observed) for item in a] == [
            sorted(item.observed) for item in b
        ]

    def test_invalid_params(self, instance):
        with pytest.raises(DatasetError):
            catalog_for_load(instance, items_per_query=0)
        with pytest.raises(DatasetError):
            catalog_for_load(instance, observe_rate=1.5)

    def test_full_observation_gives_full_recall(self, instance):
        catalog = catalog_for_load(instance, observe_rate=1.0, seed=2)
        engine = SearchEngine(catalog)
        report = engine.quality(instance.queries)
        assert report.mean_recall == 1.0


class TestBudgetRecallCurve:
    def test_recall_monotone_and_complete_at_full_budget(self):
        figure = budget_recall_curve(
            n=60, budget_fractions=(0.0, 0.5, 1.0), seed=0
        )
        recall = figure.series_by_name("mean search recall").ys()
        assert recall == sorted(recall)
        assert recall[-1] == pytest.approx(1.0)
        assert recall[0] < 1.0  # missing annotations hurt before planning

    def test_covered_weight_tracks_budget(self):
        figure = budget_recall_curve(
            n=60, budget_fractions=(0.0, 0.5, 1.0), seed=0
        )
        covered = figure.series_by_name("covered query-weight share").ys()
        assert covered[0] == 0.0
        assert covered[-1] == pytest.approx(1.0)
        assert covered == sorted(covered)
