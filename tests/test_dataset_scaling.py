"""Scale-invariance tests for the Private-like generator.

The figure-3b margins collapsed at paper scale until the rare-property
tail was made to grow with the log; these tests pin that behaviour so
it cannot regress silently.
"""

from repro.datasets import private_like, private_like_category
from repro.datasets.private import tail_size_for


class TestTailScaling:
    def test_tail_size_grows_with_count(self):
        assert tail_size_for(100) == 150  # floor
        assert tail_size_for(1000) == 500
        assert tail_size_for(10_000) == 5000

    def test_property_count_roughly_linear(self):
        small = private_like(1000, seed=0)
        large = private_like(4000, seed=0)
        ratio = len(large.properties) / len(small.properties)
        # Linear tail growth: 4x queries gives roughly 2.5-4.5x properties
        # (head vocabulary is fixed, tail dominates).
        assert 2.0 < ratio < 5.0

    def test_rare_property_density_stable(self):
        """The share of properties appearing in at most 2 queries must
        not collapse as the load grows (the regression that flattened
        Figure 3b at paper scale)."""

        def rare_share(instance):
            from collections import Counter

            counts = Counter(p for q in instance.queries for p in q)
            rare = sum(1 for c in counts.values() if c <= 2)
            return rare / len(counts)

        small = rare_share(private_like(1000, seed=0))
        large = rare_share(private_like(4000, seed=0))
        assert abs(small - large) < 0.2
        assert large > 0.3  # a genuine long tail at scale


class TestCostStabilityAcrossScales:
    def test_tail_property_price_independent_of_n(self):
        """The same tail property costs the same in instances of
        different sizes (per-property RNG streams)."""
        small = private_like_category("fashion", 400, seed=3)
        large = private_like_category("fashion", 1200, seed=3)
        prop = "fashion-t10"
        clf = frozenset((prop,))
        assert small.weight(clf) == large.weight(clf)

    def test_head_property_price_independent_of_n(self):
        small = private_like_category("fashion", 400, seed=3)
        large = private_like_category("fashion", 1200, seed=3)
        clf = frozenset(("nike",))
        assert small.weight(clf) == large.weight(clf)

    def test_pair_price_stable(self):
        small = private_like_category("fashion", 400, seed=3)
        large = private_like_category("fashion", 1200, seed=3)
        clf = frozenset(("nike", "fashion-t3"))
        assert small.weight(clf) == large.weight(clf)
