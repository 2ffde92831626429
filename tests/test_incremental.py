"""Tests for the incremental planner extension."""

import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TableCost, UniformCost
from repro.core.costs import HashCost
from repro.exceptions import InvalidInstanceError, UncoverableQueryError
from repro.extensions import IncrementalPlanner
from repro.solvers import ExactSolver
from tests.conftest import random_instance


def planner_with(cost, **kwargs):
    return IncrementalPlanner(cost, **kwargs)


class TestBasics:
    def test_single_batch_matches_batch_solver(self):
        cost = TableCost({"a": 1, "b": 2, "a b": 2.5})
        planner = planner_with(cost)
        outcome = planner.add_batch(["a b"])
        assert outcome.incremental_cost == 2.5
        planner.verify()
        assert planner.total_cost == 2.5

    def test_duplicate_queries_ignored(self):
        planner = planner_with(UniformCost(1.0))
        planner.add_batch(["a b"])
        outcome = planner.add_batch(["a b", "b a"])
        assert outcome.new_queries == ()
        assert outcome.incremental_cost == 0.0

    def test_sunk_classifiers_are_free(self):
        cost = TableCost({"a": 5, "b": 5, "c": 1, "a b": 6, "b c": 2})
        planner = planner_with(cost)
        planner.add_batch(["a b"])  # buys A+B or AB
        first_cost = planner.total_cost
        outcome = planner.add_batch(["b c"])
        # b is already paid for in either representation that includes B;
        # in the worst case the planner buys BC at 2 or C at 1.
        assert outcome.incremental_cost <= 2.0
        assert planner.total_cost == first_cost + outcome.incremental_cost

    def test_cumulative_coverage_verified(self):
        planner = planner_with(UniformCost(1.0))
        planner.add_batch(["a b", "c"])
        planner.add_batch(["c d", "e"])
        planner.verify()
        assert len(planner.queries) == 4
        assert len(planner.batches) == 2

    def test_empty_state_replan_rejected(self):
        planner = planner_with(UniformCost(1.0))
        with pytest.raises(InvalidInstanceError):
            planner.replan()


class TestFailedBatch:
    def test_failed_batch_leaves_no_state(self):
        # Nothing prices {a,c} or {c}: the residual solve raises.
        planner = planner_with(TableCost({"a": 1, "b": 2}))
        planner.add_batch(["a"])
        digest = planner.state_digest()
        built = planner.built_classifiers
        overrides = dict(planner._overlay.overrides)
        with pytest.raises(UncoverableQueryError):
            planner.add_batch(["a c", "b"])
        assert planner.state_digest() == digest
        assert planner.built_classifiers == built
        assert planner._overlay.overrides == overrides
        assert planner.queries == (frozenset({"a"}),)
        assert len(planner.batches) == 1
        retried = planner.add_batch(["b"])
        assert retried.new_queries == (frozenset({"b"}),)
        assert frozenset({"b"}) in planner.built_classifiers
        planner.verify()


_SUM_SCRIPT = """
import sys
from repro.core import MC3Instance, TableCost
from repro.extensions import IncrementalPlanner

# 9 + 1e-6 + 1e-6 + ... rounds differently from 1e-6 + ... + 9, so a sum
# taken in set iteration order would follow the hash seed.
names = ["a"] + ["t%02d" % i for i in range(12)]
cost = TableCost({name: (9.0 if name == "a" else 1e-6) for name in names})
chosen = frozenset(frozenset({name}) for name in names)
planner = IncrementalPlanner(cost)
outcome = planner.add_batch(names)
totals = [
    MC3Instance(names, cost).total_weight(chosen),
    cost.total(chosen),
    outcome.incremental_cost,
    planner.as_solution().cost,
]
sys.stdout.write(" ".join(total.hex() for total in totals))
"""


class TestOrderIndependentSums:
    def test_cost_sums_identical_across_hash_seeds(self):
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
            )
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", _SUM_SCRIPT],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        (output,) = outputs
        totals = {float.fromhex(part) for part in output.split()}
        # Every path sums in classifier_sort_key order: "a" first.
        expected = 9.0
        for _ in range(12):
            expected += 1e-6
        assert totals == {expected}


class TestRegret:
    def test_replan_never_beats_batch_on_single_batch(self):
        instance = random_instance(7, num_properties=6, num_queries=5, max_length=3)
        planner = planner_with(instance.cost, solver_name="exact")
        planner.add_batch(instance.queries)
        assert planner.regret() == pytest.approx(1.0)

    def test_incremental_at_least_replanned(self):
        """Splitting into batches can only cost more (with exact solves)."""
        instance = random_instance(11, num_properties=6, num_queries=6, max_length=3)
        planner = planner_with(instance.cost, solver_name="exact")
        half = len(instance.queries) // 2
        planner.add_batch(instance.queries[:half])
        planner.add_batch(instance.queries[half:])
        planner.verify()
        replanned = planner.replan()
        assert planner.total_cost >= replanned.cost - 1e-9
        assert planner.regret() >= 1.0 - 1e-9

    def test_as_solution_prices_base_model(self):
        cost = TableCost({"a": 3, "b": 4})
        planner = planner_with(cost)
        planner.add_batch(["a", "b"])
        solution = planner.as_solution()
        assert solution.cost == 7.0

    def test_max_classifier_length_respected(self):
        planner = planner_with(UniformCost(1.0), max_classifier_length=1)
        planner.add_batch(["a b c"])
        assert all(len(clf) == 1 for clf in planner.built_classifiers)


# ----------------------------------------------------------------------
# State digest + journal-replay equivalence (the service's recovery
# contract lives or dies on these properties)
# ----------------------------------------------------------------------

_PROPS = st.sampled_from([f"p{i}" for i in range(8)])
_QUERY = st.frozensets(_PROPS, min_size=1, max_size=3)
_BATCHES = st.lists(
    st.lists(_QUERY, min_size=0, max_size=4), min_size=1, max_size=5
)

_HASHSEED_SCRIPT = """
import sys
from repro.core.costs import HashCost
from repro.extensions import IncrementalPlanner

batches = [
    [frozenset({"p1", "p2"}), frozenset({"p3"})],
    [frozenset({"p2", "p4"})],
    [],
    [frozenset({"p1"}), frozenset({"p4", "p5", "p6"})],
]
planner = IncrementalPlanner(HashCost(seed=9))
for batch in batches:
    planner.add_batch(batch)
sys.stdout.write(planner.state_digest())
"""


class TestStateDigest:
    def feed(self, batches):
        planner = planner_with(HashCost(seed=7))
        for batch in batches:
            planner.add_batch(batch)
        return planner

    @settings(max_examples=40, deadline=None)
    @given(_BATCHES)
    def test_add_batch_is_order_stable(self, batches):
        """Same journal-ordered batch sequence ⇒ bit-identical state."""
        a, b = self.feed(batches), self.feed(batches)
        assert a.state_digest() == b.state_digest()
        assert a.built_classifiers == b.built_classifiers
        assert a.total_cost == b.total_cost

    @settings(max_examples=40, deadline=None)
    @given(_BATCHES)
    def test_journal_replay_reproduces_state(self, batches):
        """Round-tripping every batch through the on-disk journal format
        and replaying reproduces built_classifiers/total_cost exactly."""
        from repro.service.journal import WorkloadJournal, read_journal

        live = self.feed(batches)
        with tempfile.TemporaryDirectory(prefix="mc3-journal-") as workdir:
            path = os.path.join(workdir, "w.journal")
            with WorkloadJournal(path, fsync=False) as journal:
                for batch in batches:
                    journal.append_batch(batch)
            records = read_journal(path).records
        assert len(records) == len(batches)
        replayed = self.feed([list(r.queries) for r in records])
        assert replayed.state_digest() == live.state_digest()
        assert replayed.built_classifiers == live.built_classifiers
        assert replayed.total_cost == live.total_cost

    def test_digest_sensitive_to_state(self):
        base = self.feed([[frozenset({"p1", "p2"})]])
        more = self.feed([[frozenset({"p1", "p2"})], [frozenset({"p3"})]])
        reordered = self.feed([[frozenset({"p3"})], [frozenset({"p1", "p2"})]])
        assert base.state_digest() != more.state_digest()
        assert more.state_digest() != reordered.state_digest()

    def test_digest_stable_across_hash_seeds(self):
        """The digest is process-portable: subprocesses with different
        PYTHONHASHSEED values agree with this process bit-for-bit."""
        expected = None
        for seed in ("0", "1", "20407"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            digest = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            assert len(digest) == 32
            expected = expected or digest
            assert digest == expected
        planner = IncrementalPlanner(HashCost(seed=9))
        for batch in [
            [frozenset({"p1", "p2"}), frozenset({"p3"})],
            [frozenset({"p2", "p4"})],
            [],
            [frozenset({"p1"}), frozenset({"p4", "p5", "p6"})],
        ]:
            planner.add_batch(batch)
        assert planner.state_digest() == expected

    def test_solver_overrides_apply_to_one_batch_only(self):
        from repro.engine import ResiliencePolicy

        planner = planner_with(HashCost(seed=2))
        planner.add_batch(
            [frozenset({"p1", "p2"})],
            solver_overrides={
                "resilience": ResiliencePolicy(on_error="degrade")
            },
        )
        # The override must not leak into the planner's stored kwargs.
        assert "resilience" not in planner.solver_kwargs
        planner.add_batch([frozenset({"p3"})])
        planner.verify()
