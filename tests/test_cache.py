"""The content-addressed component-solution cache (PR 7).

Four contracts, roughly in order of importance:

1. **Fingerprint canonicality** — ``component_fingerprint`` is invariant
   under query reordering and ``PYTHONHASHSEED``, and sensitive to every
   output-affecting knob (costs, solver token, route, rung).
2. **Bit-identity** — a warm solve equals a cold solve equals an
   uncached solve, under resilience and parallel dispatch; chaos runs
   bypass the cache entirely.
3. **Store mechanics** — LRU/byte eviction, disk atomicity, corrupt
   entries decoding as misses, stats/clear.
4. **Plumbing** — telemetry section, picklable specs, the incremental
   planner's warm re-solve path, the ``mc3 cache`` CLI.
"""

import json
import os
import pickle
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MC3Instance, TableCost
from repro.core.bitspace import PRIMARY_RUNG, component_fingerprint
from repro.core.costs import CallableCost, HashCost, OverlayCost, UniformCost
from repro.core.properties import classifier_sort_key, iter_nonempty_subsets
from repro.datasets import bestbuy_like
from repro.devtools.chaos import ChaosInjector
from repro.engine import ResiliencePolicy
from repro.engine.cache import (
    CacheConfig,
    DiskSolutionCache,
    MemorySolutionCache,
    cache_token_of,
    decode_entry,
    encode_entry,
    resolve_cache,
)
from repro.extensions.incremental import IncrementalPlanner
from repro.solvers import make_solver
from repro.engine.cache import DETAILS_VERSION

from tests.strategies import PROPERTY_NAMES, mc3_instances
from tests.strategies import queries as query_strategy

pytestmark = []


#: Properties no generated instance uses.
OUTSIDE = ["x0", "x1", "x2"]


def fingerprint(instance, **kwargs):
    kwargs.setdefault("solver_token", ("mc3-general", "best_of", 50_000, True))
    return component_fingerprint(instance, **kwargs)


# ----------------------------------------------------------------------
# 1. Fingerprint canonicality
# ----------------------------------------------------------------------


class TestFingerprint:
    @given(mc3_instances(max_queries=5), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_query_reordering(self, instance, rng):
        shuffled = list(instance.queries)
        rng.shuffle(shuffled)
        reordered = MC3Instance(shuffled, instance.cost)
        assert fingerprint(instance) == fingerprint(reordered)

    def test_invariant_under_hash_seed(self, tmp_path):
        # The same tiny component fingerprinted in subprocesses with
        # different PYTHONHASHSEED values must agree byte-for-byte —
        # the whole point of RPL204.  Both cost paths are exercised:
        # the table content-token and the enumerated fallback, plus an
        # overlay whose scoped token gathers overrides from per-property
        # sets.
        script = tmp_path / "fp.py"
        script.write_text(
            "from repro.core import MC3Instance, TableCost\n"
            "from repro.core.costs import CallableCost\n"
            "from repro.core.bitspace import component_fingerprint\n"
            "cost = {'a': 3, 'b': 2, 'a b': 4, 'c': 1, 'a c': 2.5}\n"
            "inst = MC3Instance(['a b', 'a c'], TableCost(cost))\n"
            "opaque = MC3Instance(['a b', 'a c'],"
            " CallableCost(lambda clf: float(len(clf))))\n"
            "print(component_fingerprint(inst, solver_token=('s', 1)))\n"
            "print(component_fingerprint(opaque, solver_token=('s', 1)))\n"
            "from repro.core.costs import OverlayCost\n"
            "overlay = OverlayCost(TableCost(cost))\n"
            "for label in ('a b', 'c', 'a x', 'b c y', 'x y', 'a b c'):\n"
            "    overlay.select(frozenset(label.split()))\n"
            "overlay.remove(frozenset({'a', 'c'}))\n"
            "scoped = MC3Instance(['a b', 'a c', 'b c'], overlay)\n"
            "print(component_fingerprint(scoped, solver_token=('s', 1)))\n"
        )
        outputs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(os.getcwd(), "src"),
                            env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_sensitive_to_costs(self):
        base = {"a": 3.0, "b": 2.0, "a b": 4.0}
        bumped = dict(base, b=2.5)
        one = MC3Instance(["a b"], TableCost(base))
        two = MC3Instance(["a b"], TableCost(bumped))
        assert fingerprint(one) != fingerprint(two)

    def test_sensitive_to_every_knob(self):
        instance = MC3Instance(["a b"], TableCost({"a": 3, "b": 2, "a b": 4}))
        reference = fingerprint(instance)
        assert fingerprint(instance, solver_token=("other", 1)) != reference
        assert fingerprint(instance, route="exact-k2") != reference
        assert fingerprint(instance, rung="fallback:greedy") != reference
        capped = MC3Instance(
            ["a b"], TableCost({"a": 3, "b": 2, "a b": 4}), max_classifier_length=1
        )
        assert fingerprint(capped) != reference

    def test_overlay_edits_change_fingerprint(self):
        table = TableCost({"a": 3, "b": 2, "a b": 4})
        plain = MC3Instance(["a b"], OverlayCost(table))
        overlay = OverlayCost(table)
        overlay.select(frozenset({"a"}))
        selected = MC3Instance(["a b"], overlay)
        assert fingerprint(plain) != fingerprint(selected)

    def test_token_and_enumerated_paths_never_collide(self):
        # A CallableCost that prices identically to a table still gets a
        # different (domain-separated) fingerprint — collisions between
        # the two encodings are structurally impossible, and the cache
        # treats that as a miss, never as corruption.
        table = {"a": 3.0, "b": 2.0, "a b": 4.0}
        priced = MC3Instance(["a b"], TableCost(table))
        opaque = MC3Instance(
            ["a b"], CallableCost(lambda clf: table.get(frozenset(clf), float("inf")))
        )
        assert priced.cost_content_token() is not None
        assert opaque.cost_content_token() is None
        assert fingerprint(priced) != fingerprint(opaque)

    @given(
        mc3_instances(max_queries=5),
        st.lists(
            st.tuples(
                st.booleans(),
                st.frozensets(st.sampled_from(PROPERTY_NAMES), max_size=3),
                st.frozensets(st.sampled_from(OUTSIDE), min_size=1, max_size=2),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_scoped_token_ignores_overrides_outside_component(self, instance, edits):
        overlay = OverlayCost(instance.cost)
        component = MC3Instance(instance.queries, overlay)
        reference = fingerprint(component)
        for select, inside, outside in edits:
            # Reaching at least one property outside the component, the
            # edit can price none of its candidates.
            clf = inside | outside
            (overlay.select if select else overlay.remove)(clf)
            assert fingerprint(component) == reference

    @given(mc3_instances(max_queries=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_scoped_token_sees_every_candidate_edit(self, instance, data):
        overlay = OverlayCost(instance.cost)
        component = MC3Instance(instance.queries, overlay)
        before = fingerprint(component)
        candidates = sorted(
            {clf for q in instance.queries for clf in iter_nonempty_subsets(q)},
            key=classifier_sort_key,
        )
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            clf = data.draw(st.sampled_from(candidates))
            select = data.draw(st.booleans())
            was = overlay.overrides.get(clf)
            (overlay.select if select else overlay.remove)(clf)
            after = fingerprint(component)
            if was != overlay.overrides[clf]:  # re-applying an edit is no edit
                assert after != before
            before = after

    @given(mc3_instances(max_queries=4))
    @settings(max_examples=20, deadline=None)
    def test_primary_rung_is_the_default(self, instance):
        assert fingerprint(instance) == fingerprint(instance, rung=PRIMARY_RUNG)


# ----------------------------------------------------------------------
# 2. Bit-identity: warm == cold == uncached
# ----------------------------------------------------------------------


def outcome_of(result):
    return (frozenset(result.solution.classifiers), result.cost)


class TestBitIdentity:
    @given(mc3_instances(max_queries=5))
    @settings(max_examples=25, deadline=None)
    def test_warm_equals_cold_equals_uncached(self, instance):
        store = MemorySolutionCache()
        plain = make_solver("mc3-general").solve(instance)
        cold = make_solver("mc3-general", cache=store).solve(instance)
        warm = make_solver("mc3-general", cache=store).solve(instance)
        assert outcome_of(plain) == outcome_of(cold) == outcome_of(warm)
        warm_cache = warm.details["engine"]["cache"]
        assert warm_cache["hits"] + warm_cache["uncacheable"] == warm.details[
            "components"
        ]

    @given(mc3_instances(max_queries=4))
    @settings(max_examples=15, deadline=None)
    def test_warm_hit_equals_parallel_solve(self, instance):
        store = MemorySolutionCache()
        make_solver("mc3-general", cache=store).solve(instance)
        warm = make_solver("mc3-general", cache=store).solve(instance)
        parallel = make_solver("mc3-general", jobs=4).solve(instance)
        assert outcome_of(warm) == outcome_of(parallel)

    def test_resilient_non_chaos_runs_use_cache(self, example11):
        store = MemorySolutionCache()
        policy = ResiliencePolicy()
        cold = make_solver("mc3-general", resilience=policy, cache=store).solve(
            example11
        )
        warm = make_solver("mc3-general", resilience=policy, cache=store).solve(
            example11
        )
        plain = make_solver("mc3-general").solve(example11)
        assert outcome_of(cold) == outcome_of(warm) == outcome_of(plain)
        assert warm.details["engine"]["cache"]["hits"] > 0

    def test_chaos_bypasses_cache(self, example11):
        store = MemorySolutionCache()
        make_solver("mc3-general", cache=store).solve(example11)
        warmed = store.stats()["entries"]
        assert warmed > 0
        policy = ResiliencePolicy(chaos=ChaosInjector(seed=7, fault_rate=0.3))
        result = make_solver(
            "mc3-general", resilience=policy, cache=store
        ).solve(example11)
        # No cache section in telemetry, no new entries, no hits burned.
        assert "cache" not in result.details["engine"]
        assert store.stats()["entries"] == warmed
        assert store.stats()["hits"] == 0

    def test_degraded_outcomes_are_never_inserted(self, example11):
        # Every component's primary rung fails; fallbacks answer.  The
        # solve succeeds degraded — and the cache must stay empty.
        store = MemorySolutionCache()
        policy = ResiliencePolicy(
            chaos=ChaosInjector(seed=0, fault_rate=1.0), on_error="degrade"
        )
        make_solver("mc3-general", resilience=policy, cache=store).solve(example11)
        assert store.stats()["entries"] == 0


# ----------------------------------------------------------------------
# 3. Store mechanics
# ----------------------------------------------------------------------


class TestMemoryStore:
    def test_lru_entry_eviction(self):
        store = MemorySolutionCache(max_entries=2)
        store.put("fp1", b"one")
        store.put("fp2", b"two")
        assert store.get("fp1") == b"one"  # refresh fp1
        store.put("fp3", b"three")  # evicts fp2, the LRU entry
        assert store.get("fp2") is None
        assert store.get("fp1") == b"one"
        assert store.get("fp3") == b"three"
        assert store.stats()["evictions"] == 1

    def test_byte_budget_eviction(self):
        store = MemorySolutionCache(max_entries=100, max_bytes=10)
        store.put("fp1", b"aaaaaa")
        store.put("fp2", b"bbbbbb")  # 12 bytes total > 10: fp1 evicted
        assert store.get("fp1") is None
        assert store.get("fp2") == b"bbbbbb"

    def test_oversized_blob_refused(self):
        store = MemorySolutionCache(max_bytes=4)
        assert store.put("fp", b"too large to ever fit") is False
        assert store.stats()["entries"] == 0

    def test_put_refuses_existing_fingerprint(self):
        store = MemorySolutionCache()
        assert store.put("fp", b"first") is True
        assert store.put("fp", b"second") is False
        assert store.get("fp") == b"first"

    def test_clear(self):
        store = MemorySolutionCache()
        store.put("fp", b"blob")
        assert store.clear() == 1
        assert store.get("fp") is None

    def test_invalidate_drops_entry_and_counts(self):
        store = MemorySolutionCache(max_bytes=10)
        store.put("fp1", b"aaaaaa")
        assert store.invalidate("fp1") is True
        assert store.get("fp1") is None
        assert store.stats()["corrupt_evictions"] == 1
        # The dead bytes stop counting against the budget: both of
        # these now fit where they would have evicted each other.
        store.put("fp2", b"bbbb")
        store.put("fp3", b"cccc")
        assert store.get("fp2") == b"bbbb"
        assert store.get("fp3") == b"cccc"

    def test_invalidate_missing_entry_is_a_noop(self):
        store = MemorySolutionCache()
        assert store.invalidate("absent") is False
        assert store.stats()["corrupt_evictions"] == 0


class TestDiskStore:
    def test_roundtrip_and_sharding(self, tmp_path):
        store = DiskSolutionCache(str(tmp_path))
        store.put("abcdef123", b"payload")
        assert store.get("abcdef123") == b"payload"
        assert (tmp_path / "ab" / "abcdef123.json").exists()

    def test_corrupt_entry_is_a_miss(self, tmp_path, example11):
        store = DiskSolutionCache(str(tmp_path))
        solver = make_solver("mc3-general", cache=store)
        solver.solve(example11)
        paths = sorted(tmp_path.rglob("*.json"))
        assert paths
        paths[0].write_text("{not json")
        # decode_entry treats the mangled blob as a miss, so a warm run
        # quietly re-solves (and the answer stays right).
        warm = make_solver("mc3-general", cache=store).solve(example11)
        plain = make_solver("mc3-general").solve(example11)
        assert outcome_of(warm) == outcome_of(plain)

    def test_corrupt_entry_is_unlinked_and_counted(self, tmp_path, example11):
        store = DiskSolutionCache(str(tmp_path))
        make_solver("mc3-general", cache=store).solve(example11)
        paths = sorted(tmp_path.rglob("*.json"))
        assert paths
        victim = paths[0]
        victim.write_text("{not json")
        before = victim.read_text()
        make_solver("mc3-general", cache=store).solve(example11)
        # The engine evicted the corrupt file on lookup and then
        # re-inserted a fresh entry for the re-solved component.
        assert store.stats()["corrupt_evictions"] == 1
        assert victim.exists() and victim.read_text() != before
        # A third run is a pure hit: nothing left to evict.
        make_solver("mc3-general", cache=store).solve(example11)
        assert store.stats()["corrupt_evictions"] == 1

    def test_invalidate_unlinks_file_and_counts(self, tmp_path):
        store = DiskSolutionCache(str(tmp_path))
        store.put("aa11", b"payload")
        assert store.invalidate("aa11") is True
        assert not (tmp_path / "aa" / "aa11.json").exists()
        assert store.stats()["corrupt_evictions"] == 1
        assert store.invalidate("aa11") is False
        assert store.stats()["corrupt_evictions"] == 1

    def test_byte_budget_evicts_oldest(self, tmp_path):
        store = DiskSolutionCache(str(tmp_path), max_bytes=64)
        store.put("aa11", b"x" * 40)
        os.utime(next(tmp_path.rglob("aa11.json")), (1, 1))  # age it
        store.put("bb22", b"y" * 40)  # 80 bytes > 64: oldest evicted
        assert store.get("aa11") is None
        assert store.get("bb22") == b"y" * 40

    def test_stats_and_clear(self, tmp_path):
        store = DiskSolutionCache(str(tmp_path))
        store.put("aa11", b"abc")
        stats = store.stats()
        assert stats["kind"] == "disk"
        assert stats["entries"] == 1
        assert stats["bytes"] >= 3
        assert store.clear() == 1
        assert store.stats()["entries"] == 0


class TestDetailsVersion:
    def test_entries_without_lower_bounds_are_never_served(self, tmp_path):
        """A disk cache written before components reported lower bounds
        holds details without them.  The version element of the
        solver's cache token keeps those entries from serving a new
        solve (compare the sampled solver's gap-probe split)."""
        from repro.solvers import GeneralSolver

        class Unversioned(GeneralSolver):
            """The cache token and details as they were before the
            version element."""

            def cache_token(self):
                return (self.name, self.wsc_method, self.lp_size_limit, self.prune)

            def solve_component(self, component):
                classifiers, details = super().solve_component(component)
                del details["lower_bound"], details["certified"]
                return classifiers, details

        store = DiskSolutionCache(str(tmp_path / "cache"))
        instance = bestbuy_like(200, seed=3)
        old = Unversioned(cache=store).solve(instance)
        assert old.details["engine"]["cache"]["inserts"] > 0
        assert old.details["engine"]["lower_bound"]["bounded"] == 0
        new = GeneralSolver(cache=store).solve(instance)
        assert new.details["engine"]["cache"]["hits"] == 0
        summary = new.details["engine"]["lower_bound"]
        assert summary["bounded"] == summary["components"] > 0
        assert new.solution.classifiers == old.solution.classifiers
        assert new.cost == old.cost
        # A second new solve is served from the new entries.
        again = GeneralSolver(cache=store).solve(instance)
        assert again.details["engine"]["cache"]["misses"] == 0
        assert again.details["engine"]["lower_bound"] == summary


class TestEntryCodec:
    def test_roundtrip(self):
        classifiers = frozenset({frozenset({"a"}), frozenset({"b", "c"})})
        details = {"bitspace": {"properties": 3}, "wsc": {"winner": "greedy"}}
        blob = encode_entry("fp", classifiers, details)
        assert blob is not None
        decoded = decode_entry(blob, "fp")
        assert decoded is not None
        assert decoded[0] == classifiers
        assert decoded[1] == details

    def test_identical_solutions_encode_identically(self):
        classifiers = frozenset({frozenset({"a"}), frozenset({"b"})})
        one = encode_entry("fp", classifiers, {"x": 1, "y": 2})
        two = encode_entry("fp", frozenset(sorted(classifiers, key=sorted)), {"y": 2, "x": 1})
        assert one == two

    def test_unserializable_details_refused(self):
        blob = encode_entry("fp", frozenset(), {"bad": object()})
        assert blob is None

    def test_wrong_fingerprint_is_a_miss(self):
        blob = encode_entry("fp1", frozenset({frozenset({"a"})}), {})
        assert decode_entry(blob, "fp2") is None

    def test_garbage_is_a_miss(self):
        assert decode_entry(b"\x00\xffgarbage", "fp") is None


# ----------------------------------------------------------------------
# 4. Plumbing
# ----------------------------------------------------------------------


class TestPlumbing:
    def test_telemetry_section(self, example11):
        store = MemorySolutionCache()
        result = make_solver("mc3-general", cache=store).solve(example11)
        section = result.details["engine"]["cache"]
        assert section["kind"] == "memory"
        assert section["misses"] == section["inserts"] > 0
        assert section["hits"] == 0
        assert 0.0 <= section["hit_rate"] <= 1.0
        assert section["store"]["entries"] == section["inserts"]

    def test_uncached_run_has_no_section(self, example11):
        # Pin cache="off" so the assertion holds even when the suite runs
        # with a process-wide default (REPRO_SOLUTION_CACHE=memory in CI).
        result = make_solver("mc3-general", cache="off").solve(example11)
        assert "cache" not in result.details["engine"]

    def test_cache_config_pickles(self):
        config = CacheConfig(backend="disk", directory="/tmp/x", max_mb=8.0)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_resolve_cache_memoizes_per_config(self):
        one = resolve_cache(CacheConfig(backend="memory"))
        two = resolve_cache(CacheConfig(backend="memory"))
        assert one is two

    def test_resolve_off_is_none(self):
        assert resolve_cache("off") is None
        assert resolve_cache(CacheConfig(backend="off")) is None

    def test_cache_token_of(self):
        assert cache_token_of(object()) is None
        solver = make_solver("mc3-general")
        assert cache_token_of(solver) == (
            "mc3-general",
            DETAILS_VERSION,
            solver.wsc_method,
            solver.lp_size_limit,
            solver.prune,
        )

    def test_every_registered_solver_accepts_cache_kwarg(self):
        from repro.solvers.registry import available_solvers

        # Queries of length <= 2 keep mc3-k2 in play; uniform costs keep
        # the Mixed baseline in play.
        instance = MC3Instance(
            ["a b", "c"], TableCost({"a": 1, "b": 1, "a b": 1, "c": 1})
        )
        store = MemorySolutionCache()
        for name in available_solvers():
            kwargs = {"redundancy": 1} if name == "mc3-robust" else {}
            solver = make_solver(name, cache=store, **kwargs)
            solver.solve(instance)

    def test_incremental_planner_warm_replan(self):
        cost = TableCost(
            {"a": 3, "b": 2, "c": 4, "d": 1, "a b": 4, "c d": 4.5},
            default=float("inf"),
        )
        store = MemorySolutionCache()
        planner = IncrementalPlanner(cost, cache=store)
        planner.add_batch(["a b"])
        planner.add_batch(["c d"])
        first = planner.replan()
        hits_after_first = store.stats()["hits"]
        # Nothing changed between replans, so every component of the
        # second one fingerprints identically and is served warm.
        second = planner.replan()
        uncached = IncrementalPlanner(cost)
        uncached.add_batch(["a b"])
        uncached.add_batch(["c d"])
        assert planner.built_classifiers == uncached.built_classifiers
        assert planner.total_cost == uncached.total_cost
        assert outcome_of(first) == outcome_of(second)
        assert store.stats()["hits"] > hits_after_first

    def test_sliding_window_replans_hit_and_match_uncached(self):
        # Consecutive windows share most of their components, and the
        # preprocessing edits elsewhere in each window stay out of a
        # component's scoped fingerprint, so later re-plans are served
        # largely from the cache — each equal to a cache-off solve.
        log = bestbuy_like(120, seed=3)
        store = MemorySolutionCache()
        hits = 0
        for start in range(0, 60, 10):
            window = MC3Instance(log.queries[start:start + 60], log.cost)
            served = make_solver("mc3-general", cache=store).solve(window)
            plain = make_solver("mc3-general", cache="off").solve(window)
            assert outcome_of(served) == outcome_of(plain)
            hits += served.details["engine"]["cache"]["hits"]
        assert hits > 0

    @given(st.lists(st.lists(query_strategy, max_size=4), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_persistent_overlay_planner_matches_replay_reference(self, batches):
        from repro.service import ServiceConfig, replay_reference
        from repro.service.journal import JournalRecord

        cost = HashCost(seed=5)
        planner = IncrementalPlanner(cost, cache=MemorySolutionCache())
        for batch in batches:
            planner.add_batch(batch)
        records = [
            JournalRecord(seq, tuple(tuple(sorted(q)) for q in batch), None)
            for seq, batch in enumerate(batches)
        ]
        reference = replay_reference(cost, ServiceConfig(cache="off"), records)
        assert planner.state_digest() == reference.state_digest()
        assert planner.built_classifiers == reference.built_classifiers

    def test_cli_cache_stats_and_clear(self, tmp_path, capsys, example11):
        from repro.cli import main

        cache_dir = str(tmp_path / "solutions")
        store = DiskSolutionCache(cache_dir)
        make_solver("mc3-general", cache=store).solve(example11)
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert DiskSolutionCache(cache_dir).stats()["entries"] == 0
