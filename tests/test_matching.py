"""Tests for Hopcroft–Karp matching and the König vertex cover."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    BipartiteGraph,
    hopcroft_karp,
    konig_vertex_cover,
    maximum_matching_size,
)


def brute_force_matching_size(edges):
    """Maximum matching by exhaustive search (tiny graphs only)."""
    edges = list(set(edges))
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(edges, size):
            lefts = [u for u, _v in combo]
            rights = [v for _u, v in combo]
            if len(set(lefts)) == size and len(set(rights)) == size:
                best = size
                break
    return best


def random_edges(seed, n_left=5, n_right=5, density=0.4):
    rng = random.Random(seed)
    return [
        (f"l{i}", f"r{j}")
        for i in range(n_left)
        for j in range(n_right)
        if rng.random() < density
    ]


def build_graph(edges):
    graph = BipartiteGraph()
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


class TestHopcroftKarp:
    def test_perfect_matching(self):
        graph = build_graph([("l0", "r0"), ("l1", "r1")])
        matching = hopcroft_karp(graph)
        assert matching == {"l0": "r0", "l1": "r1"}

    def test_contested_right_node(self):
        graph = build_graph([("l0", "r0"), ("l1", "r0")])
        assert len(hopcroft_karp(graph)) == 1

    def test_augmenting_path_found(self):
        # l0 can take r0 or r1; l1 only r0 — needs an augmenting swap.
        graph = build_graph([("l0", "r0"), ("l0", "r1"), ("l1", "r0")])
        assert len(hopcroft_karp(graph)) == 2

    def test_empty_graph(self):
        assert hopcroft_karp(BipartiteGraph()) == {}

    def test_matching_is_valid(self):
        edges = random_edges(3)
        matching = hopcroft_karp(build_graph(edges))
        edge_set = set(edges)
        assert all((u, v) in edge_set for u, v in matching.items())
        assert len(set(matching.values())) == len(matching)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        edges = random_edges(seed)
        assert maximum_matching_size(edges) == brute_force_matching_size(edges)


class TestKonigCover:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_cover_is_valid_and_minimum(self, seed):
        edges = random_edges(seed)
        graph = build_graph(edges)
        left_cover, right_cover = konig_vertex_cover(graph)
        for u, v in edges:
            assert u in left_cover or v in right_cover
        # König: |min vertex cover| == |max matching|.
        assert len(left_cover) + len(right_cover) == len(hopcroft_karp(graph))

    def test_star_graph_covers_center(self):
        graph = build_graph([("l0", "r0"), ("l0", "r1"), ("l0", "r2")])
        left_cover, right_cover = konig_vertex_cover(graph)
        assert left_cover == {"l0"}
        assert right_cover == set()
