"""Tests for the max-flow substrate: Dinic's algorithm, the residual
network, minimum cuts.  Random networks are validated against networkx
as an independent oracle."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReductionError, SolverError
from repro.flow import FlowNetwork, dinic


def diamond_network():
    """Classic diamond: max flow 2000 via both middle paths + cross edge."""
    network = FlowNetwork()
    network.add_edge("s", "a", 1000)
    network.add_edge("s", "b", 1000)
    network.add_edge("a", "b", 1)
    network.add_edge("a", "t", 1000)
    network.add_edge("b", "t", 1000)
    return network


def random_capacity(rng: random.Random) -> float:
    """Integer, fractional or infinite: the capacities the k <= 2
    reduction emits (classifier weights such as 0, 0.1 or 1/3, and
    infinite middle edges)."""
    draw = rng.random()
    if draw < 0.25:
        return math.inf
    if draw < 0.5:
        return rng.randint(0, 36) / rng.choice((3, 10))
    return rng.randint(0, 12)


def random_network(seed: int, num_nodes: int = 8, num_edges: int = 18):
    rng = random.Random(seed)
    network = FlowNetwork()
    graph = nx.DiGraph()
    nodes = list(range(num_nodes))
    for node in nodes:
        network.add_node(node)
        graph.add_node(node)
    for _ in range(num_edges):
        u, v = rng.sample(nodes, 2)
        cap = random_capacity(rng)
        network.add_edge(u, v, cap)
        # networkx collapses parallel edges, so capacities accumulate; it
        # reads an edge without a capacity attribute as infinite.
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
            if math.isfinite(cap):
                graph[u][v]["capacity"] = cap
        elif "capacity" in graph[u][v]:
            if math.isfinite(cap):
                graph[u][v]["capacity"] += cap
            else:
                del graph[u][v]["capacity"]
    return network, graph


def checked_dinic(network, graph):
    """Dinic's max flow from node 0 to node 1, checked against networkx.

    Where networkx reports the flow unbounded, checks that Dinic raises
    :class:`SolverError` and returns ``None``.
    """
    try:
        expected = nx.maximum_flow_value(graph, 0, 1)
    except nx.NetworkXUnbounded:
        with pytest.raises(SolverError, match="unbounded"):
            dinic(network, 0, 1)
        return None
    value = dinic(network, 0, 1)
    assert value == pytest.approx(expected)
    return value


class TestNetwork:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            FlowNetwork().add_edge("a", "b", -1)

    def test_unknown_node(self):
        with pytest.raises(ReductionError):
            FlowNetwork().node_id("missing")

    def test_edges_report_flow(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 5)
        dinic(network, "s", "t")
        (edge,) = network.edges()
        assert edge.capacity == 5
        assert edge.flow == 5

    def test_min_cut_of_completed_flow(self):
        network = diamond_network()
        value = dinic(network, "s", "t")
        source_side, cut_edges = network.min_cut("s", "t")
        assert value == 2000
        assert "s" in source_side and "t" not in source_side
        assert sum(e.capacity for e in cut_edges) == value

    def test_min_cut_before_completion_rejected(self):
        network = diamond_network()
        with pytest.raises(ReductionError):
            network.min_cut("s", "t")


class TestDinic:
    def test_single_edge(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 3.5)
        assert dinic(network, "s", "t") == 3.5

    def test_no_path(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 3)
        network.add_node("t")
        assert dinic(network, "s", "t") == 0

    def test_diamond(self):
        network = diamond_network()
        assert dinic(network, "s", "t") == 2000

    def test_bottleneck_path(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 10)
        network.add_edge("a", "b", 2)
        network.add_edge("b", "t", 10)
        assert dinic(network, "s", "t") == 2

    def test_infinite_middle_edges(self):
        """The WVC-reduction shape: finite source/sink edges, infinite
        middle ones."""
        network = FlowNetwork()
        network.add_edge("s", "l1", 4)
        network.add_edge("s", "l2", 6)
        network.add_edge("l1", "r1", math.inf)
        network.add_edge("l2", "r1", math.inf)
        network.add_edge("r1", "t", 7)
        assert dinic(network, "s", "t") == 7

    def test_unbounded_raises(self):
        network = FlowNetwork()
        network.add_edge("s", "a", math.inf)
        network.add_edge("a", "t", math.inf)
        with pytest.raises(SolverError):
            dinic(network, "s", "t")

    def test_source_equals_sink_rejected(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 1)
        with pytest.raises(SolverError):
            dinic(network, "s", "s")

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, seed):
        network, graph = random_network(seed)
        checked_dinic(network, graph)

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=25, deadline=None)
    def test_min_cut_capacity_equals_flow(self, seed):
        network, graph = random_network(seed)
        value = checked_dinic(network, graph)
        if value is None:
            return
        source_side, cut_edges = network.min_cut(0, 1)
        assert 0 in source_side and 1 not in source_side
        assert sum(edge.capacity for edge in cut_edges) == pytest.approx(value)

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=25, deadline=None)
    def test_flow_conservation(self, seed):
        network, graph = random_network(seed)
        value = checked_dinic(network, graph)
        if value is None:
            return
        balance = {}
        for edge in network.edges():
            balance[edge.source] = balance.get(edge.source, 0.0) - edge.flow
            balance[edge.target] = balance.get(edge.target, 0.0) + edge.flow
            assert -1e-9 <= edge.flow <= edge.capacity + 1e-9
        for node, net in balance.items():
            if node == 0:
                assert net == pytest.approx(-value)
            elif node == 1:
                assert net == pytest.approx(value)
            else:
                assert net == pytest.approx(0.0)
