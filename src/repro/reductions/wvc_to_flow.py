"""Theorem 2.3: bipartite Weighted Vertex Cover → Max-Flow / Min-Cut.

Construction (folklore, described in [Baïou & Barahona 2016]): source
``s`` connects to every left node with capacity equal to its weight,
every right node connects to sink ``t`` with capacity equal to its
weight, and every WVC edge becomes an infinite-capacity middle edge.
A minimum s-t cut cannot cross a middle edge, so for every WVC edge it
must cut the source edge of its left endpoint or the sink edge of its
right endpoint — i.e. choose that endpoint into the cover.  Min cut
value = min cover weight.

Cover extraction from the residual network after max flow:
left nodes *not* reachable from ``s`` (their source edge is cut) plus
right nodes reachable from ``s`` (their sink edge is cut).
"""

from __future__ import annotations

import math
from typing import Set, Tuple

from repro.core.properties import Classifier
from repro.flow import FlowNetwork, dinic
from repro.reductions.mc3_to_wvc import BipartiteWVC

SOURCE = ("__flow__", "source")
SINK = ("__flow__", "sink")


def wvc_to_flow_network(graph: BipartiteWVC) -> FlowNetwork:
    """Build the flow network for a bipartite WVC instance."""
    network = FlowNetwork()
    network.add_node(SOURCE)
    network.add_node(SINK)
    for label, weight in graph.left.items():
        network.add_edge(SOURCE, ("L", label), weight)
    for label, weight in graph.right.items():
        network.add_edge(("R", label), SINK, weight)
    for left_label, right_label in graph.edges:
        network.add_edge(("L", left_label), ("R", right_label), math.inf)
    return network


def solve_bipartite_wvc(graph: BipartiteWVC) -> Tuple[Set[Classifier], float]:
    """Minimum-weight vertex cover of a bipartite graph via max flow
    (Dinic's algorithm).

    Returns ``(cover, weight)``.  Nodes of infinite weight never enter
    the cover (their edges are covered from the other side, which the
    reduction guarantees is possible for feasible instances).
    """
    if not graph.edges:
        return set(), 0.0
    network = wvc_to_flow_network(graph)
    value = dinic(network, SOURCE, SINK)
    reachable = network.residual_reachable(SOURCE)

    cover: Set[Classifier] = set()
    for label in graph.left:
        if not reachable[network.node_id(("L", label))]:
            cover.add(label)
    for label in graph.right:
        if reachable[network.node_id(("R", label))]:
            cover.add(label)
    return cover, value
