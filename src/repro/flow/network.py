"""Residual flow networks (Definition 2.2).

A :class:`FlowNetwork` stores a directed capacitated graph in the
standard residual representation: every edge is paired with a reverse
edge of capacity 0, and pushing flow increases the reverse residual.
Nodes are referred to by arbitrary hashable labels externally and dense
integer ids internally, so the max-flow kernel runs on plain lists.

Capacities may be ``math.inf`` — the bipartite vertex-cover reduction
(Theorem 2.3) uses infinite middle edges that must never be cut.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterator, List, NamedTuple, Tuple

from repro.exceptions import ReductionError


class Edge(NamedTuple):
    """A directed edge as seen by callers (not the residual twin)."""

    source: Hashable
    target: Hashable
    capacity: float
    flow: float


class FlowNetwork:
    """Directed graph with capacities in the residual representation."""

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._labels: List[Hashable] = []
        # Parallel edge arrays: edge i has twin i ^ 1.
        self._to: List[int] = []
        self._cap: List[float] = []
        self._adj: List[List[int]] = []
        self._forward_edges: List[int] = []  # indices of caller-added edges

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, label: Hashable) -> int:
        """Register a node; returns its dense id (idempotent)."""
        if label in self._ids:
            return self._ids[label]
        node_id = len(self._labels)
        self._ids[label] = node_id
        self._labels.append(label)
        self._adj.append([])
        return node_id

    def add_edge(self, source: Hashable, target: Hashable, capacity: float) -> int:
        """Add a directed edge; returns its index.

        Negative capacities are rejected; zero-capacity edges are allowed
        (they simply never carry flow).
        """
        if capacity < 0 or math.isnan(capacity):
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        u = self.add_node(source)
        v = self.add_node(target)
        index = len(self._to)
        self._to.append(v)
        self._cap.append(float(capacity))
        self._adj[u].append(index)
        self._to.append(u)
        self._cap.append(0.0)
        self._adj[v].append(index + 1)
        self._forward_edges.append(index)
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def node_id(self, label: Hashable) -> int:
        try:
            return self._ids[label]
        except KeyError:
            raise ReductionError(f"unknown node {label!r}") from None

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Caller-added edges with their current flow."""
        for index in self._forward_edges:
            twin = index ^ 1
            original = self._original_capacity(index)
            flow = self._cap[twin]  # residual on the twin == pushed flow
            yield Edge(
                self._labels[self._to[twin]],
                self._labels[self._to[index]],
                original,
                flow,
            )

    def _original_capacity(self, index: int) -> float:
        return self._cap[index] + self._cap[index ^ 1]

    # ------------------------------------------------------------------
    # Kernel-facing raw accessors (lists, ints only)
    # ------------------------------------------------------------------

    @property
    def raw_to(self) -> List[int]:
        return self._to

    @property
    def raw_cap(self) -> List[float]:
        return self._cap

    @property
    def raw_adj(self) -> List[List[int]]:
        return self._adj

    # ------------------------------------------------------------------
    # Residual reachability / cuts
    # ------------------------------------------------------------------

    def residual_reachable(self, source: Hashable) -> List[bool]:
        """Nodes reachable from ``source`` along positive residual edges.

        After a max flow this is the source side of a minimum cut.
        """
        start = self.node_id(source)
        seen = [False] * self.num_nodes
        seen[start] = True
        stack = [start]
        adj, cap, to = self._adj, self._cap, self._to
        while stack:
            node = stack.pop()
            for index in adj[node]:
                if cap[index] > 0 and not seen[to[index]]:
                    seen[to[index]] = True
                    stack.append(to[index])
        return seen

    def min_cut(self, source: Hashable, sink: Hashable) -> Tuple[List[Hashable], List[Edge]]:
        """After max flow: the source-side labels and the saturated cut edges.

        Raises if the sink is still reachable (i.e. max flow has not been
        run to completion).
        """
        reachable = self.residual_reachable(source)
        if reachable[self.node_id(sink)]:
            raise ReductionError("min_cut requires a completed max flow (sink reachable)")
        source_side = [label for label, nid in self._ids.items() if reachable[nid]]
        cut_edges = []
        for index in self._forward_edges:
            twin = index ^ 1
            u = self._to[twin]
            v = self._to[index]
            if reachable[u] and not reachable[v]:
                cut_edges.append(
                    Edge(
                        self._labels[u],
                        self._labels[v],
                        self._original_capacity(index),
                        self._cap[twin],
                    )
                )
        return source_side, cut_edges
