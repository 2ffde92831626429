"""Preprocessing step 2 (Observation 3.2): decomposition into
property-disjoint sub-instances.

Conceptually: build a graph whose nodes are properties with a path over
each query's properties (Algorithm 1, line 4); connected components
then induce a partition of the queries such that distinct parts share
no property, and the optimum of the whole instance is the union of the
parts' optima.

The implementation interns properties to dense integer ids and runs
union-find with path halving instead of materialising the graph — the
components are identical (a query's path connects exactly its
properties), but the pass allocates no adjacency lists and does no
string-keyed BFS, which matters on the 100k-query synthetic loads where
decomposition runs before every solve.
"""

from __future__ import annotations

from typing import Container, Dict, List, Sequence

from repro.core.properties import Query


def partition_queries(
    queries: Sequence[Query], ignore: Container[str] = ()
) -> List[List[Query]]:
    """Partition queries into property-disjoint groups.

    Deterministic: groups are ordered by the first query that touches
    them, queries keep their input order within a group.

    Properties in ``ignore`` connect nothing: the groups are then the
    components of the queries linked through their *other* properties,
    and may share ignored ones (preprocessing splits step 3 at its free
    properties this way, docs/algorithms.md §2).  A query whose every
    property is ignored forms a group of its own.
    """
    index: Dict[str, int] = {}
    parent: List[int] = []
    anchors: List[int] = []

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]  # path halving
            node = parent[node]
        return node

    for q in queries:
        anchor = -1
        for prop in q:
            if prop in ignore:
                continue
            node = index.get(prop)
            if node is None:
                node = len(parent)
                index[prop] = node
                parent.append(node)
            root = find(node)
            if anchor < 0:
                anchor = root
            elif root != anchor:
                # Union by attaching to the query's anchor root; tree
                # depth stays bounded via path halving in find().
                parent[root] = anchor
        if anchor < 0:
            anchor = len(parent)
            parent.append(anchor)
        anchors.append(anchor)

    groups: Dict[int, List[Query]] = {}
    order: List[int] = []
    for q, anchor in zip(queries, anchors):
        root = find(anchor)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(q)
    return [groups[root] for root in order]
