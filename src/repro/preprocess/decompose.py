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
    for q in queries:
        anchor = -1
        for prop in q:
            if prop in ignore:
                continue
            root = index.get(prop)
            if root is None:
                root = index[prop] = len(parent)
                parent.append(root)
            else:
                # Walk to the root, halving the path on the way.
                while parent[root] != root:
                    parent[root] = root = parent[parent[root]]
            if anchor < 0:
                anchor = root
            elif root != anchor:
                # Union by attaching to the query's anchor root.
                parent[root] = anchor
        if anchor < 0:
            anchor = len(parent)
            parent.append(anchor)
        anchors.append(anchor)

    # Dicts keep insertion order: groups come out by first query.
    groups: Dict[int, List[Query]] = {}
    for q, root in zip(queries, anchors):
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        group = groups.get(root)
        if group is None:
            group = groups[root] = []
        group.append(q)
    return list(groups.values())
