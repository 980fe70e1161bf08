"""Hand-written graphs and digraphs for tests.

`UndirectedGraph` has one builder, `_from_csr`; `graph` reaches it
through `from_edge_list` and pads in the isolated vertices, and
`adjacency` reads a graph back from `csr_arrays`.  `WeightedDigraph` has
one builder, `_from_counts`, which takes its stored form; `digraph` writes
that form from a map of majority counts, and `edge_map` reads it back as
weights.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from netchrono import UndirectedGraph, WeightedDigraph, from_edge_list


def graph(adjacency: Mapping[int, Iterable[int]]) -> UndirectedGraph:
    """The graph with an edge {v, w} for each w listed under v (from either
    end or both) and a vertex for each key, isolated when nothing lists it."""
    labels, indptr, indices = from_edge_list(
        [(v, w) for v, nbrs in adjacency.items() for w in nbrs]).csr_arrays()
    every = np.union1d(np.fromiter(adjacency, dtype=np.int64, count=len(adjacency)), labels)
    row = np.searchsorted(every, labels)
    degrees = np.zeros(len(every), dtype=np.int64)
    degrees[row] = np.diff(indptr)
    padded = np.zeros(len(every) + 1, dtype=np.int64)
    np.cumsum(degrees, out=padded[1:])
    return UndirectedGraph._from_csr(every, padded, row[indices])


def adjacency(g: UndirectedGraph) -> dict[int, frozenset[int]]:
    """{v: the labels of v's neighbours} for every vertex v of g, labels ascending."""
    labels, indptr, indices = g.csr_arrays()
    nbrs = labels[indices].tolist()
    return {v: frozenset(nbrs[lo:hi])
            for v, lo, hi in zip(labels.tolist(), indptr[:-1].tolist(), indptr[1:].tolist())}


def digraph(labels, edges: dict[tuple[int, int], int], alpha: int) -> WeightedDigraph:
    """The digraph on `labels` with an edge u -> v of weight m / alpha for
    each (u, v): m in `edges`; self-loops and opposite pairs are allowed,
    but every m must be a majority count, ceil(alpha/2) <= m <= alpha."""
    labels = np.unique(np.fromiter(labels, dtype=np.int64))
    m = np.fromiter(edges.values(), dtype=np.int64, count=len(edges))
    assert np.all((2 * m >= alpha) & (m <= alpha)), f"counts {m} are not majorities of {alpha}"
    ends = np.searchsorted(labels, np.array(list(edges), dtype=np.int64).reshape(-1, 2))
    counts = np.zeros((len(labels), len(labels)), dtype=np.min_scalar_type(alpha))
    counts[ends[:, 0], ends[:, 1]] = m
    return WeightedDigraph._from_counts(labels, counts, alpha)


def edge_map(dg: WeightedDigraph) -> dict[tuple[int, int], float]:
    """{(u, v): weight} of every edge of dg, in row-major (u, v) order."""
    labels, src, dst, w = dg.arrays()
    return dict(zip(zip(labels[src].tolist(), labels[dst].tolist()), w.tolist()))
