"""Hand-written graphs and digraphs for tests.

`UndirectedGraph` has one builder, `_from_csr`; `graph` reaches it
through `from_edge_list` and pads in the isolated vertices, and
`adjacency` reads a graph back from `csr_arrays`.  `WeightedDigraph` has
one builder, `_from_codes`, which takes its stored form; `digraph` writes
that form from an edge map, and `edge_map` reads it back.
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


def digraph(labels, edges: dict[tuple[int, int], float]) -> WeightedDigraph:
    """The digraph on `labels` with an edge u -> v of weight w for each
    (u, v): w in `edges`; self-loops and opposite pairs are allowed."""
    labels = np.unique(np.fromiter(labels, dtype=np.int64))
    levels, level_of = np.unique(np.fromiter(edges.values(), dtype=np.float64), return_inverse=True)
    ends = np.searchsorted(labels, np.array(list(edges), dtype=np.int64).reshape(-1, 2))
    codes = np.zeros((len(labels), len(labels)), dtype=np.min_scalar_type(len(levels)))
    codes[ends[:, 0], ends[:, 1]] = level_of + 1
    return WeightedDigraph._from_codes(labels, codes, levels)


def edge_map(dg: WeightedDigraph) -> dict[tuple[int, int], float]:
    """{(u, v): weight} of every edge of dg, in row-major (u, v) order."""
    labels, src, dst, w = dg.arrays()
    return dict(zip(zip(labels[src].tolist(), labels[dst].tolist()), w.tolist()))
