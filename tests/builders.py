"""Hand-written graphs, digraphs and score tables for tests.

`UndirectedGraph` has one builder, `_from_csr`; `graph` reads the edges
through `from_edge_list` and lays them out again with `_csr_layout`, the
isolated vertices padded in, `adjacency` reads a graph back from
`csr_arrays`, and `level_csrs` cuts each peeling level out of a graph
with `remove_vertices`.  `WeightedDigraph` has one builder,
`_from_counts`, which takes its stored form; `digraph` writes that form
from a map of majority counts, and `edge_map` reads it back as weights.
`score_table` builds a `ScoreTable` from a map of scores.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from netchrono import ScoreTable, UndirectedGraph, WeightedDigraph, from_edge_list, remove_vertices
from netchrono.dcr import _levels
from netchrono.graph import _csr_layout


def graph(adjacency: Mapping[int, Iterable[int]]) -> UndirectedGraph:
    """The graph with an edge {v, w} for each w listed under v (from either
    end or both) and a vertex for each key, isolated when nothing lists it."""
    labels, indptr, indices = from_edge_list(
        [(v, w) for v, nbrs in adjacency.items() for w in nbrs]).csr_arrays()
    every = np.union1d(np.fromiter(adjacency, dtype=np.int64, count=len(adjacency)), labels)
    row = np.searchsorted(every, labels)
    return UndirectedGraph._from_csr(every, *_csr_layout(
        len(every), np.repeat(row, np.diff(indptr)), row[indices]))


def adjacency(g: UndirectedGraph) -> dict[int, frozenset[int]]:
    """{v: the labels of v's neighbours} for every vertex v of g, labels ascending."""
    labels, indptr, indices = g.csr_arrays()
    nbrs = labels[indices].tolist()
    return {v: frozenset(nbrs[lo:hi])
            for v, lo, hi in zip(labels.tolist(), indptr[:-1].tolist(), indptr[1:].tolist())}


def level_csrs(g: UndirectedGraph) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indptr, indices) of each peeling level of g that `dcr._levels` lists,
    each cut from g by `remove_vertices`, so independent of `dcr._union_csr`."""
    labels, indptr, indices = g.csr_arrays()
    out = []
    for live, _ in _levels(indptr, indices):
        gone = np.ones(len(labels), dtype=bool)
        gone[live] = False
        out.append(remove_vertices(g, labels[gone].tolist()).csr_arrays()[1:])
    return out


def score_table(scores: Mapping[int, float]) -> ScoreTable:
    """The ScoreTable of each label's score in `scores`."""
    return ScoreTable(np.fromiter(scores, dtype=np.int64, count=len(scores)),
                      np.fromiter(scores.values(), dtype=np.float64, count=len(scores)))


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
