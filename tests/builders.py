"""Hand-written digraphs for tests.

`WeightedDigraph` has one builder, `_from_codes`, which takes its stored
form; `digraph` writes that form from an edge map, and `edge_map` reads
it back.
"""
from __future__ import annotations

import numpy as np

from netchrono import WeightedDigraph


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
