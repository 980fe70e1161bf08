"""Core graph types and structural algorithms.

Three value types underpin the whole pipeline: `UndirectedGraph` (the
reference network and its peeled remnants), `WeightedDigraph` (the
pairwise arrival-probability digraph and its acyclic transform) and
`Chronology` (a recorded or predicted vertex arrival order).

All types are immutable after construction; structural operations return
new objects, which makes them safe to share across worker processes.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import SelfLoopError, UnknownVertexError


class UndirectedGraph:
    """Label-preserving simple undirected graph.

    Vertex labels are arbitrary non-negative integers and are never
    re-indexed by structural operations; per-vertex scores accumulated
    across peeled subgraphs rely on that.
    """

    __slots__ = ("_adj", "_edge_count", "_csr")

    def __init__(self, adjacency: Mapping[int, Iterable[int]]):
        adj = {int(v): frozenset(int(w) for w in nbrs) for v, nbrs in adjacency.items()}
        for v, nbrs in adj.items():
            if v in nbrs:
                raise SelfLoopError(v)
            for w in nbrs:
                if w not in adj or v not in adj[w]:
                    raise ValueError(f"adjacency is not symmetric at edge ({v}, {w})")
        self._adj = adj
        self._edge_count = sum(len(nbrs) for nbrs in adj.values()) // 2
        self._csr = None

    @classmethod
    def _trusted(cls, adj: dict[int, frozenset[int]]) -> "UndirectedGraph":
        # internal fast path: caller guarantees the invariants
        g = cls.__new__(cls)
        g._adj = adj
        g._edge_count = sum(len(nbrs) for nbrs in adj.values()) // 2
        g._csr = None
        return g

    @classmethod
    def _from_csr(cls, labels: np.ndarray, indptr: np.ndarray,
                  indices: np.ndarray) -> "UndirectedGraph":
        # internal fast path: a symmetric CSR structure with no self-loops, in
        # the layout `csr_arrays` returns, which it also becomes
        nbrs = labels[indices].tolist()
        bounds = indptr.tolist()
        g = cls.__new__(cls)
        g._adj = {v: frozenset(nbrs[lo:hi])
                  for v, lo, hi in zip(labels.tolist(), bounds, bounds[1:])}
        g._edge_count = len(indices) // 2
        g._csr = (labels, indptr, indices)
        return g

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._adj)

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(v) from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (min(u,v), max(u,v)), sorted."""
        for v in sorted(self._adj):
            for w in sorted(self._adj[v]):
                if v < w:
                    yield (v, w)

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(labels, indptr, indices) CSR view with rows in ascending label order.

        Row i of the CSR structure is the vertex labels[i]; `indices` holds
        row positions, not labels.  Cached, since centrality kernels call
        this repeatedly on shared graphs.
        """
        if self._csr is None:
            order = sorted(self._adj)
            labels = np.fromiter(order, dtype=np.int64, count=len(order))
            degrees = np.fromiter((len(self._adj[v]) for v in order), dtype=np.int64,
                                  count=len(order))
            nbrs = np.fromiter(chain.from_iterable(self._adj[v] for v in order), dtype=np.int64,
                               count=2 * self._edge_count)
            rows = np.repeat(np.arange(len(order), dtype=np.int64), degrees)
            cols = np.searchsorted(labels, nbrs)
            indices = cols[np.lexsort((cols, rows))]
            indptr = np.zeros(len(order) + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            self._csr = (labels, indptr, indices)
        return self._csr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(frozenset((v, nbrs) for v, nbrs in self._adj.items()))

    def __repr__(self) -> str:
        return f"UndirectedGraph(|V|={self.vertex_count}, |E|={self.edge_count})"


class Chronology:
    """An ordered sequence of distinct vertex labels (an arrival order)."""

    __slots__ = ("_order",)

    def __init__(self, order: Iterable[int]):
        order = tuple(int(v) for v in order)
        if len(set(order)) != len(order):
            raise ValueError("chronology contains duplicate labels")
        self._order = order

    @property
    def order(self) -> tuple[int, ...]:
        return self._order

    def index_of(self, v: int) -> int:
        """Position of v in the arrival order (0-based)."""
        return self.positions()[v]

    def positions(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self._order)}

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[int]:
        return iter(self._order)

    def __getitem__(self, i: int) -> int:
        return self._order[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chronology):
            return NotImplemented
        return self._order == other._order

    def __hash__(self) -> int:
        return hash(self._order)

    def __repr__(self) -> str:
        if len(self._order) > 8:
            head = ", ".join(map(str, self._order[:8]))
            return f"Chronology([{head}, ...], n={len(self._order)})"
        return f"Chronology({list(self._order)})"


class WeightedDigraph:
    """Directed graph with weighted edges, weights in [0.5, 1.0].

    Digraphs produced by the pipeline additionally carry at most one of
    (u, v) and (v, u) per pair (arrival-probability semantics); the type
    itself admits opposite pairs so cycle detection can be exercised on
    arbitrary digraphs.  Edges are stored as flat numpy arrays in
    canonical (source, target) order so that the cycle-breaking and
    binning passes stay vectorized even at ~|V|^2/2 edges; sorted sources
    make the arrays a CSR structure, see `out_indptr`.
    """

    __slots__ = ("_labels", "_src", "_dst", "_w")

    def __init__(self, vertices: Iterable[int], edges: Mapping[tuple[int, int], float]):
        labels = np.fromiter(sorted({int(v) for v in vertices}), dtype=np.int64)
        index = {int(v): i for i, v in enumerate(labels)}
        src = np.empty(len(edges), dtype=np.int64)
        dst = np.empty(len(edges), dtype=np.int64)
        w = np.empty(len(edges), dtype=np.float64)
        for k, ((u, v), weight) in enumerate(edges.items()):
            if u not in index:
                raise UnknownVertexError(u)
            if v not in index:
                raise UnknownVertexError(v)
            if not (0.5 <= weight <= 1.0):
                raise ValueError(f"edge ({u}, {v}) weight {weight} outside [0.5, 1.0]")
            src[k] = index[u]
            dst[k] = index[v]
            w[k] = weight
        self._finish(labels, src, dst, w)

    def _finish(self, labels, src, dst, w) -> None:
        # one O(m) check; pipeline stages hand over arrays already in canonical order
        key = src * len(labels)
        key += dst
        if np.any(key[1:] < key[:-1]):
            order = np.lexsort((dst, src))
            src, dst, w = src[order], dst[order], w[order]
        self._labels = labels
        self._src = src
        self._dst = dst
        self._w = w
        for a in (self._labels, self._src, self._dst, self._w):
            a.setflags(write=False)

    @classmethod
    def _from_arrays(cls, labels: np.ndarray, src: np.ndarray, dst: np.ndarray,
                     w: np.ndarray) -> "WeightedDigraph":
        # internal fast path: src/dst are positions into labels (which is sorted)
        dg = cls.__new__(cls)
        dg._finish(np.asarray(labels, dtype=np.int64), np.asarray(src, dtype=np.int64),
                   np.asarray(dst, dtype=np.int64), np.asarray(w, dtype=np.float64))
        return dg

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(int(v) for v in self._labels)

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return len(self._src)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(labels, src, dst, weights); src/dst are positions into labels."""
        return self._labels, self._src, self._dst, self._w

    def out_indptr(self) -> np.ndarray:
        """CSR row pointers: the out-edges of position i are [indptr[i], indptr[i+1])."""
        return np.searchsorted(self._src, np.arange(len(self._labels) + 1))

    def edges(self) -> Iterator[tuple[tuple[int, int], float]]:
        for s, d, weight in zip(self._src, self._dst, self._w):
            yield (int(self._labels[s]), int(self._labels[d])), float(weight)

    def _position(self, v: int) -> int | None:
        i = int(np.searchsorted(self._labels, v))
        return i if i < len(self._labels) and self._labels[i] == v else None

    def _edge_index(self, u: int, v: int) -> int | None:
        """Index of edge (u, v) in the arrays, by binary search on the canonical order."""
        ui, vi = self._position(u), self._position(v)
        if ui is None or vi is None:
            return None
        lo, hi = np.searchsorted(self._src, (ui, ui + 1))
        k = int(lo + np.searchsorted(self._dst[lo:hi], vi))
        return k if k < hi and self._dst[k] == vi else None

    def weight(self, u: int, v: int) -> float:
        k = self._edge_index(u, v)
        if k is None:
            raise KeyError((u, v))
        return float(self._w[k])

    def has_edge(self, u: int, v: int) -> bool:
        return self._edge_index(u, v) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return (np.array_equal(self._labels, other._labels)
                and np.array_equal(self._src, other._src)
                and np.array_equal(self._dst, other._dst)
                and np.array_equal(self._w, other._w))

    def __repr__(self) -> str:
        return f"WeightedDigraph(|V|={self.vertex_count}, |E|={self.edge_count})"


def from_edge_list(pairs: Iterable[tuple[int, int]]) -> UndirectedGraph:
    """Build a simple undirected graph from (u, v) pairs.

    Duplicate and reversed pairs collapse to a single edge; self-loops are
    rejected.  Isolated endpoints never arise here (every listed vertex is
    an endpoint), but vertices of degree zero are representable and survive
    `remove_vertices`.
    """
    adj: dict[int, set[int]] = {}
    for u, v in pairs:
        u, v = int(u), int(v)
        if u == v:
            raise SelfLoopError(u)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return UndirectedGraph._trusted({v: frozenset(nbrs) for v, nbrs in adj.items()})


def remove_vertices(g: UndirectedGraph, s: Iterable[int]) -> UndirectedGraph:
    """Induced subgraph on g.vertices minus s; g itself is unmodified."""
    drop = {int(v) for v in s}
    for v in drop:
        if not g.has_vertex(v):
            raise UnknownVertexError(v)
    adj = {v: nbrs - drop for v, nbrs in g._adj.items() if v not in drop}
    return UndirectedGraph._trusted(adj)


def strong_component_ids(dg: WeightedDigraph) -> np.ndarray:
    """Strong-component id per vertex position (scipy csgraph backend)."""
    n = dg.vertex_count
    _, _, dst, w = dg.arrays()
    # the canonical arrays are already CSR; components read only the structure,
    # so the weights stand in as data without a copy
    mat = sp.csr_matrix((w, dst, dg.out_indptr()), shape=(n, n))
    _, comp = csgraph.connected_components(mat, directed=True, connection="strong")
    return comp


def strongly_connected_components(dg: WeightedDigraph) -> list[frozenset[int]]:
    """SCC partition, blocks sorted by their smallest vertex label."""
    labels, _, _, _ = dg.arrays()
    if dg.vertex_count == 0:
        return []
    comp = strong_component_ids(dg)
    blocks: dict[int, set[int]] = {}
    for pos, cid in enumerate(comp):
        blocks.setdefault(int(cid), set()).add(int(labels[pos]))
    return [frozenset(b) for b in sorted(blocks.values(), key=min)]


def is_acyclic(dg: WeightedDigraph) -> bool:
    """True iff the digraph has no directed cycle (self-loops included)."""
    _, src, dst, _ = dg.arrays()
    if np.any(src == dst):
        return False
    if dg.vertex_count == 0:
        return True
    comp = strong_component_ids(dg)
    return bool(np.all(np.bincount(comp) <= 1))
