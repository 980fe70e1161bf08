"""Core graph types and structural algorithms.

Three value types underpin the whole pipeline: `UndirectedGraph` (the
reference network and its peeled remnants), `WeightedDigraph` (the
pairwise arrival-probability digraph and its acyclic transform) and
`Chronology` (a recorded or predicted vertex arrival order).

All types are immutable after construction; structural operations return
new objects, which makes them safe to share across worker processes.

The one cycle test is Kahn's source peel (`_source_rounds`), read by
`is_acyclic`, the probes of `break_cycles` and `bin_by_indegree`.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import NetchronoError, SelfLoopError, UnknownVertexError


class UndirectedGraph:
    """Label-preserving simple undirected graph, stored as CSR arrays.

    Vertex labels are arbitrary integers in the int64 range and are never
    re-indexed by structural operations; per-vertex scores accumulated
    across peeled subgraphs rely on that.  The stored form is the one
    `csr_arrays` returns, so equal graphs have equal arrays.
    """

    __slots__ = ("_labels", "_indptr", "_indices")

    def __init__(self, adjacency: Mapping[int, Iterable[int]]):
        adj = {int(v): frozenset(int(w) for w in nbrs) for v, nbrs in adjacency.items()}
        for v, nbrs in adj.items():
            if v in nbrs:
                raise SelfLoopError(v)
            for w in nbrs:
                if w not in adj or v not in adj[w]:
                    raise ValueError(f"adjacency is not symmetric at edge ({v}, {w})")
        order = sorted(adj)
        labels = np.fromiter(order, dtype=np.int64, count=len(order))
        degrees = np.fromiter((len(adj[v]) for v in order), dtype=np.int64, count=len(order))
        nbrs = np.fromiter(chain.from_iterable(adj[v] for v in order), dtype=np.int64,
                           count=int(degrees.sum()))
        rows = np.repeat(np.arange(len(order), dtype=np.int64), degrees)
        self._set(labels, *_csr_layout(len(order), rows, np.searchsorted(labels, nbrs)))

    def _set(self, labels: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> None:
        self._labels = labels
        self._indptr = indptr
        self._indices = indices
        for a in (labels, indptr, indices):
            a.setflags(write=False)

    @classmethod
    def _from_csr(cls, labels: np.ndarray, indptr: np.ndarray,
                  indices: np.ndarray) -> "UndirectedGraph":
        # internal fast path: int64 arrays of a symmetric CSR structure with no
        # self-loops, in the layout `csr_arrays` returns; they become read-only
        g = cls.__new__(cls)
        g._set(labels, indptr, indices)
        return g

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._labels.tolist())

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return len(self._indices) // 2

    def _row(self, v: int) -> slice:
        """The span of v's neighbour positions in `indices`."""
        i = _position(self._labels, v)
        if i is None:
            raise UnknownVertexError(v)
        return slice(int(self._indptr[i]), int(self._indptr[i + 1]))

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._labels[self._indices[self._row(v)]].tolist())

    def degree(self, v: int) -> int:
        row = self._row(v)
        return row.stop - row.start

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (min(u,v), max(u,v)), sorted."""
        rows = np.repeat(np.arange(len(self._labels)), np.diff(self._indptr))
        upper = rows < self._indices
        return zip(self._labels[rows[upper]].tolist(),
                   self._labels[self._indices[upper]].tolist())

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(labels, indptr, indices), the stored form; all three read-only int64.

        Row i of the CSR structure is the vertex labels[i], labels ascending;
        `indices` holds row positions, not labels, ascending within a row.
        """
        return self._labels, self._indptr, self._indices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.csr_arrays(), other.csr_arrays()))

    def __hash__(self) -> int:
        return hash(tuple(a.tobytes() for a in self.csr_arrays()))

    def __repr__(self) -> str:
        return f"UndirectedGraph(|V|={self.vertex_count}, |E|={self.edge_count})"


def _position(labels: np.ndarray, v: int) -> int | None:
    """Index of v in the ascending `labels`, or None when absent."""
    i = int(np.searchsorted(labels, v))
    return i if i < len(labels) and labels[i] == v else None


def _csr_layout(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the n-row structure holding the position pairs
    (rows[k], cols[k]), each once however often it is listed."""
    key = rows * n + cols  # positions are below n, so the key cannot overflow
    key.sort()
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    rows, indices = np.divmod(key, max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices


def _induced_csr(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray,
                 keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the subgraph induced by `keep`, rows renumbered in position order.

    `rows` is the row of every entry of `indices`.  Renumbering is monotone,
    so each row's neighbours stay sorted: the result is the `csr_arrays`
    layout of the subgraph.
    """
    entries = keep[rows] & keep[indices]
    position = np.cumsum(keep) - 1
    sub_indices = position[indices[entries]]
    sub_indptr = np.zeros(np.count_nonzero(keep) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[entries], minlength=len(keep))[keep], out=sub_indptr[1:])
    return sub_indptr, sub_indices


class Chronology:
    """An ordered sequence of distinct vertex labels (an arrival order)."""

    __slots__ = ("_order",)

    def __init__(self, order: Iterable[int]):
        if isinstance(order, range):  # distinct integers by construction
            order = tuple(order)
        else:
            order = tuple(int(v) for v in order)
            if len(set(order)) != len(order):
                raise ValueError("chronology contains duplicate labels")
        self._order = order

    @property
    def order(self) -> tuple[int, ...]:
        return self._order

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

    Only `pairwise_digraph` and `break_cycles` build one, through
    `_from_codes`, and they carry exactly one of (u, v) and (v, u) per pair
    (arrival-probability semantics), so the digraph is stored dense:
    `codes` is an n x n matrix over the sorted labels in which entry 0
    means no edge and entry k >= 1 an edge of weight levels[k - 1],
    `levels` ascending.  The stored form itself admits self-loops and
    opposite pairs, so cycle detection can be exercised on arbitrary
    digraphs.  Edge arrays in canonical (source, target) order are derived
    on demand, see `arrays`.
    """

    __slots__ = ("_labels", "_codes", "_levels", "_left")

    @classmethod
    def _from_codes(cls, labels: np.ndarray, codes: np.ndarray,
                    levels: np.ndarray) -> "WeightedDigraph":
        # the one builder, from the stored form `matrix` returns: labels
        # sorted, levels ascending and covering codes; they become read-only
        dg = cls()
        dg._labels, dg._codes, dg._levels = labels, codes, levels
        dg._left = None  # the source peel's leftover mask, computed on first use
        for a in (labels, codes, levels):
            a.setflags(write=False)
        return dg

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(int(v) for v in self._labels)

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self._codes))

    def matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(labels, codes, levels), the stored form; all three read-only.

        levels may hold weights that no edge carries (`break_cycles` keeps
        the levels of its input).
        """
        return self._labels, self._codes, self._levels

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(labels, src, dst, weights) in canonical (src, dst) order; src/dst
        are int64 positions into labels.  Derived anew on every call."""
        flat = np.flatnonzero(self._codes != 0)
        src, dst = np.divmod(flat, max(len(self._labels), 1))
        return self._labels, src, dst, self._levels[self._codes.ravel()[flat] - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.arrays(), other.arrays()))

    def __repr__(self) -> str:
        return f"WeightedDigraph(|V|={self.vertex_count}, |E|={self.edge_count})"


def from_edge_list(pairs: Iterable[tuple[int, int]]) -> UndirectedGraph:
    """Build a simple undirected graph from (u, v) pairs.

    Duplicate and reversed pairs collapse to a single edge; self-loops, and
    items that are not two labels, are rejected.  Isolated endpoints never
    arise here (every listed vertex is an endpoint), but vertices of degree
    zero are representable and survive `remove_vertices`.
    """
    pairs = list(pairs)
    sizes = np.fromiter(map(len, pairs), dtype=np.int64, count=len(pairs))
    if np.any(sizes != 2):
        raise NetchronoError(f"edge {pairs[np.argmax(sizes != 2)]!r} is not a pair of labels")
    ends = np.fromiter(chain.from_iterable(pairs), dtype=np.int64).reshape(-1, 2)
    loops = ends[:, 0] == ends[:, 1]
    if loops.any():
        raise SelfLoopError(int(ends[np.argmax(loops), 0]))
    labels, at = np.unique(ends.ravel(), return_inverse=True)
    u, v = at[0::2], at[1::2]
    return UndirectedGraph._from_csr(
        labels, *_csr_layout(len(labels), np.concatenate([u, v]), np.concatenate([v, u])))


def remove_vertices(g: UndirectedGraph, s: Iterable[int]) -> UndirectedGraph:
    """Induced subgraph on g.vertices minus s; g itself is unmodified."""
    # no pipeline caller: kept while perfbench/spans.py traces it by name (ROADMAP item 1)
    labels, indptr, indices = g.csr_arrays()
    keep = np.ones(len(labels), dtype=bool)
    for v in {int(v) for v in s}:
        i = _position(labels, v)
        if i is None:
            raise UnknownVertexError(v)
        keep[i] = False
    rows = np.repeat(np.arange(len(labels)), np.diff(indptr))
    return UndirectedGraph._from_csr(labels[keep], *_induced_csr(indptr, indices, rows, keep))


def _level_counts(codes: np.ndarray, n_levels: int) -> np.ndarray:
    """Edges per weight level (entry k counts code k + 1), counted 256 rows
    at a time: `np.bincount` widens its input to intp, 8 bytes per entry."""
    counts = np.zeros(n_levels + 1, dtype=np.intp)
    for lo in range(0, len(codes), 256):
        counts += np.bincount(codes[lo:lo + 256].ravel(), minlength=n_levels + 1)
    return counts[1:]


def _source_rounds(edge: np.ndarray,
                   rows: np.ndarray | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """Kahn's source peel of an n x n bool edge matrix: the positions of
    each round's sources, and the mask of positions never peeled (the
    vertices on a cycle, self-loops included, and those downstream of one;
    empty iff the digraph is acyclic).  A peeled vertex keeps in-degree 0,
    so only the columns a round lowers can hold the next round's sources.

    With `rows` (ascending positions), `edge` holds only those rows, all n
    columns, and the peel is that of the principal submatrix over `rows`,
    read by position in `rows`: no column is gathered.  In-degrees are
    column sums of the bytes, which needs no cast of the bools to intp."""
    def indegree(part: np.ndarray) -> np.ndarray:
        counts = part.view(np.uint8).sum(axis=0, dtype=np.int32)
        return counts if rows is None else counts[rows]

    indeg = indegree(edge)
    rounds = []
    sources = np.flatnonzero(indeg == 0)
    while len(sources):
        rounds.append(sources)
        drop = indegree(edge[sources])
        indeg -= drop
        sources = np.flatnonzero((indeg == 0) & (drop != 0))
    return rounds, indeg != 0


def _unpeeled(dg: WeightedDigraph) -> np.ndarray:
    """Mask of the positions of dg the source peel never reaches; cached, so
    a caller asking after `is_acyclic` said no does not peel twice."""
    if dg._left is None:
        dg._left = _source_rounds(dg._codes != 0)[1]
        dg._left.setflags(write=False)
    return dg._left


def is_acyclic(dg: WeightedDigraph) -> bool:
    """True iff the digraph has no directed cycle (self-loops included):
    iff the source peel reaches every vertex."""
    return not _unpeeled(dg).any()
