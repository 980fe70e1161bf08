"""Core graph types and structural algorithms.

Three value types underpin the whole pipeline: `UndirectedGraph` (the
reference network and its peeled remnants), `WeightedDigraph` (the
pairwise arrival-probability digraph and its acyclic transform) and
`Chronology` (a recorded or predicted vertex arrival order).

All types are immutable after construction (read-only arrays, no caches);
structural operations return new objects, safe to share across processes.

The one cycle test is Kahn's source peel (`_source_rounds`) of a square
bool matrix, read by `is_acyclic`, `bin_by_indegree` and the probes of
`break_cycles`, which peel principal submatrices of the counts.  The one
label rule, an integer in the int64 range, is `_int64_labels`.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (NetchronoError, NotAPartitionError, SelfLoopError, UnknownVertexError,
                     _is_integer_type)


class UndirectedGraph:
    """Label-preserving simple undirected graph, stored as CSR arrays.

    Vertex labels are arbitrary integers in the int64 range and are never
    re-indexed by structural operations; per-vertex scores accumulated
    across peeled subgraphs rely on that.  The stored form is the one
    `csr_arrays` returns, so equal graphs have equal arrays.  It has one
    builder, `_from_csr`; build one from pairs with `from_edge_list`.
    """

    __slots__ = ("_labels", "_indptr", "_indices")

    @classmethod
    def _from_csr(cls, labels: np.ndarray, indptr: np.ndarray,
                  indices: np.ndarray) -> "UndirectedGraph":
        # the one builder: int64 arrays of a symmetric CSR structure with no
        # self-loops, in the layout `csr_arrays` returns; they become read-only
        g = cls()
        g._labels, g._indptr, g._indices = labels, indptr, indices
        for a in (labels, indptr, indices):
            a.setflags(write=False)
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


class Chronology:
    """An ordered sequence of distinct int64 vertex labels (an arrival order)."""

    __slots__ = ("_order",)

    def __init__(self, order: Iterable[int]):
        if isinstance(order, range):
            # distinct integers by construction, its extremes at its ends
            _int64_labels([order[0], order[-1]] if order else [])
            labels = tuple(order)
        else:
            labels = tuple(_int64_labels(list(order)).tolist())  # callers pass generators
            if len(set(labels)) != len(labels):
                raise NotAPartitionError("chronology contains duplicate labels")
        self._order = labels

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
    """Pairwise arrival-probability digraph, stored as majority counts out of alpha.

    Only `pairwise_digraph` and `break_cycles` build one, through
    `_from_counts`, with exactly one of (u, v) and (v, u) per pair, so it
    is stored dense: `counts` is an n x n matrix over the sorted labels in
    which 0 means no edge and m an edge of weight m / alpha, the share of
    the alpha prediction lists agreeing with it: ceil(alpha/2) <= m <= alpha.
    It admits self-loops and opposite pairs, so cycle detection can be
    exercised on arbitrary digraphs.  Digraphs are equal iff their stored
    forms are (equal weights under another alpha differ); edge arrays
    in (source, target) order are derived on demand, see `arrays`.
    """

    __slots__ = ("_labels", "_counts", "_alpha")

    @classmethod
    def _from_counts(cls, labels: np.ndarray, counts: np.ndarray,
                     alpha: int) -> "WeightedDigraph":
        # the one builder, from the stored form `matrix` returns: labels sorted,
        # every nonzero count in ceil(alpha/2)..alpha; the arrays become read-only
        dg = cls()
        dg._labels, dg._counts, dg._alpha = labels, counts, int(alpha)
        for a in (labels, counts):
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
        return int(np.count_nonzero(self._counts))

    def matrix(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(labels, counts, alpha), the stored form; both arrays read-only."""
        return self._labels, self._counts, self._alpha

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(labels, src, dst, weights m / alpha) in canonical (src, dst) order;
        src/dst are int64 positions into labels.  Derived anew on every call."""
        flat = np.flatnonzero(self._counts != 0)
        src, dst = np.divmod(flat, max(len(self._labels), 1))
        return self._labels, src, dst, self._counts.ravel()[flat] / self._alpha

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return (self._alpha == other._alpha and np.array_equal(self._labels, other._labels)
                and np.array_equal(self._counts, other._counts))

    def __repr__(self) -> str:
        return f"WeightedDigraph(|V|={self.vertex_count}, |E|={self.edge_count})"


def _int64_labels(labels: Sequence) -> np.ndarray:
    """The labels as a new int64 array; NetchronoError naming the first label that
    is not an integer (a cast would read 1.9 and True as 1) or lies outside the
    int64 range.  The types are collected in one C-level pass."""
    if not all(map(_is_integer_type, set(map(type, labels)))):
        bad = next(x for x in labels if not _is_integer_type(type(x)))
        raise NetchronoError(f"label {bad!r} is not an integer")
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError:
        bad = next(x for x in labels if not -2**63 <= x < 2**63)
        raise NetchronoError(f"label {bad} is outside the int64 range") from None


def from_edge_list(pairs: Iterable[tuple[int, int]]) -> UndirectedGraph:
    """Build a simple undirected graph from (u, v) pairs.

    Duplicate and reversed pairs collapse to a single edge; self-loops,
    items that are not two labels, and labels that are not integers in the
    int64 range are rejected.  Isolated endpoints never arise here (every
    listed vertex is an endpoint), but vertices of degree zero are
    representable and survive `remove_vertices`.
    """
    pairs = list(pairs)
    sizes = np.fromiter(map(len, pairs), dtype=np.int64, count=len(pairs))
    if np.any(sizes != 2):
        raise NetchronoError(f"edge {pairs[np.argmax(sizes != 2)]!r} is not a pair of labels")
    ends = _int64_labels(list(chain.from_iterable(pairs))).reshape(-1, 2)
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
    drop, known = list(s), set(labels.tolist())
    # before the label rule: an integer beyond int64 is no vertex of g, not an unstorable label
    stranger = next((v for v in drop if _is_integer_type(type(v)) and v not in known), None)
    if stranger is not None:
        raise UnknownVertexError(stranger)
    keep = ~np.isin(labels, _int64_labels(drop))
    rows = np.repeat(np.arange(len(labels)), np.diff(indptr))
    entries = keep[rows] & keep[indices]
    position = np.cumsum(keep) - 1  # a kept row's row in the subgraph
    return UndirectedGraph._from_csr(labels[keep], *_csr_layout(
        np.count_nonzero(keep), position[rows[entries]], position[indices[entries]]))


def _level_counts(counts: np.ndarray, alpha: int) -> np.ndarray:
    """Edges per count (entry m - 1 counts the edges of count m), counted 256
    rows at a time: `np.bincount` widens its input to intp, 8 bytes per entry."""
    tally = np.zeros(alpha + 1, dtype=np.intp)
    for lo in range(0, len(counts), 256):
        tally += np.bincount(counts[lo:lo + 256].ravel(), minlength=alpha + 1)
    return tally[1:]


def _source_rounds(edge: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Kahn's source peel of a square bool edge matrix: the positions of
    each round's sources, and the mask of positions never peeled (the
    vertices on a cycle, self-loops included, and those downstream of one;
    empty iff the digraph is acyclic).  A peeled vertex keeps in-degree 0,
    so only the columns a round lowers can hold the next round's sources.
    In-degrees are column sums of the bytes, which needs no cast of the
    bools to intp."""
    edge = edge.view(np.uint8)
    indeg = edge.sum(axis=0, dtype=np.int32)
    rounds = []
    sources = np.flatnonzero(indeg == 0)
    while len(sources):
        rounds.append(sources)
        drop = edge[sources].sum(axis=0, dtype=np.int32)
        indeg -= drop
        sources = np.flatnonzero((indeg == 0) & (drop != 0))
    return rounds, indeg != 0


def is_acyclic(dg: WeightedDigraph) -> bool:
    """True iff the digraph has no directed cycle (self-loops included):
    iff the source peel reaches every vertex."""
    return not _source_rounds(dg._counts != 0)[1].any()
