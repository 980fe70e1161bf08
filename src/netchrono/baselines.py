"""Centrality-only arrival-order baselines: degree bins and equal-size bins."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centrality import CentralityKind, compute
from .dcr import rank_descending
from .errors import InvalidDeltaError, NotAPartitionError, TooSmallError, _require_integer
from .graph import UndirectedGraph


@dataclass(frozen=True)
class BinOrdering:
    """Ordered disjoint nonempty vertex sets whose union is the vertex set.

    Earlier bins are predicted to hold earlier arrivals; delta is the bin
    count.
    """

    bins: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not all(self.bins):
            raise NotAPartitionError("bins must be nonempty")
        if sum(map(len, self.bins)) != len(self.covered()):
            raise NotAPartitionError("bins must be pairwise disjoint")

    @property
    def delta(self) -> int:
        return len(self.bins)

    def covered(self) -> frozenset[int]:
        return frozenset().union(*self.bins)


def degree_bins(g: UndirectedGraph) -> BinOrdering:
    """One bin per distinct degree value, highest degree first."""
    if g.vertex_count == 0:
        raise TooSmallError("degree binning requires a nonempty graph")
    labels, indptr, _ = g.csr_arrays()
    degrees = np.diff(indptr)
    return BinOrdering(tuple(frozenset(labels[degrees == d].tolist())
                             for d in np.flatnonzero(np.bincount(degrees))[::-1]))


def centrality_bins(g: UndirectedGraph, kind: CentralityKind, delta: int) -> BinOrdering:
    """delta near-equal bins of the centrality-descending vertex order.

    When |V| = q*delta + r the first r bins get q+1 vertices, so earlier
    (higher-confidence) bins are never the smaller ones.
    """
    _require_integer(delta, "delta", 1, g.vertex_count, InvalidDeltaError)
    order = rank_descending(compute(g, kind))
    return BinOrdering(tuple(frozenset(part.tolist()) for part in np.array_split(order, delta)))

