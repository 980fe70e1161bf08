"""Differential core ranking.

Peel the graph level by level (each level removes every vertex of current
minimum degree) and charge each vertex the absolute change of its base
centrality between consecutive levels; removed vertices are charged their
full last value.  The accumulated total is the vertex's DCM score.

Peeling runs on the graph's CSR arrays with an alive mask: a level's
removal lowers the survivors' degrees by one `bincount` over the removed
vertices' neighbour lists, and the measures that need a level's edges
read them from its induced CSR structure.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .centrality import (
    CentralityKind,
    ScoreTable,
    betweenness_scores,
    degree_scores,
    eigenvector_scores,
)
from .graph import UndirectedGraph, _induced_csr

# (alive mask, degrees within the alive subgraph) -> one score per alive
# vertex, in position order
LevelScores = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _level_scores(kind: CentralityKind, indptr: np.ndarray, indices: np.ndarray) -> LevelScores:
    """Base centrality of one peeling level, on a size-independent scale.

    Peeled levels shrink, so the summands |change| must be comparable
    across levels.  Degree (divided by |V|-1) and eigenvector (unit norm)
    are already size-independent; raw betweenness grows with the squared
    level size, so it is rescaled by the unordered pair count, which
    leaves every within-level ranking untouched.
    """
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))

    def score(alive: np.ndarray, degrees: np.ndarray) -> np.ndarray:
        if kind is CentralityKind.DEGREE:
            return degree_scores(degrees[alive])
        level = _induced_csr(indptr, indices, rows, alive)
        if kind is CentralityKind.EIGENVECTOR:
            return eigenvector_scores(*level)
        scores = betweenness_scores(*level)
        n = len(scores)
        return scores * (2.0 / ((n - 1) * (n - 2))) if n >= 3 else scores

    return score


def _peel(indptr: np.ndarray, indices: np.ndarray, level_scores: LevelScores) -> np.ndarray:
    """DCM per CSR row.  Each peeling level is scored exactly once: a
    level's scores are reused as the previous-level scores of the next."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    degrees = np.diff(indptr)
    alive = np.ones(n, dtype=bool)
    dcm = np.zeros(n)
    current = level_scores(alive, degrees)
    while True:
        live = np.flatnonzero(alive)
        level_degrees = degrees[live]
        peeled = level_degrees == level_degrees.min()
        removed = np.zeros(n, dtype=bool)
        removed[live[peeled]] = True
        alive &= ~removed
        dcm[removed] += np.abs(current[peeled])
        if not alive.any():
            return dcm
        degrees = degrees - np.bincount(indices[removed[rows]], minlength=n)
        nxt = level_scores(alive, degrees)
        dcm[live[~peeled]] += np.abs(nxt - current[~peeled])
        current = nxt


def differential_core_ranking(g: UndirectedGraph, kind: CentralityKind) -> ScoreTable:
    """DCM score per vertex of g, keyed by label."""
    if g.vertex_count == 0:
        raise ValueError("differential core ranking requires a nonempty graph")
    labels, indptr, indices = g.csr_arrays()
    dcm = _peel(indptr, indices, _level_scores(kind, indptr, indices))
    # a ScoreTable, not arrays: perfbench/spans.py reads `.scores` (ROADMAP item 1)
    return ScoreTable.from_rows(labels, dcm)


def rank_descending(t: ScoreTable) -> list[int]:
    """Vertices by score descending; equal scores break by ascending label."""
    return sorted(t.scores, key=lambda v: (-t.scores[v], v))
