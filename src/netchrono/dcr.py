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

from numbers import Integral
from typing import Callable

import numpy as np

from .centrality import (
    CentralityKind,
    ScoreTable,
    betweenness_scores,
    degree_scores,
    eigenvector_scores,
)
from .errors import InvalidConfigError
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
    if kind is CentralityKind.DEGREE:
        return lambda alive, degrees: degree_scores(degrees[alive])
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))

    def score(alive: np.ndarray, degrees: np.ndarray) -> np.ndarray:
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
    degrees = np.diff(indptr)
    alive = np.ones(n, dtype=bool)
    live = np.arange(n)  # the alive positions, ascending
    dcm = np.zeros(n)
    current = level_scores(alive, degrees)
    while True:
        level_degrees = degrees[live]
        peeled = level_degrees == level_degrees.min()
        gone = live[peeled]
        dcm[gone] += np.abs(current[peeled])
        if gone.size == live.size:
            return dcm
        alive[gone] = False
        live = live[~peeled]
        # the CSR positions of the removed rows only: each row's start, repeated, plus an offset
        starts = indptr[gone]
        counts = indptr[gone + 1] - starts
        ends = np.cumsum(counts)
        at = np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])
        degrees = degrees - np.bincount(indices[at], minlength=n)
        nxt = level_scores(alive, degrees)
        dcm[live] += np.abs(nxt - current[~peeled])
        current = nxt


def differential_core_ranking(g: UndirectedGraph, kind: CentralityKind) -> ScoreTable:
    """DCM score per vertex of g, keyed by label."""
    if g.vertex_count == 0:
        raise ValueError("differential core ranking requires a nonempty graph")
    labels, indptr, indices = g.csr_arrays()
    dcm = _peel(indptr, indices, _level_scores(kind, indptr, indices))
    # a ScoreTable, not arrays: perfbench/spans.py reads `.scores` (ROADMAP item 1)
    return ScoreTable.from_rows(labels, dcm)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays: cheap, well-dispersed 64-bit hash."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def rank_descending(table: ScoreTable, seed: int | None = None) -> np.ndarray:
    """Labels by score descending, as int64.  Equal scores break by ascending
    label, or, given a seed, by the hash of label ^ _mix64(seed): the pipeline
    salts each network's ties apart, the baselines pass no seed.  A seed
    that is not an unsigned 64-bit integer is an InvalidConfigError."""
    labels = np.fromiter(table.scores, dtype=np.int64, count=len(table.scores))
    scores = np.fromiter(table.scores.values(), dtype=np.float64, count=len(table.scores))
    if seed is None:
        return labels[np.lexsort((labels, -scores))]
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
        raise InvalidConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    salt = _mix64(np.array([seed], dtype=np.uint64))
    # the hash reads a label's 64-bit two's complement, as Python's masking does
    return labels[np.lexsort((_mix64(labels.view(np.uint64) ^ salt), -scores))]
