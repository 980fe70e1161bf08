"""Differential core ranking.

Peel the graph level by level (each level removes every vertex of current
minimum degree) and charge each vertex the absolute change of its base
centrality between consecutive levels; removed vertices are charged their
full last value.  The accumulated total is the vertex's DCM score.

This module peels and charges; `centrality._level_scores` scores the
levels.  The peel reads only degrees, which a removal lowers by one
`bincount` over the removed CSR rows, so every level is listed before any
is scored; betweenness is then rescaled per level.  The DCM comes back as
a `ScoreTable` of label and value arrays, which `rank_descending` sorts
as they are.
"""
from __future__ import annotations

import numpy as np

from .centrality import CentralityKind, Level, ScoreTable, _level_scores, _require_kind
from .errors import TooSmallError, _require_seed
from .graph import UndirectedGraph


def _levels(indptr: np.ndarray, indices: np.ndarray) -> list[Level]:
    """Every peeling level of a CSR graph, the whole graph first."""
    n = len(indptr) - 1
    degrees = np.diff(indptr)
    live = np.arange(n)
    levels = []
    while True:
        level_degrees = degrees[live]
        levels.append((live, level_degrees))
        peeled = level_degrees == level_degrees.min()
        if peeled.all():
            return levels
        gone = live[peeled]
        live = live[~peeled]
        # the CSR positions of the removed rows only: each row's start, repeated, plus an offset
        starts = indptr[gone]
        counts = indptr[gone + 1] - starts
        ends = np.cumsum(counts)
        at = np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])
        degrees = degrees - np.bincount(indices[at], minlength=n)


def _dcm(n: int, levels: list[Level], scores: list[np.ndarray]) -> np.ndarray:
    """DCM per CSR row, adding up each vertex's charges in level order."""
    dcm = np.zeros(n)
    for k, (live, degrees) in enumerate(levels):
        peeled = degrees == degrees.min()
        dcm[live[peeled]] += np.abs(scores[k][peeled])
        if k + 1 < len(levels):
            dcm[levels[k + 1][0]] += np.abs(scores[k + 1] - scores[k][~peeled])
    return dcm


def differential_core_ranking(g: UndirectedGraph, kind: CentralityKind) -> ScoreTable:
    """DCM score per vertex of g, in the row order of its labels."""
    _require_kind(kind)
    if g.vertex_count == 0:
        raise TooSmallError("differential core ranking requires a nonempty graph")
    labels, indptr, indices = g.csr_arrays()
    levels = _levels(indptr, indices)
    scores = _level_scores(kind, indptr, indices, levels)
    if kind is CentralityKind.BETWEENNESS:
        # peeled levels shrink, and raw betweenness grows with the squared level size:
        # dividing by the unordered pair count makes the charges comparable across
        # levels and leaves each within-level ranking as it is; degree (divided by
        # |V| - 1) and eigenvector (unit norm) are on that scale already
        scores = [s * (2.0 / ((len(s) - 1) * (len(s) - 2))) if len(s) >= 3 else s
                  for s in scores]
    return ScoreTable(labels, _dcm(len(labels), levels, scores))


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
    labels, values = table.labels, table.values
    if seed is None:
        return labels[np.lexsort((labels, -values))]
    _require_seed(seed)
    salt = _mix64(np.array([seed], dtype=np.uint64))
    # the hash reads a label's 64-bit two's complement, as Python's masking does
    return labels[np.lexsort((_mix64(labels.view(np.uint64) ^ salt), -values))]
