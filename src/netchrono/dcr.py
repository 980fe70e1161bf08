"""Differential core ranking.

Peel the graph level by level (each level removes every vertex of current
minimum degree) and charge each vertex the absolute change of its base
centrality between consecutive levels; removed vertices are charged their
full last value.  The accumulated total is the vertex's DCM score.

The peel reads only degrees, which a removal lowers by one `bincount`
over the removed CSR rows, so every level is listed before any is scored.
Degree scores each level's degrees.  The other two read the union of the
levels' induced CSR structures as diagonal blocks: betweenness scores one
block at a time, eigenvector all of them in one block power iteration.
The DCM comes back as a `ScoreTable` of label and value arrays, which
`rank_descending` sorts as they are.
"""
from __future__ import annotations

import numpy as np

from .centrality import (CentralityKind, ScoreTable, _require_kind, betweenness_scores,
                         degree_scores, eigenvector_scores)
from .errors import TooSmallError, _require_seed
from .graph import UndirectedGraph

Level = tuple[np.ndarray, np.ndarray]  # alive CSR rows, ascending; their degrees in the level


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


def _union_csr(indptr: np.ndarray, indices: np.ndarray,
               levels: list[Level]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The levels' induced CSR structures as one block-diagonal CSR, and the block sizes.
    An entry is in each level below the lesser depth (levels holding it) of its ends;
    numbering (level, vertex) pairs in that order keeps each row's neighbours sorted."""
    n = len(indptr) - 1
    depth = np.bincount(np.concatenate([live for live, _ in levels]), minlength=n)
    level = np.arange(len(levels))[:, None]
    union_row = np.cumsum(depth > level).reshape(len(levels), n) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    k, at = np.nonzero(np.minimum(depth[rows], depth[indices]) > level)
    counts = np.bincount(union_row[k, rows[at]], minlength=union_row[-1, -1] + 1)
    sizes = np.array([len(live) for live, _ in levels])
    return np.concatenate([[0], np.cumsum(counts)]), union_row[k, indices[at]], sizes


def _level_scores(kind: CentralityKind, indptr: np.ndarray, indices: np.ndarray,
                  levels: list[Level]) -> list[np.ndarray]:
    """Base centrality of each peeling level, in row order, on a size-independent scale.

    Peeled levels shrink, so the summands |change| must be comparable
    across levels.  Degree (divided by |V|-1) and eigenvector (unit norm)
    are already size-independent; raw betweenness grows with the squared
    level size, so it is rescaled by the unordered pair count, which
    leaves every within-level ranking untouched.
    """
    if kind is CentralityKind.DEGREE:
        return [degree_scores(degrees) for _, degrees in levels]
    union_indptr, union_indices, sizes = _union_csr(indptr, indices, levels)
    ends = np.cumsum(sizes)
    if kind is CentralityKind.EIGENVECTOR:
        return np.split(eigenvector_scores(union_indptr, union_indices, sizes), ends[:-1])
    out = []
    for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
        start, stop = union_indptr[lo], union_indptr[hi]
        scores = betweenness_scores(union_indptr[lo:hi + 1] - start, union_indices[start:stop] - lo)
        out.append(scores * (2.0 / ((hi - lo - 1) * (hi - lo - 2))) if hi - lo >= 3 else scores)
    return out


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
    dcm = _dcm(len(labels), levels, _level_scores(kind, indptr, indices, levels))
    return ScoreTable(labels, dcm)


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
