"""Degree, betweenness and eigenvector centrality.

Each measure is an array kernel on a CSR structure (`degree_scores`,
`betweenness_scores`, `eigenvector_scores`), scores in row order; the
`ScoreTable` functions run the kernel on a graph's `csr_arrays` and key
the scores by label.  Differential core ranking calls the kernels on
each peeling level directly.

Betweenness uses the Brandes dependency-accumulation scheme, vectorized
over blocks of source vertices: one BFS level advances all sources in a
block at once through one sparse-by-dense matrix product.  This is the
hot loop of the whole pipeline (it runs once per peeling level per
network), so it trades O(block * |V|) memory for C-speed inner loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import NoConvergenceError
from .graph import UndirectedGraph

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 10000
_SOURCE_BLOCK = 256


class CentralityKind(Enum):
    DEGREE = "degree"
    BETWEENNESS = "betweenness"
    EIGENVECTOR = "eigenvector"


@dataclass(frozen=True)
class ScoreTable:
    """Per-vertex real scores produced by one centrality measure.

    measure_tag is one of "degree" | "betweenness" | "eigenvector" | "dcm";
    dominant_eigenvalue is populated only by the eigenvector measure.
    """

    scores: dict[int, float]
    measure_tag: str
    dominant_eigenvalue: float | None = None


def _table(labels: np.ndarray, scores: np.ndarray, tag: str, **extra) -> ScoreTable:
    return ScoreTable(dict(zip(labels.tolist(), scores.tolist())), tag, **extra)


def degree_scores(degrees: np.ndarray) -> np.ndarray:
    """deg(v) / (|V| - 1) from the degree array; all zeros when |V| <= 1."""
    n = len(degrees)
    if n <= 1:
        return np.zeros(n)
    return degrees / float(n - 1)


def degree_centrality(g: UndirectedGraph) -> ScoreTable:
    """deg(v) / (|V| - 1); defined as 0 on a single-vertex graph."""
    labels, indptr, _ = g.csr_arrays()
    return _table(labels, degree_scores(np.diff(indptr)), "degree")


def betweenness_scores(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Unnormalized betweenness per CSR row (see `betweenness_centrality`)."""
    n = len(indptr) - 1
    if len(indices) == 0:
        return np.zeros(n)
    # ordered-pair Brandes counts each unordered pair twice
    return _brandes_ordered_sums(indptr, indices, n) / 2.0


def betweenness_centrality(g: UndirectedGraph) -> ScoreTable:
    """Unnormalized betweenness over unordered vertex pairs.

    score(v) = sum over pairs {s, t} (s != v != t) of the fraction of
    shortest s-t paths through v; disconnected pairs contribute 0.
    """
    labels, indptr, indices = g.csr_arrays()
    return _table(labels, betweenness_scores(indptr, indices), "betweenness")


def _brandes_ordered_sums(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Dependency sums over ordered source-target pairs, all sources.

    Per block of b sources, path counts and dependencies live in (n x b)
    arrays, one column per source, so `adj @ X` is a plain CSR product.
    Each BFS level is kept as flat indices into those arrays; only the
    frontier is loaded into the product buffer and only the entries of
    the next (or previous) level are written back.  Path counts are
    integers, each dependency entry is written once, and the column sums
    add the sources of a block in source order: scores do not depend on
    how the levels are stored.
    """
    adj = sp.csr_array(
        (np.ones(len(indices), dtype=np.float64), indices.astype(np.int64), indptr),
        shape=(n, n),
    )
    total = np.zeros(n, dtype=np.float64)
    for lo in range(0, n, _SOURCE_BLOCK):
        b = min(_SOURCE_BLOCK, n - lo)
        sigma = np.zeros(n * b, dtype=np.float64)
        buf = np.zeros((n, b), dtype=np.float64)
        flat_buf = buf.reshape(-1)
        start = np.arange(lo, lo + b) * b + np.arange(b)
        sigma[start] = 1.0
        levels = [start]
        while True:
            frontier = levels[-1]
            flat_buf[frontier] = sigma[frontier]
            paths = (adj @ buf).reshape(-1)
            flat_buf[frontier] = 0.0
            reached = np.flatnonzero(paths)
            reached = reached[sigma[reached] == 0.0]
            if reached.size == 0:
                break
            sigma[reached] = paths[reached]
            levels.append(reached)

        # the sources (level 0) get no dependency, so the walk back stops at level 1
        delta = np.zeros(n * b, dtype=np.float64)
        for k in range(len(levels) - 1, 1, -1):
            at, prev = levels[k], levels[k - 1]
            flat_buf[at] = (1.0 + delta[at]) / sigma[at]
            contrib = (adj @ buf).reshape(-1)
            flat_buf[at] = 0.0
            delta[prev] = contrib[prev] * sigma[prev]
        # (b x n) C order, so the sum adds the block's sources one after another
        total += delta.reshape(n, b).T.copy().sum(axis=0)
    return total


def eigenvector_scores(
    indptr: np.ndarray,
    indices: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> tuple[np.ndarray, float]:
    """(scores per CSR row, dominant eigenvalue); see `eigenvector_centrality`."""
    n = len(indptr) - 1
    if len(indices) == 0:
        return np.zeros(n), 0.0
    adj = sp.csr_array(
        (np.ones(len(indices), dtype=np.float64), indices.astype(np.int64), indptr),
        shape=(n, n),
    )

    x = np.full(n, 1.0 / np.sqrt(n))
    diff = np.inf
    for _ in range(max_iterations):
        z = adj @ x + x
        x_next = z / np.linalg.norm(z)
        diff = float(np.max(np.abs(x_next - x)))
        x = x_next
        if diff <= tolerance:
            ax = adj @ x
            lam = float(x @ ax)
            if np.max(np.abs(ax - lam * x)) <= 10.0 * tolerance:
                break
    else:
        if diff > tolerance:
            raise NoConvergenceError(
                f"power iteration did not converge within {max_iterations} iterations "
                f"(last step moved {diff:.3e} > tolerance {tolerance:.3e})"
            )
        ax = adj @ x
        lam = float(x @ ax)
    return x, lam


def eigenvector_centrality(
    g: UndirectedGraph,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ScoreTable:
    """Entrywise non-negative dominant eigenvector of the adjacency matrix.

    Power iteration from the uniform positive vector, applied to A + I so
    that bipartite graphs (paired +/- eigenvalues) still converge; the
    shift leaves eigenvectors untouched.  Scores are normalized to unit
    Euclidean length and the dominant eigenvalue is the Rayleigh quotient
    of A at the returned vector.  Graphs with no edges score all zeros
    with eigenvalue 0.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    labels, indptr, indices = g.csr_arrays()
    x, lam = eigenvector_scores(indptr, indices, tolerance, max_iterations)
    return _table(labels, x, "eigenvector", dominant_eigenvalue=lam)


def compute(g: UndirectedGraph, kind: CentralityKind) -> ScoreTable:
    """Dispatch to the matching measure with module-default settings."""
    if kind is CentralityKind.DEGREE:
        return degree_centrality(g)
    if kind is CentralityKind.BETWEENNESS:
        return betweenness_centrality(g)
    if kind is CentralityKind.EIGENVECTOR:
        return eigenvector_centrality(g)
    raise ValueError(f"unknown centrality kind: {kind!r}")
