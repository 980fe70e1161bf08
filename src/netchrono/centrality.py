"""Degree, betweenness and eigenvector centrality.

Each measure is an array kernel on a CSR structure (`degree_scores`,
`betweenness_scores`, `eigenvector_scores`), scores in row order.
`compute` runs one of them on a graph's `csr_arrays` and keys the scores
by label; differential core ranking calls the kernels on each peeling
level directly.

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

from .errors import NoConvergenceError
from .graph import UndirectedGraph

# power-iteration stopping rule of `eigenvector_scores`, read at each call
TOLERANCE = 1e-10
MAX_ITERATIONS = 10000
# one (n x 64) float64 array is 512 KB at n = 1000, so a block's working set
# fits a 2 MB L2 cache.  The column sums add the sources one after another
# within each 256-source group, then group by group; that fixes the summation
# order of the scores, so a retuned block must divide the group and keep it
_SOURCE_BLOCK = 64
_SUM_GROUP = 256


class CentralityKind(Enum):
    DEGREE = "degree"
    BETWEENNESS = "betweenness"
    EIGENVECTOR = "eigenvector"


@dataclass(frozen=True)
class ScoreTable:
    """Per-vertex real scores, keyed by vertex label."""

    scores: dict[int, float]

    @classmethod
    def from_rows(cls, labels: np.ndarray, scores: np.ndarray) -> ScoreTable:
        """The table of scores[i] for labels[i]."""
        return cls(dict(zip(labels.tolist(), scores.tolist())))


def degree_scores(degrees: np.ndarray) -> np.ndarray:
    """deg(v) / (|V| - 1) from the degree array; all zeros when |V| <= 1."""
    n = len(degrees)
    if n <= 1:
        return np.zeros(n)
    return degrees / float(n - 1)


def betweenness_scores(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Unnormalized betweenness per CSR row, over unordered vertex pairs.

    score(v) = sum over pairs {s, t} (s != v != t) of the fraction of
    shortest s-t paths through v; disconnected pairs contribute 0.
    """
    n = len(indptr) - 1
    if len(indices) == 0:
        return np.zeros(n)
    # ordered-pair Brandes counts each unordered pair twice
    return _brandes_ordered_sums(indptr, indices, n) / 2.0


def _brandes_ordered_sums(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Dependency sums over ordered source-target pairs, all sources.

    Sources are taken in blocks of b = _SOURCE_BLOCK.  The product buffer
    and the dependencies of a block are (n x b) arrays, one column per
    source, so `adj @ X` is a plain CSR product.  Each BFS level is kept
    as flat indices into those arrays, with the path counts of its
    entries beside it in level order; only the frontier is loaded into
    the product buffer and only the entries of the next (or previous)
    level are written back.  The next level is found on two n*b bool
    arrays: the product's nonzero entries, masked by the entries not yet
    seen, give its flat indices in ascending order, as a scan of the
    float product would.  The forward sweep stops once every (vertex,
    source) entry is seen, so a connected block skips the last product,
    which could only find nothing; an empty level ends it otherwise.
    The walk back keeps the dependencies it just wrote for the next
    level's (1 + delta) / sigma, so it gathers nothing from `delta`,
    which only the column sums read.

    Path counts are integers and each dependency entry is written once.
    The column sums add the sources one after another within each group
    of _SUM_GROUP sources: a block that continues a group adds the
    group's open sum into its first source's row before summing.  Each
    closed group is then added to the total.  So scores depend neither on
    the block size nor on how the levels are stored or found.
    """
    # imported here, not at module level: no other stage needs scipy, half of a cold import
    import scipy.sparse as sp

    adj = sp.csr_array(
        (np.ones(len(indices), dtype=np.float64), indices.astype(np.int64), indptr),
        shape=(n, n),
    )
    total = np.zeros(n, dtype=np.float64)
    for lo in range(0, n, _SOURCE_BLOCK):
        b = min(_SOURCE_BLOCK, n - lo)
        buf = np.zeros((n, b), dtype=np.float64)
        flat_buf = buf.reshape(-1)
        start = np.arange(lo, lo + b) * b + np.arange(b)
        unseen = np.ones(n * b, dtype=bool)
        unseen[start] = False
        mask = np.empty(n * b, dtype=bool)
        to_reach = n * b - b
        levels, sigmas = [start], [np.ones(b, dtype=np.float64)]
        while to_reach:
            frontier = levels[-1]
            flat_buf[frontier] = sigmas[-1]
            paths = (adj @ buf).reshape(-1)
            flat_buf[frontier] = 0.0
            np.not_equal(paths, 0.0, out=mask)
            mask &= unseen
            reached = np.flatnonzero(mask)
            if reached.size == 0:  # some vertex is unreachable from some source
                break
            unseen[reached] = False
            levels.append(reached)
            sigmas.append(paths[reached])
            to_reach -= reached.size

        # the sources (level 0) get no dependency, so the walk back stops at level 1
        delta = np.zeros(n * b, dtype=np.float64)
        dep = 0.0  # the deepest level depends on nothing beyond it
        for k in range(len(levels) - 1, 1, -1):
            at, prev = levels[k], levels[k - 1]
            flat_buf[at] = (1.0 + dep) / sigmas[k]
            contrib = (adj @ buf).reshape(-1)
            flat_buf[at] = 0.0
            dep = contrib[prev] * sigmas[k - 1]
            delta[prev] = dep
        # (b x n) C order, so the sum adds the sources one after another
        rows = delta.reshape(n, b).T.copy()
        if lo % _SUM_GROUP:  # the block continues the open group
            rows[0] += group
        group = rows.sum(axis=0)
        if (lo + b) % _SUM_GROUP == 0 or lo + b == n:
            total += group
    return total


def eigenvector_scores(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Entrywise non-negative dominant eigenvector of A per CSR row.

    Power iteration from the uniform positive vector, applied to A + I so
    that bipartite graphs (paired +/- eigenvalues) still converge; the
    shift leaves eigenvectors untouched.  The result has unit Euclidean
    length.  Iteration stops once a step moves no entry by more than
    TOLERANCE and the residual |A x - lam x|, lam the Rayleigh quotient
    of A at x, is within 10 * TOLERANCE; NoConvergenceError if no step
    gets within TOLERANCE in MAX_ITERATIONS.  No edges: all zeros.

    Each product A x is one weighted `bincount` over the row id of every
    CSR entry.  It adds a row's neighbours in index order, starting from
    0.0, as scipy's CSR product does, and the norm is `np.linalg.norm`'s
    own sqrt(z . z); so every iterate, and the step that stops, is the
    scipy form's bit for bit, without its per-call dispatch.
    """
    n = len(indptr) - 1
    if len(indices) == 0:
        return np.zeros(n)
    rows = np.repeat(np.arange(n), np.diff(indptr))

    x = np.full(n, 1.0 / np.sqrt(n))
    z, x_next, step = np.empty(n), np.empty(n), np.empty(n)
    diff = np.inf
    for _ in range(MAX_ITERATIONS):
        np.add(np.bincount(rows, x[indices], n), x, out=z)
        np.divide(z, np.sqrt(z.dot(z)), out=x_next)
        diff = float(np.abs(np.subtract(x_next, x, out=step), out=step).max())
        x, x_next = x_next, x
        if diff <= TOLERANCE:
            ax = np.bincount(rows, x[indices], n)
            lam = float(x @ ax)
            if np.max(np.abs(ax - lam * x)) <= 10.0 * TOLERANCE:
                break
    else:
        if diff > TOLERANCE:
            raise NoConvergenceError(
                f"power iteration did not converge within {MAX_ITERATIONS} iterations "
                f"(last step moved {diff:.3e} > {TOLERANCE:.3e})"
            )
    return x


def compute(g: UndirectedGraph, kind: CentralityKind) -> ScoreTable:
    """Base centrality of every vertex of g, keyed by label.

    Degree is deg(v) / (|V| - 1), 0 on a single vertex; betweenness is
    unnormalized, over unordered pairs (`betweenness_scores`); eigenvector
    is the unit-norm dominant eigenvector of the adjacency matrix, found
    by power iteration on the shifted matrix A + I (`eigenvector_scores`).
    """
    # only the baselines call it; perfbench/spans.py traces it by name (ROADMAP item 1)
    labels, indptr, indices = g.csr_arrays()
    if kind is CentralityKind.DEGREE:
        scores = degree_scores(np.diff(indptr))
    elif kind is CentralityKind.BETWEENNESS:
        scores = betweenness_scores(indptr, indices)
    elif kind is CentralityKind.EIGENVECTOR:
        scores = eigenvector_scores(indptr, indices)
    else:
        raise ValueError(f"unknown centrality kind: {kind!r}")
    return ScoreTable.from_rows(labels, scores)
