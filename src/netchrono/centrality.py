"""Degree, betweenness and eigenvector centrality.

Each measure is an array kernel on a CSR structure (`degree_scores`,
`betweenness_scores`, `eigenvector_scores`), scores in row order.
`_level_scores` is the one place a kind picks its kernel: it scores each
of a list of vertex sets (differential core ranking's peeling levels) on
its induced subgraph, eigenvector once on all of them as diagonal blocks.
`compute` is its whole-graph case, returned as a `ScoreTable` of labels
and scores.  `dcr` peels the levels and charges the score changes.

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

from .errors import InvalidConfigError, NoConvergenceError, SizeMismatchError
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


def _require_kind(kind) -> None:
    """InvalidConfigError unless kind is a CentralityKind: the one kind check."""
    if not isinstance(kind, CentralityKind):
        raise InvalidConfigError(f"kind must be a CentralityKind, got {kind!r}")


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Per-vertex real scores: `values[i]` (float64) is the score of `labels[i]` (int64)."""

    labels: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        labels, values = self.labels, self.values
        if not (isinstance(labels, np.ndarray) and isinstance(values, np.ndarray)
                and labels.ndim == values.ndim == 1 and len(labels) == len(values)
                and labels.dtype.kind in "iu" and np.can_cast(labels.dtype, np.int64)
                and values.dtype.kind in "iuf"):
            raise SizeMismatchError("a ScoreTable needs two 1-D arrays of one length: "
                                    "integer labels within int64 and real values")
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
        object.__setattr__(self, "values", values.astype(np.float64, copy=False))

    @property
    def scores(self) -> dict[int, float]:
        """{label: score}, built anew on every read."""
        return dict(zip(self.labels.tolist(), self.values.tolist()))


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
    source, so a product with the adjacency matrix is a plain CSR product
    (`product`).  Each BFS level is kept as flat indices into those
    arrays, with the path counts of its
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
    from scipy.sparse import _sparsetools

    # csr_matvecs takes one index type for both arrays
    indptr, indices = indptr.astype(np.int64, copy=False), indices.astype(np.int64, copy=False)
    ones = np.ones(len(indices), dtype=np.float64)
    # One product buffer and one output for the whole call: a long-lived pool
    # worker keeps the allocator state of its fork, and there a fresh 512 KB
    # output per product (n = 1000) is mapped and faulted afresh.
    buf_all = np.zeros(n * _SOURCE_BLOCK, dtype=np.float64)
    out_all = np.empty(n * _SOURCE_BLOCK, dtype=np.float64)

    def product(b: int) -> np.ndarray:
        # adj @ buf, flat: scipy's `csr_array @ dense` adds into fresh zeros with this routine
        out = out_all[:n * b]
        out.fill(0.0)
        _sparsetools.csr_matvecs(n, n, b, indptr, indices, ones, buf_all[:n * b], out)
        return out

    total = np.zeros(n, dtype=np.float64)
    for lo in range(0, n, _SOURCE_BLOCK):
        b = min(_SOURCE_BLOCK, n - lo)
        flat_buf = buf_all[:n * b]  # all zeros: each product's input is cleared after it
        start = np.arange(lo, lo + b) * b + np.arange(b)
        unseen = np.ones(n * b, dtype=bool)
        unseen[start] = False
        mask = np.empty(n * b, dtype=bool)
        to_reach = n * b - b
        levels, sigmas = [start], [np.ones(b, dtype=np.float64)]
        while to_reach:
            frontier = levels[-1]
            flat_buf[frontier] = sigmas[-1]
            paths = product(b)
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
            contrib = product(b)
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


def eigenvector_scores(indptr: np.ndarray, indices: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Entrywise non-negative dominant eigenvector of each diagonal block of A, per CSR row.

    `sizes` cuts the rows into consecutive blocks with no edge between
    them: a graph is one block; differential core ranking passes one per
    peeling level.  Each block runs its own power iteration from the
    uniform positive vector, on A + I so that bipartite graphs (paired
    +/- eigenvalues) still converge; the shift leaves eigenvectors
    untouched.  A block stops with unit length, frozen while the others go
    on, once a step moves none of its entries by more than TOLERANCE and
    its residual |A x - lam x| (lam the Rayleigh quotient) is within
    10 * TOLERANCE.  After MAX_ITERATIONS steps, NoConvergenceError if an
    open block's last step moved more than TOLERANCE; other open blocks
    keep their last iterate.  A block with no edges: all zeros.

    Each product A x is one weighted `bincount` over the row id of every
    CSR entry, adding a row's neighbours in index order from 0.0 as
    scipy's CSR product does, and a block's norm is `np.linalg.norm`'s
    sqrt(z . z) on its slice: each block's iterates and stopping step are
    the scipy form's on the block alone, bit for bit.
    """
    n = len(indptr) - 1
    if len(indices) == 0:
        return np.zeros(n)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    slices = [slice(a, b) for a, b in zip(starts.tolist(), ends.tolist())]
    done = indptr[ends] == indptr[starts]  # no edges: all zeros, frozen from the start
    frozen, active = np.repeat(done, sizes), np.flatnonzero(~done)
    x = np.repeat(np.where(done, 0.0, 1.0 / np.sqrt(sizes)), sizes)
    z, x_next, step = np.empty(n), np.empty(n), np.empty(n)
    norms, lam, diff = np.ones(len(sizes)), np.zeros(len(sizes)), np.full(len(sizes), np.inf)
    z_blocks = [z[s] for s in slices]  # views: each step writes z in place
    ax = np.bincount(rows, x[indices], n)  # A x, for the step and for the residual check
    for _ in range(MAX_ITERATIONS):
        np.add(ax, x, out=z)
        norms[active] = np.sqrt([z_blocks[b].dot(z_blocks[b]) for b in active.tolist()])
        np.divide(z, np.repeat(norms, sizes), out=x_next)
        np.copyto(x_next, x, where=frozen)
        diff = np.maximum.reduceat(np.abs(np.subtract(x_next, x, out=step), out=step), starts)
        x, x_next = x_next, x
        ax = np.bincount(rows, x[indices], n)
        near = ~done & (diff <= TOLERANCE)
        if near.any():
            for b in np.flatnonzero(near).tolist():
                lam[b] = x[slices[b]].dot(ax[slices[b]])
            residual = np.maximum.reduceat(np.abs(ax - np.repeat(lam, sizes) * x), starts)
            done |= near & (residual <= 10.0 * TOLERANCE)
            if done.all():
                break
            frozen, active = np.repeat(done, sizes), np.flatnonzero(~done)
    else:
        worst = float(diff[~done].max())
        if worst > TOLERANCE:
            raise NoConvergenceError(
                f"power iteration did not converge within {MAX_ITERATIONS} iterations "
                f"(last step moved {worst:.3e} > {TOLERANCE:.3e})"
            )
    return x


Level = tuple[np.ndarray, np.ndarray]  # alive CSR rows, ascending; their degrees in the level


def _union_csr(indptr: np.ndarray, indices: np.ndarray,
               levels: list[Level]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The levels' induced CSR structures as one block-diagonal CSR, and the block sizes.
    An entry is in each level below the lesser depth (levels holding it) of its ends;
    numbering (level, vertex) pairs in that order keeps each row's neighbours sorted,
    and a row's length is the vertex's degree in its level, which the peel recorded."""
    n = len(indptr) - 1
    depth = np.bincount(np.concatenate([live for live, _ in levels]), minlength=n)
    level = np.arange(len(levels))[:, None]
    union_row = np.cumsum(depth > level).reshape(len(levels), n) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    k, at = np.nonzero(np.minimum(depth[rows], depth[indices]) > level)
    sizes = np.array([len(live) for live, _ in levels])
    counts = np.concatenate([degrees for _, degrees in levels])
    return np.concatenate([[0], np.cumsum(counts)]), union_row[k, indices[at]], sizes


def _level_scores(kind: CentralityKind, indptr: np.ndarray, indices: np.ndarray,
                  levels: list[Level]) -> list[np.ndarray]:
    """Base centrality of each level's induced subgraph, in row order, as `compute` defines it.

    Degree reads only each level's degrees; betweenness scores the union's
    blocks one at a time, eigenvector all of them in one block power iteration.
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
        out.append(betweenness_scores(union_indptr[lo:hi + 1] - start,
                                      union_indices[start:stop] - lo))
    return out


def compute(g: UndirectedGraph, kind: CentralityKind) -> ScoreTable:
    """Base centrality of every vertex of g, in the row order of its labels.

    Degree is deg(v) / (|V| - 1), 0 on a single vertex; betweenness is
    unnormalized, over unordered pairs (`betweenness_scores`); eigenvector
    is the unit-norm dominant eigenvector of the adjacency matrix, found
    by power iteration on the shifted matrix A + I (`eigenvector_scores`).
    It is `_level_scores` on the one level that holds the whole graph.
    """
    # only the baselines call it; perfbench/spans.py traces it by name (ROADMAP item 1)
    _require_kind(kind)
    labels, indptr, indices = g.csr_arrays()
    whole = (np.arange(len(labels)), np.diff(indptr))
    return ScoreTable(labels, _level_scores(kind, indptr, indices, [whole])[0])
