"""Barabasi-Albert network generation with recorded arrival chronology.

Growth starts from the complete graph on the first c labels; every later
node attaches to c distinct existing vertices drawn with probability
proportional to their degree at the moment of its arrival.  Degrees seen
by the c draws of one arrival are a snapshot: they do not update until
the arrival completes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientSupportError, InvalidConfigError, SizeMismatchError
from .graph import Chronology, UndirectedGraph, _csr_layout

_SEED_MAX = 2**64


@dataclass(frozen=True)
class BAConfig:
    """Generation parameters: final node count, connections per arrival, RNG seed."""

    n: int
    c: int
    seed: int

    def __post_init__(self):
        if self.c < 1 or self.n <= self.c:
            raise InvalidConfigError(f"require n > c >= 1, got n={self.n} c={self.c}")
        if not (0 <= self.seed < _SEED_MAX):
            raise InvalidConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree histogram with an optional fitted power-law exponent."""

    histogram: dict[int, int]
    gamma_estimate: float | None = None
    normalization: float | None = None


def generate_ba(cfg: BAConfig) -> tuple[UndirectedGraph, Chronology]:
    """Grow a BA network of cfg.n nodes; fully deterministic given cfg.seed.

    Uses numpy's PCG64 generator.  Degree-proportional sampling draws
    uniformly from an attachment list holding each vertex once per unit of
    degree (equivalent to inverting the cumulative degree distribution);
    duplicate targets within one arrival are rejected and redrawn.
    Returns the graph and the chronology [0, 1, ..., n-1].

    The draws are those of one scalar `integers(0, len(list))` call per
    pick, in arrival order, but made a chunk of arrivals at a time; see
    `_draw_targets`.
    """
    n, c = cfg.n, cfg.c
    targets = _draw_targets(n, c, np.random.Generator(np.random.PCG64(cfg.seed)))
    clique_u, clique_v = np.triu_indices(c, k=1)
    src = np.concatenate([clique_u, np.repeat(np.arange(c, n), c)])
    dst = np.concatenate([clique_v, targets.reshape(-1)])
    indptr, indices = _csr_layout(n, np.concatenate([src, dst]), np.concatenate([dst, src]))
    g = UndirectedGraph._from_csr(np.arange(n, dtype=np.int64), indptr, indices)
    return g, Chronology(range(n))


def _draw_targets(n: int, c: int, rng: np.random.Generator) -> np.ndarray:
    """targets[u - c]: the c distinct vertices arrival u attaches to, in draw order.

    The attachment list is never built.  Arrival u draws below the fixed
    bound c(c-1) + 2c(u-c), and a list position p resolves by index alone:
    below c(c-1) it is seed vertex p // (c-1); past that, each earlier
    arrival w owns a block of 2c positions, its c targets and then w
    itself c times.  A chunk of arrivals takes one `integers` call on the
    array of their bounds, which yields the values and leaves the
    generator state of the same scalar calls made in order.  The chunk
    holds as long as no arrival in it draws a repeat; at the first one that
    does, the state saved before the chunk is restored, the draws up to and
    including that arrival's first c are made again, and its redraws are
    scalar, as in the plain loop.
    """
    base = c * (c - 1)
    targets = np.empty((n - c, c), dtype=np.int64)
    flat = targets.reshape(-1)
    u = c
    if base == 0:
        # degenerate c=1 start: K_1 has no degree mass, fall back to uniform
        targets[0, 0] = rng.integers(0, u)
        u += 1
    while u < n:
        end = min(n, u + max(_CHUNK_MIN, u // _CHUNK_SHARE))
        saved = rng.bit_generator.state
        bounds = np.repeat(base + 2 * c * (np.arange(u, end) - c), c)
        picks = _resolve(rng.integers(0, bounds), flat, base, c, (u - c) * c)
        rows = picks.reshape(-1, c)
        ordered = np.sort(rows, axis=1)
        repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if repeats.size == 0:
            targets[u - c:end - c] = rows
            u = end
            continue
        k = int(repeats[0])
        targets[u - c:u - c + k] = rows[:k]
        rng.bit_generator.state = saved
        rng.integers(0, bounds[:(k + 1) * c])
        u += k
        chosen = list(dict.fromkeys(rows[k].tolist()))
        bound = int(bounds[k * c])
        while len(chosen) < c:
            # one position, resolved as `_resolve` does; every pick it can
            # refer to is an earlier arrival's, already in `flat`
            pos = int(rng.integers(0, bound))
            if pos < base:
                pick = pos // (c - 1)
            else:
                block, r = divmod(pos - base, 2 * c)
                pick = int(flat[block * c + r]) if r < c else block + c
            if pick not in chosen:
                chosen.append(pick)
        targets[u - c] = chosen
        u += 1
    return targets


# chunk length: at least _CHUNK_MIN arrivals, else one in _CHUNK_SHARE of
# those already grown, so a repeat costs a redraw of a short prefix
_CHUNK_MIN = 64
_CHUNK_SHARE = 8


def _resolve(pos: np.ndarray, flat: np.ndarray, base: int, c: int, lo: int) -> np.ndarray:
    """Vertices at attachment-list positions `pos`, the picks flat[lo:lo + len(pos)].

    A position inside an earlier arrival's target block refers to one of
    its picks: before `lo` it is read from `flat`; inside this chunk it is
    another of these picks, followed by pointer jumping (references always
    point to earlier picks).
    """
    block, r = np.divmod(pos - base, 2 * c)
    vertex = np.where(pos < base, pos // max(c - 1, 1), block + c)
    ref = np.where((pos >= base) & (r < c), block * c + r, -1)
    earlier = (ref >= 0) & (ref < lo)
    vertex[earlier] = flat[ref[earlier]]
    ref = np.where(ref >= lo, ref - lo, -1)
    pending = np.flatnonzero(ref >= 0)
    while pending.size:
        to = ref[pending]
        onward = ref[to]
        done = onward < 0
        vertex[pending[done]] = vertex[to[done]]
        ref[pending[done]] = -1
        ref[pending[~done]] = onward[~done]
        pending = pending[~done]
    return vertex


def shuffle_vertex_labels(
    g: UndirectedGraph,
    chronology: Chronology,
    seed: int,
) -> tuple[UndirectedGraph, Chronology]:
    """Permute vertex labels uniformly at random (PCG64-seeded).

    Freshly generated networks carry labels equal to their arrival ranks,
    which is information no real snapshot would expose; evaluation against
    arrival-order predictors should run on a relabeled copy.  The label
    set is preserved, only the assignment changes, and the chronology,
    which must list exactly g's vertices, is rewritten to stay consistent.
    """
    labels, indptr, indices = g.csr_arrays()
    if set(chronology) != set(labels.tolist()):
        raise SizeMismatchError("the chronology does not list exactly the graph's vertices")
    order = np.fromiter(chronology, dtype=np.int64, count=len(chronology))
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(len(labels))
    # labels[i] becomes labels[perm[i]], so row i moves to row perm[i]
    relabeled = UndirectedGraph._from_csr(labels, *_csr_layout(
        len(labels), np.repeat(perm, np.diff(indptr)), perm[indices]))
    return relabeled, Chronology(labels[perm[np.searchsorted(labels, order)]].tolist())


def degree_histogram(g: UndirectedGraph) -> DegreeDistribution:
    """Exact degree -> count histogram; no exponent fitted."""
    degrees, counts = np.unique(np.diff(g.csr_arrays()[1]), return_counts=True)
    return DegreeDistribution(histogram=dict(zip(degrees.tolist(), counts.tolist())))


def estimate_power_law_exponent(d: DegreeDistribution, k_min: int) -> DegreeDistribution:
    """Fit count_fraction(k) ~ normalization * k**(-gamma) by log-log least squares.

    Only degrees >= k_min with nonzero count enter the fit; at least three
    distinct such degrees are required.  Points are weighted by
    sqrt(count), the inverse-variance weighting for log-transformed
    Poisson counts; without it the long run of single-count tail degrees
    flattens the slope badly (unweighted fits report ~2.0 on BA networks
    whose true exponent is 3).  Diagnostic-quality, not MLE.
    """
    total = sum(d.histogram.values())
    support = sorted(k for k, cnt in d.histogram.items() if k >= k_min and cnt > 0)
    if len(support) < 3:
        raise InsufficientSupportError(
            f"need >= 3 distinct degrees >= {k_min} with nonzero count, have {len(support)}"
        )
    if min(support) < 1:
        raise InsufficientSupportError("power-law fit requires positive degrees")
    log_k = np.log(np.array(support, dtype=np.float64))
    log_p = np.log(np.array([d.histogram[k] / total for k in support]))
    weights = np.sqrt(np.array([d.histogram[k] for k in support], dtype=np.float64))
    slope, intercept = np.polyfit(log_k, log_p, 1, w=weights)
    return replace(d, gamma_estimate=float(abs(slope)), normalization=float(np.exp(intercept)))
