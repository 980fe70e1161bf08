"""Prediction quality metrics.

eta_pairs scores a full predicted arrival list by the fraction of vertex
pairs in correct relative order; bqm scores a bin ordering by averaging,
over bin pairs, the fraction of cross-bin vertex pairs in correct true
order; the probability bucket table summarizes how often pre-cycle-break
digraph edges of a given confidence point the right way.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .baselines import BinOrdering
from .errors import DegenerateBinsError, NotAPartitionError, SizeMismatchError, TooSmallError
from .graph import Chronology, WeightedDigraph, _level_counts


# the bucket table's buckets: five of width 0.1 over (0.5, 1.0]
_BUCKETS = 5


@dataclass(frozen=True)
class BucketRow:
    """One weight bucket (low, high] of digraph edges; its fields are the result JSON's keys."""

    low: float
    high: float
    edge_fraction: float
    correct_fraction: float
    count: int


def eta_pairs(truth: Chronology, predicted: Chronology) -> float:
    """Fraction of unordered vertex pairs whose relative order matches truth."""
    n = len(truth)
    if set(truth.order) != set(predicted.order):
        raise SizeMismatchError("truth and predicted must be permutations of the same set")
    if n < 2:
        raise TooSmallError("need at least 2 vertices to compare pair orders")
    pos = truth.positions()
    seq = [pos[v] for v in predicted]
    return _concordant_pairs(seq) / comb(n, 2)


def _concordant_pairs(seq: list[int]) -> int:
    """Count pairs i < j with seq[i] < seq[j], via a Fenwick tree."""
    n = len(seq)
    tree = [0] * (n + 1)
    total = 0
    for x in seq:
        i = x  # prefix count of values < x among those already seen
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        i = x + 1
        while i <= n:
            tree[i] += 1
            i += i & (-i)
    return total


def bqm(truth: Chronology, bins: BinOrdering) -> float:
    """Binning quality: mean over bin pairs (i < j) of beta(i, j).

    beta(i, j) is the fraction of (u in B_i, v in B_j) pairs with u truly
    arriving before v.
    """
    if bins.covered() != set(truth.order):
        raise NotAPartitionError("bins must partition exactly the truth vertex set")
    delta = bins.delta
    if delta < 2:
        raise DegenerateBinsError("bqm needs at least 2 bins")
    pos = truth.positions()
    bin_positions = [np.sort(np.array([pos[v] for v in b], dtype=np.int64)) for b in bins.bins]
    total = 0.0
    for i in range(delta):
        earlier = bin_positions[i]
        for j in range(i + 1, delta):
            later = bin_positions[j]
            correct = int(np.searchsorted(earlier, later, side="left").sum())
            total += correct / (len(earlier) * len(later))
    return total / comb(delta, 2)


def probability_bucket_table(dg: WeightedDigraph, truth: Chronology) -> list[BucketRow]:
    """Bucket digraph edges by weight into five buckets of 0.1 over (0.5, 1.0]
    and score each bucket.

    Per bucket: the fraction of all edges whose weight lands in it, and,
    among those, the fraction of edges (u, v) with u truly arriving before
    v.  Weight exactly 0.5 (an orientation tie) counts into the lowest
    bucket.
    """
    pos = truth.positions()
    labels, counts, alpha = dg.matrix()
    missing = dg.vertices - set(truth.order)
    if missing:
        raise SizeMismatchError(f"truth is missing {len(missing)} digraph vertices")

    # edges per count m = 1..alpha, and the correct ones, from an earlier to
    # a later arrival, tallied 256 rows at a time
    rank = np.array([pos[int(v)] for v in labels], dtype=np.int64)
    correct = np.zeros(alpha + 1, dtype=np.intp)
    for lo in range(0, len(labels), 256):
        correct += np.bincount(counts[lo:lo + 256][rank[lo:lo + 256, None] < rank],
                               minlength=alpha + 1)
    # count m lands in bucket ceil((m/alpha - 0.5) / 0.1) - 1, clipped; in integers,
    # as 0.1 is 0.5 / _BUCKETS: ceil(_BUCKETS (2m - alpha) / alpha) - 1
    m = np.arange(1, alpha + 1)
    bucket = np.clip(-(_BUCKETS * (alpha - 2 * m) // alpha) - 1, 0, _BUCKETS - 1)
    # (edges, correct edges) per bucket, an integer product with the bucket membership
    sums = (bucket == np.arange(_BUCKETS)[:, None]) @ np.stack(
        [_level_counts(counts, alpha), correct[1:]], axis=1)
    total = int(sums[:, 0].sum())
    return [BucketRow(low=0.5 + b * 0.1,
                      high=0.5 + (b + 1) * 0.1,
                      edge_fraction=count / total if total else 0.0,
                      correct_fraction=good / count if count else 0.0,
                      count=count)
            for b, (count, good) in enumerate(sums.tolist())]
