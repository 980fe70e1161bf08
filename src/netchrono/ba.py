"""Barabasi-Albert network generation with recorded arrival chronology.

Growth starts from the complete graph on the first c labels; every later
node attaches to c distinct existing vertices drawn with probability
proportional to their degree at the moment of its arrival.  Degrees seen
by the c draws of one arrival are a snapshot: they do not update until
the arrival completes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, SizeMismatchError, _require_integer, _require_seed
from .graph import Chronology, UndirectedGraph, _csr_layout

@dataclass(frozen=True)
class BAConfig:
    """Generation parameters: final node count, connections per arrival, RNG seed.
    The one check of n > c >= 1: the pipeline and the sweep build one per network."""

    n: int
    c: int
    seed: int

    def __post_init__(self):
        _require_integer(self.n, "n")
        _require_integer(self.c, "c")
        _require_seed(self.seed)
        if self.c < 1 or self.n <= self.c:
            raise InvalidConfigError(f"require n > c >= 1, got n={self.n} c={self.c}")
        # the draws replay numpy's 32-bit bounded-integer rule (`_lemire`); the
        # bound is taken on Python ints, where numpy integers would wrap
        n, c = int(self.n), int(self.c)
        if c * (c - 1) + 2 * c * (n - 1 - c) >= 2**32:
            raise InvalidConfigError(f"n={self.n} c={self.c}: attachment list reaches 2**32")


def generate_ba(cfg: BAConfig) -> tuple[UndirectedGraph, Chronology]:
    """Grow a BA network of cfg.n nodes; fully deterministic given cfg.seed.

    Uses numpy's PCG64 generator.  Degree-proportional sampling draws
    uniformly from an attachment list holding each vertex once per unit of
    degree (equivalent to inverting the cumulative degree distribution);
    duplicate targets within one arrival are rejected and redrawn.
    Returns the graph and the chronology [0, 1, ..., n-1].

    The draws are those of one scalar `integers(0, len(list))` call per
    pick, in arrival order; see `_draw_targets`.
    """
    n, c = cfg.n, cfg.c
    targets = _draw_targets(n, c, np.random.PCG64(cfg.seed))
    clique_u, clique_v = np.triu_indices(c, k=1)
    src = np.concatenate([clique_u, np.repeat(np.arange(c, n), c)])
    dst = np.concatenate([clique_v, targets.reshape(-1)])
    indptr, indices = _csr_layout(n, np.concatenate([src, dst]), np.concatenate([dst, src]))
    g = UndirectedGraph._from_csr(np.arange(n, dtype=np.int64), indptr, indices)
    return g, Chronology(range(n))


def _draw_targets(n: int, c: int, bitgen: np.random.BitGenerator) -> np.ndarray:
    """targets[u - c]: the c distinct vertices arrival u attaches to, in draw order.

    `attach` is the network's attachment list: c(c-1) seed positions
    (vertex p // (c-1)), then per arrival its c picks (-1 until accepted)
    and itself c times; arrival u draws below c(c-1) + 2c(u-c).  A chunk of
    arrivals reads one word per pick (`_lemire`) and gathers its picks from
    `attach`, a -1 being a pick of the same chunk.  The arrivals before the
    first that repeats a pick or reads a rejected word are accepted; that
    one is finished word by word, as numpy's scalar calls would, and the
    next chunk starts at the next word.
    """
    base = c * (c - 1)
    attach = np.full(base + 2 * c * (n - c), -1, dtype=np.int64)
    attach[:base] = np.arange(base) // max(c - 1, 1)
    blocks = attach[base:].reshape(n - c, 2 * c)
    blocks[:, c:] = np.arange(c, n)[:, None]
    bounds = np.repeat(base + 2 * c * np.arange(n - c, dtype=np.uint64), c)
    floors = (2**32 - bounds) % np.maximum(bounds, 1)  # bound 0: arrival 1 of c = 1
    offsets = np.repeat(np.arange(n - c) * n, c)
    words, at, u = np.empty(0, dtype=np.uint64), 0, c
    if base == 0:
        # K_1 has no degree mass: arrival 1 draws integers(0, 1), which reads no word
        attach[0] = 0
        u += 1
    while u < n:
        lo, hi = (u - c) * c, (min(n, u + max(_CHUNK_MIN, u // _CHUNK_SHARE)) - c) * c
        if len(words) - at < hi - lo:
            words, at = np.concatenate([words[at:], _words(bitgen, hi - lo)]), 0
        pos, accepted = _lemire(words[at:at + hi - lo], bounds[lo:hi], floors[lo:hi])
        picks = attach[pos]
        miss = (picks < 0).nonzero()[0]
        if miss.size:
            # each refers to an earlier slot of this chunk; chains resolve one link a round
            block, r = np.divmod(pos[miss] - base, 2 * c)
            ref = block * c + r - lo
            while miss.size:
                picks[miss] = picks[ref]
                left = picks[miss] < 0
                miss, ref = miss[left], ref[left]
        rows = picks.reshape(-1, c)
        # a repeat is an equal pair once each pick is offset by its arrival times n
        keys = picks + offsets[lo:hi]
        keys.sort()
        same = (keys[1:] == keys[:-1]).nonzero()[0]
        k = int(keys[same[0]]) // n - (u - c) if same.size else len(rows)
        if not accepted.all():
            k = min(k, int(np.argmin(accepted)) // c)
        blocks[u - c:u - c + k, :c] = rows[:k]
        u, at = u + k, at + k * c
        if k == len(rows):
            continue
        # arrival u: its c words above, then one at a time; its picks share one bound
        chosen = list(dict.fromkeys(rows[k][accepted[k * c:(k + 1) * c]].tolist()))
        bound, floor = int(bounds[lo + k * c]), int(floors[lo + k * c])
        at += c
        while len(chosen) < c:
            if at == len(words):
                words, at = _words(bitgen, _CHUNK_MIN), 0
            p, ok = _lemire(int(words[at]), bound, floor)
            at += 1
            if ok and int(attach[p]) not in chosen:
                chosen.append(int(attach[p]))
        blocks[u - c, :c] = chosen
        u += 1
    return blocks[:, :c]


# a chunk is _CHUNK_MIN arrivals, or one in _CHUNK_SHARE of those grown if more
_CHUNK_MIN = 64
_CHUNK_SHARE = 8


def _words(bitgen: np.random.BitGenerator, outputs: int) -> np.ndarray:
    """The next 2 * outputs 32-bit words, in the order PCG64's next_uint32
    hands them out: each 64-bit output's low half, then its high half."""
    raw = bitgen.random_raw(outputs)
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(-1)


def _lemire(words, bounds, floors):
    """numpy's integers(0, L) rule for L < 2**32, on words and bounds (arrays
    or ints): (value, accepted).  m = word * L; the value is m >> 32 and the
    word is rejected when m mod 2**32 < (2**32 - L) mod L, its floor."""
    m = words * bounds
    return m >> 32, (m & 0xFFFFFFFF) >= floors


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
    _require_seed(seed)
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

