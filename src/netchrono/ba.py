"""Barabasi-Albert network generation with recorded arrival chronology.

Growth starts from the complete graph on the first c labels; every later
node attaches to c distinct existing vertices drawn with probability
proportional to their degree at the moment of its arrival.  Degrees seen
by the c draws of one arrival are a snapshot: they do not update until
the arrival completes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidConfigError, SizeMismatchError, _require_integer, _require_seed
from .graph import Chronology, UndirectedGraph, _csr_layout, _positions

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


def generate_ba(cfg: BAConfig, *,
                _targets: np.ndarray | None = None) -> tuple[UndirectedGraph, np.ndarray]:
    """Grow a BA network of cfg.n nodes; fully deterministic given cfg.seed.

    Uses numpy's PCG64 generator.  Degree-proportional sampling draws
    uniformly from an attachment list holding each vertex once per unit of
    degree (equivalent to inverting the cumulative degree distribution);
    duplicate targets within one arrival are rejected and redrawn.
    Returns the graph and its labels [0, 1, ..., n-1], its chronology.

    The draws are those of one scalar `integers(0, len(list))` call per
    pick, in arrival order; see `_draw_targets`.  `_targets` is the
    network's row of a `_draw_targets(cfg.n, cfg.c, seeds)` call, drawn
    already: every ensemble task, a pipeline synthetic or a sweep network,
    builds its network here from the row that
    `reconstruction._fan_out_grown` drew for it with the others of its
    batch.  Each network thus still takes one call, which
    perfbench/spans.py times and counts by name (ROADMAP item 1).
    """
    n, c = cfg.n, cfg.c
    targets = _draw_targets(n, c, [cfg.seed])[0] if _targets is None else _targets
    clique_u, clique_v = np.triu_indices(c, k=1)
    src = np.concatenate([clique_u, np.repeat(np.arange(c, n), c)])
    dst = np.concatenate([clique_v, targets.reshape(-1)])
    indptr, indices = _csr_layout(n, np.concatenate([src, dst]), np.concatenate([dst, src]))
    g = UndirectedGraph._from_csr(np.arange(n, dtype=np.int64), indptr, indices)
    return g, g.csr_arrays()[0]


def _draw_targets(n: int, c: int, seeds: Sequence[int]) -> np.ndarray:
    """targets[s, u - c]: the c distinct vertices arrival u attaches to, in draw
    order, in the network grown from seeds[s]; the networks grow in lockstep.

    `attach` holds one attachment list per network: c(c-1) seed positions
    (vertex p // (c-1)), then per arrival its c picks (-1 until accepted)
    and itself c times; arrival u draws below c(c-1) + 2c(u-c).  A round
    takes a chunk of arrivals from every unfinished network, each from its
    own next arrival and next word: it reads one word per pick (`_lemire`)
    and gathers the picks from `attach`, a -1 being a pick of the same
    chunk.  A network's arrivals before the first that repeats a pick or
    reads a rejected word are accepted.  That arrival is then finished word
    by word, as numpy's scalar calls would, together with the stuck
    arrivals of the other networks, and the network's next chunk starts at
    its next word.  All networks take chunks of one length, which changes
    how much a round redoes, never a pick.
    """
    nets, base, arrivals = len(seeds), c * (c - 1), n - c
    width = base + 2 * c * arrivals
    attach = np.full((nets, width), -1, dtype=np.min_scalar_type(-n))  # -1 and every label
    attach[:, :base] = np.arange(base) // max(c - 1, 1)
    blocks = attach[:, base:].reshape(nets, arrivals, 2 * c)
    blocks[:, :, c:] = np.arange(c, n)[:, None]
    flat = attach.reshape(-1)
    bounds = base + 2 * c * np.arange(arrivals, dtype=np.uint64)
    floors = (2**32 - bounds) % np.maximum(bounds, 1)  # bound 0: arrival 1 of c = 1
    u, at = np.full(nets, c), np.zeros(nets, dtype=np.int64)
    if base == 0:
        # K_1 has no degree mass: arrival 1 draws integers(0, 1), which reads no word
        blocks[:, 0, 0] = 0
        u += 1
    # every pick's word, and words enough for the longest chunk past the last arrival
    bitgens = [np.random.PCG64(s) for s in seeds]
    ahead = (arrivals + max(_CHUNK_MIN, n // _CHUNK_SHARE)) * c // 2 + _CHUNK_MIN
    words = np.stack([_words(b, ahead) for b in bitgens])

    def read(net: np.ndarray, first: np.ndarray) -> np.ndarray:
        """words[net, first], drawing further words first where some are missing."""
        nonlocal words
        short = int(first.max()) + 1 - words.shape[1]
        if short > 0:
            more = short // 2 + _CHUNK_MIN
            words = np.concatenate([words, np.stack([_words(b, more) for b in bitgens])], 1)
        return words.reshape(-1)[net * words.shape[1] + first]

    def finish(net: np.ndarray, picks: np.ndarray, accepted: np.ndarray) -> None:
        """Pick the next arrival of each network `net`, whose next c words gave
        `picks` and `accepted`, then word by word: an accepted word's pick is
        kept unless the arrival has it already."""
        for r in range(1, c):
            accepted[:, r] &= ~(accepted[:, :r] & (picks[:, :r] == picks[:, r:r + 1])).any(1)
        count = accepted.sum(axis=1)
        chosen = np.take_along_axis(picks, np.argsort(~accepted, axis=1, kind="stable"), 1)
        chosen[np.arange(c) >= count[:, None]] = -1
        at[net] += c
        t, rows = u[net] - c, np.arange(len(net))
        while (open_ := count < c).any():
            p, ok = _lemire(read(net, at[net]), bounds[t], floors[t])
            at[net] += open_
            pick = flat[net * width + p.view(np.int64)]
            ok &= open_ & (chosen != pick[:, None]).all(axis=1)
            chosen[rows[ok], count[ok]] = pick[ok]
            count += ok
        blocks[net, t, :c] = chosen
        u[net] += 1

    live = np.flatnonzero(u < n)
    while live.size:
        first = int(u[live].min())
        span = min(max(_CHUNK_MIN, first // _CHUNK_SHARE), n - first)
        # the chunk's arrivals less c, those past the last read as the last
        t = np.minimum(u[live, None] - c + np.arange(span), arrivals - 1)
        pos, accepted = _lemire(
            read(live[:, None], at[live, None] + np.arange(span * c)).reshape(-1, span, c),
            bounds[t][:, :, None], floors[t][:, :, None])
        pos = pos.view(np.int64)
        picks = flat[(live * width)[:, None, None] + pos]
        miss = np.flatnonzero(picks < 0)
        if miss.size:
            # each refers to an earlier slot of its chunk; chains resolve one link a round
            found = picks.reshape(-1)
            block, r = np.divmod(pos.reshape(-1)[miss] - base, 2 * c)
            ref = (miss // (span * c) * span + block - t[miss // (span * c), 0]) * c + r
            while miss.size:
                found[miss] = found[ref]
                left = found[miss] < 0
                miss, ref = miss[left], ref[left]
        # k: the arrivals before the first that is past the last, rejects a word or
        # repeats a pick (pick j against pick j + i, for each i)
        k = np.minimum(n - u[live], span)
        if not accepted.all():
            k = np.minimum(k, _first(~accepted, c, span))
        for i in range(1, c):
            k = np.minimum(k, _first(picks[:, :, i:] == picks[:, :, :-i], c - i, span))
        done = np.arange(span) < k[:, None]
        slots = (live * width + base)[:, None] + 2 * c * t  # each arrival's first pick
        flat[slots[done][:, None] + np.arange(c)] = picks[done]
        u[live] += k
        at[live] += k * c
        j = np.flatnonzero((k < span) & (u[live] < n))
        if j.size:
            finish(live[j], picks[j, k[j]], accepted[j, k[j]])
        live = live[u[live] < n]
    return blocks[:, :, :c]


def _first(flags: np.ndarray, per: int, none: int) -> np.ndarray:
    """Per row of `flags`, the index of the group of `per` flags holding its
    first set flag, or `none` if it has none."""
    flags = flags.reshape(len(flags), -1)
    return np.where(flags.any(axis=1), flags.argmax(axis=1) // per, none)


# a chunk is _CHUNK_MIN arrivals, or one in _CHUNK_SHARE of those the least grown
# network has grown if more
_CHUNK_MIN = 32
_CHUNK_SHARE = 8


def _words(bitgen: np.random.BitGenerator, outputs: int) -> np.ndarray:
    """The next 2 * outputs 32-bit words, in the order PCG64's next_uint32
    hands them out: each 64-bit output's low half, then its high half."""
    return bitgen.random_raw(outputs).astype("<u8", copy=False).view("<u4")


def _lemire(words, bounds, floors):
    """numpy's integers(0, L) rule for L < 2**32, on words and bounds (arrays
    or ints): (value, accepted).  m = word * L; the value is m >> 32 and the
    word is rejected when m mod 2**32 < (2**32 - L) mod L, its floor."""
    m = words * bounds
    return m >> 32, (m & 0xFFFFFFFF) >= floors


def shuffle_vertex_labels(
    g: UndirectedGraph,
    chronology: Iterable[int],
    seed: int,
) -> tuple[UndirectedGraph, np.ndarray]:
    """Permute vertex labels uniformly at random (PCG64-seeded).

    Freshly generated networks carry labels equal to their arrival ranks,
    which is information no real snapshot would expose; evaluation against
    arrival-order predictors should run on a relabeled copy.  The label
    set is preserved, only the assignment changes, and the chronology,
    which must list exactly g's vertices, is rewritten to stay consistent.
    """
    _require_seed(seed)
    labels, indptr, indices = g.csr_arrays()
    rows = _positions(labels, chronology, SizeMismatchError(
        "the chronology does not list exactly the graph's vertices"))
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(len(labels))
    # labels[i] becomes labels[perm[i]], so row i moves to row perm[i]
    relabeled = UndirectedGraph._from_csr(labels, *_csr_layout(
        len(labels), np.repeat(perm, np.diff(indptr)), perm[indices]))
    return relabeled, Chronology(labels[perm[rows]])

