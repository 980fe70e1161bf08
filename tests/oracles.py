"""Independent reference implementations used to check the fast kernels.

Everything here is deliberately naive: exhaustive shortest-path
enumeration for betweenness, dense eigendecomposition for eigenvector
scores, edge-probability random graphs for fuzzing, the pairwise
digraph, cycle break and in-degree binning on raw position arrays with
full-mask probing, the CSR build, block Brandes kernel and scipy-product
power iteration as first written, the BA draw loop as first written and
as one network's chunked draw, dict-based core peeling and sort-key tie
salting as first written, and the whole pipeline composed of these.
None of it shares code with the package internals, except that the
peeling oracle scores each level through the public
`netchrono.centrality.compute` and the pipeline oracle derives its seeds
with the public `netchrono.child_seed`.  `list_positions` is plumbing,
not an oracle: it turns prediction lists into `pairwise_digraph`'s input.
"""
from __future__ import annotations

import itertools
import random
from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph, csr_matrix

import netchrono.centrality
from netchrono import PipelineConfig, ScoreTable, UndirectedGraph, child_seed, from_edge_list
from netchrono.centrality import CentralityKind, compute
from netchrono.errors import NoConvergenceError

from builders import adjacency, graph, score_table


def random_graph(rng: random.Random, n: int, p: float) -> UndirectedGraph:
    """G(n, p) with all n vertices present even when isolated."""
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in pairs:
        adj[u].add(v)
    return graph(adj)


def random_connected_graph(rng: random.Random, n: int, extra_p: float) -> UndirectedGraph:
    """Random spanning tree plus independent extra edges."""
    pairs = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        pairs.append((order[i], order[rng.randrange(i)]))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < extra_p:
            pairs.append((u, v))
    return from_edge_list(pairs)


def brute_betweenness(g: UndirectedGraph) -> dict[int, float]:
    """Enumerate every shortest path of every unordered pair, count pass-throughs."""
    vertices = sorted(g.vertices)
    nbrs = adjacency(g)
    score = {v: 0.0 for v in vertices}

    def all_shortest_paths(s, t):
        # BFS layering, then DFS back through parents
        dist = {s: 0}
        parents: dict[int, list[int]] = {s: []}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parents[w] = [v]
                    q.append(w)
                elif dist[w] == dist[v] + 1:
                    parents[w].append(v)
        if t not in dist:
            return []
        paths = []

        def walk(v, acc):
            if v == s:
                paths.append(list(reversed(acc + [s])))
                return
            for p in parents[v]:
                walk(p, acc + [v])

        walk(t, [])
        return paths

    for s, t in itertools.combinations(vertices, 2):
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        for v in vertices:
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            score[v] += through / len(paths)
    return score


def oracle_csr_arrays(adj: dict[int, set[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, indptr, indices) of a symmetric adjacency map, built one row
    at a time; indices are row positions."""
    labels = np.fromiter(sorted(adj), dtype=np.int64, count=len(adj))
    index = {int(v): i for i, v in enumerate(labels)}
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    chunks = []
    for i, v in enumerate(labels):
        nbrs = np.fromiter(sorted(index[w] for w in adj[int(v)]), dtype=np.int64,
                           count=len(adj[int(v)]))
        indptr[i + 1] = indptr[i] + len(nbrs)
        chunks.append(nbrs)
    indices = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return labels, indptr, indices


def oracle_brandes_ordered_sums(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Brandes dependency sums over ordered pairs, as first written: per block
    of 256 sources, (b x n) distance and path-count matrices, each BFS level
    found by full-size masks.  The per-block column sums, added to the total
    block by block, fix the floating-point reduction order."""
    block = 256
    adj = sp.csr_array(
        (np.ones(len(indices), dtype=np.float64), indices.astype(np.int64), indptr),
        shape=(n, n),
    )
    total = np.zeros(n, dtype=np.float64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        b = hi - lo
        rows = np.arange(b)
        dist = np.full((b, n), -1, dtype=np.int32)
        sigma = np.zeros((b, n), dtype=np.float64)
        dist[rows, np.arange(lo, hi)] = 0
        sigma[rows, np.arange(lo, hi)] = 1.0

        frontier = dist == 0
        level = 0
        while True:
            paths = (sigma * frontier) @ adj
            newly = (paths > 0) & (dist < 0)
            if not newly.any():
                break
            level += 1
            dist[newly] = level
            sigma[newly] = paths[newly]
            frontier = newly

        delta = np.zeros((b, n), dtype=np.float64)
        for lev in range(level, 0, -1):
            at = dist == lev
            coef = np.zeros((b, n), dtype=np.float64)
            np.divide(1.0 + delta, sigma, out=coef, where=at)
            contrib = coef @ adj
            prev = dist == (lev - 1)
            delta[prev] += (contrib * sigma)[prev]
        delta[rows, np.arange(lo, hi)] = 0.0
        total += delta.sum(axis=0)
    return total


def oracle_eigenvector_scores(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Power iteration on A + I as first written: a scipy CSR product per
    step, `np.linalg.norm` and a fresh array per operation.  Reads the
    stopping rule from `netchrono.centrality` at each call, as the kernel does."""
    tolerance = netchrono.centrality.TOLERANCE
    max_iterations = netchrono.centrality.MAX_ITERATIONS
    n = len(indptr) - 1
    if len(indices) == 0:
        return np.zeros(n)
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
                f"(last step moved {diff:.3e} > {tolerance:.3e})"
            )
    return x


def dense_dominant_eigenvector(g: UndirectedGraph) -> tuple[dict[int, float], float]:
    """Entrywise non-negative unit dominant eigenvector via numpy.linalg.eigh."""
    labels = sorted(g.vertices)
    index = {v: i for i, v in enumerate(labels)}
    n = len(labels)
    a = np.zeros((n, n))
    for v, nbrs in adjacency(g).items():
        for w in nbrs:
            a[index[v], index[w]] = 1.0
    vals, vecs = np.linalg.eigh(a)
    lam = float(vals[-1])
    x = vecs[:, -1]
    if x.sum() < 0:
        x = -x
    return {v: float(x[index[v]]) for v in labels}, lam


# Pairwise-digraph stages, as first written: (src, dst) are vertex positions
# 0..n-1, every probe rebuilds the full edge set from a mask.

def _oracle_acyclic(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    if np.any(src == dst):
        return False
    if n == 0:
        return True
    mat = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    count, _ = csgraph.connected_components(mat, directed=True, connection="strong")
    return count == n


def oracle_pairwise_digraph(orders: list[list[int]], alpha: int):
    """(labels, src, dst, w) in (src, dst) order, one pair at a time in Python."""
    labels = sorted(orders[0])
    n = len(labels)
    before = [[0] * n for _ in range(n)]
    for order in orders:
        pos = {v: k for k, v in enumerate(order)}
        for i in range(n):
            for j in range(n):
                if pos[labels[i]] < pos[labels[j]]:
                    before[i][j] += 1
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        cnt = before[i][j]  # lists placing labels[i] first; ties orient i -> j
        w = max(cnt, alpha - cnt) / alpha
        edges.append((j, i, w) if 2 * cnt < alpha else (i, j, w))
    edges.sort()
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    return np.array(labels, dtype=np.int64), src, dst, w


def list_positions(orders: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Prediction lists in `pairwise_digraph`'s input form: the sorted labels,
    and positions[a, i], the index of labels[i] in orders[a]."""
    labels = sorted(orders[0])
    places = [{v: k for k, v in enumerate(order)} for order in orders]
    return (np.array(labels, dtype=np.int64),
            np.array([[place[v] for v in labels] for place in places], dtype=np.int64))


def oracle_break_cycles(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Keep-mask over the input edges: the shortest prefix of the ascending
    (w, src, dst) order whose removal leaves the digraph acyclic, removed."""
    m = len(src)
    if m == 0 or _oracle_acyclic(n, src, dst):
        return np.ones(m, dtype=bool)
    order = np.lexsort((dst, src, w))
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    lo, hi = 0, m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        keep = rank >= mid
        if _oracle_acyclic(n, src[keep], dst[keep]):
            hi = mid
        else:
            lo = mid
    return rank >= hi


def oracle_bin_by_indegree(n: int, src: np.ndarray, dst: np.ndarray) -> list[frozenset[int]]:
    """Bins of vertex positions: each round recounts in-degrees among survivors."""
    alive = np.ones(n, dtype=bool)
    bins = []
    while alive.any():
        valid = alive[src] & alive[dst]
        indeg = np.bincount(dst[valid], minlength=n)
        members = alive & (indeg == indeg[alive].min())
        bins.append(frozenset(np.flatnonzero(members).tolist()))
        alive &= ~members
    return bins


# Synthetic-ensemble stages, as first written: a per-draw Python loop over
# the attachment list and its first vectorised form, one network a chunk at
# a time, peeling by copying the graph's neighbour sets, and a sort key
# holding a Python-integer splitmix64 hash.

def oracle_generate_ba(n: int, c: int, seed: int) -> dict[int, set[int]]:
    """Adjacency sets of BA(n, c) grown from `seed`, one scalar draw at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))

    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u in range(c):
        for v in range(u + 1, c):
            adj[u].add(v)
            adj[v].add(u)

    # attachment list: vertex v appears deg(v) times; frozen per arrival
    attach: list[int] = []
    for v in range(c):
        attach.extend([v] * (c - 1))

    for u in range(c, n):
        snapshot_len = len(attach)
        targets: list[int] = []
        seen: set[int] = set()
        if snapshot_len == 0:
            # degenerate c=1 start: K_1 has no degree mass, fall back to uniform
            targets.append(int(rng.integers(0, u)))
        else:
            while len(targets) < c:
                pick = attach[int(rng.integers(0, snapshot_len))]
                if pick not in seen:
                    seen.add(pick)
                    targets.append(pick)
        for v in targets:
            adj[u].add(v)
            adj[v].add(u)
            attach.append(v)
        attach.extend([u] * c)
    return adj


def oracle_chunked_targets(n: int, c: int, seed: int) -> np.ndarray:
    """targets[u - c]: the c distinct vertices arrival u of BA(n, c) grown from
    `seed` attaches to, in draw order; one network a chunk at a time.

    `attach` is the network's attachment list: c(c-1) seed positions
    (vertex p // (c-1)), then per arrival its c picks (-1 until accepted)
    and itself c times; arrival u draws below c(c-1) + 2c(u-c).  A chunk of
    arrivals reads one word per pick (`_oracle_lemire`) and gathers its picks from
    `attach`, a -1 being a pick of the same chunk.  The arrivals before the
    first that repeats a pick or reads a rejected word are accepted; that
    one is finished word by word, as numpy's scalar calls would, and the
    next chunk starts at the next word.
    """
    bitgen = np.random.PCG64(seed)
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
        lo, hi = (u - c) * c, (min(n, u + max(_ORACLE_CHUNK_MIN, u // _ORACLE_CHUNK_SHARE)) - c) * c
        if len(words) - at < hi - lo:
            words, at = np.concatenate([words[at:], _oracle_words(bitgen, hi - lo)]), 0
        pos, accepted = _oracle_lemire(words[at:at + hi - lo], bounds[lo:hi], floors[lo:hi])
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
                words, at = _oracle_words(bitgen, _ORACLE_CHUNK_MIN), 0
            p, ok = _oracle_lemire(int(words[at]), bound, floor)
            at += 1
            if ok and int(attach[p]) not in chosen:
                chosen.append(int(attach[p]))
        blocks[u - c, :c] = chosen
        u += 1
    return blocks[:, :c]


# a chunk is _ORACLE_CHUNK_MIN arrivals, or one in _ORACLE_CHUNK_SHARE of those grown if more
_ORACLE_CHUNK_MIN = 64
_ORACLE_CHUNK_SHARE = 8


def _oracle_words(bitgen: np.random.BitGenerator, outputs: int) -> np.ndarray:
    """The next 2 * outputs 32-bit words of PCG64's next_uint32: each 64-bit
    output's low half, then its high half."""
    raw = bitgen.random_raw(outputs)
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(-1)


def _oracle_lemire(words, bounds, floors):
    """numpy's integers(0, L) rule for L < 2**32: (value, accepted)."""
    m = words * bounds
    return m >> 32, (m & 0xFFFFFFFF) >= floors


def _oracle_remove_vertices(g: UndirectedGraph, drop: set[int]) -> UndirectedGraph:
    return graph({v: nbrs - drop for v, nbrs in adjacency(g).items() if v not in drop})


def _oracle_level_scores(g: UndirectedGraph, kind: CentralityKind) -> dict[int, float]:
    table = compute(g, kind)
    if kind is CentralityKind.BETWEENNESS and g.vertex_count >= 3:
        n = g.vertex_count
        scale = 2.0 / ((n - 1) * (n - 2))
        return {v: s * scale for v, s in table.scores.items()}
    return dict(table.scores)


def oracle_differential_core_ranking(g: UndirectedGraph, kind: CentralityKind) -> dict[int, float]:
    """DCM per vertex, peeling a copied graph level by level."""
    dcm = {v: 0.0 for v in g.vertices}
    current_graph = g
    current = _oracle_level_scores(current_graph, kind)
    while current_graph.vertex_count > 0:
        degrees = {v: len(nbrs) for v, nbrs in adjacency(current_graph).items()}
        min_degree = min(degrees.values())
        peeled = {v for v, d in degrees.items() if d == min_degree}
        next_graph = _oracle_remove_vertices(current_graph, peeled)
        nxt = _oracle_level_scores(next_graph, kind) if next_graph.vertex_count > 0 else {}
        for v in current_graph.vertices:
            if v in peeled:
                dcm[v] += abs(current[v])
            else:
                dcm[v] += abs(nxt[v] - current[v])
        current_graph, current = next_graph, nxt
    return dcm


def oracle_mix64(x: int) -> int:
    x &= 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def oracle_salted_rank(table: ScoreTable, salt: int) -> list[int]:
    """Score-descending labels, ties by the splitmix64 hash of label ^ salt."""
    scores = table.scores
    return sorted(scores, key=lambda v: (-scores[v], oracle_mix64(v ^ salt)))


# The pipeline as the paper states it, one oracle per stage and the rank
# bijection as a loop.

def oracle_reconstruct(g: UndirectedGraph, cfg: PipelineConfig) -> tuple[list[frozenset[int]],
                                                                       np.ndarray]:
    """The bins of g's labels, in order, and the pre-break count matrix over
    g's sorted labels: counts[i, j] = m for the pair's edge i -> j of weight
    m / alpha, else 0.

    The reference and synthetic network i (1..alpha) are ranked by DCM,
    ties salted by child_seed(master_seed, 0) and by the synthetic's own
    seed child_seed(master_seed, i); the reference vertex of rank k takes
    the arrival time of the synthetic vertex of rank k.
    """
    n, alpha = g.vertex_count, cfg.alpha
    ref_rank = oracle_salted_rank(score_table(oracle_differential_core_ranking(g, cfg.kind)),
                                  oracle_mix64(child_seed(cfg.master_seed, 0)))
    orders = []
    for i in range(1, alpha + 1):
        seed = child_seed(cfg.master_seed, i)
        syn = graph(oracle_generate_ba(n, cfg.connections, seed))
        syn_rank = oracle_salted_rank(
            score_table(oracle_differential_core_ranking(syn, cfg.kind)), oracle_mix64(seed))
        arrival = {v: t for t, v in enumerate(range(n))}  # a BA label is its arrival time
        order = [None] * n
        for k in range(n):
            order[arrival[syn_rank[k]]] = ref_rank[k]
        orders.append(order)
    labels, src, dst, w = oracle_pairwise_digraph(orders, alpha)
    counts = np.zeros((n, n), dtype=np.int64)
    counts[src, dst] = np.rint(w * alpha)
    keep = oracle_break_cycles(n, src, dst, w)
    bins = oracle_bin_by_indegree(n, src[keep], dst[keep])
    return [frozenset(labels[sorted(b)].tolist()) for b in bins], counts
