"""Arrival-order reconstruction via synthetic network ensembles.

Pipeline: rank the reference network by DCM, generate alpha synthetic BA
networks with the same (|V|, C), rank each the same way, biject ranks to
turn each synthetic chronology into a predicted arrival position per
reference vertex, aggregate the alpha position rows into a pairwise
arrival-probability digraph, delete minimum-weight edges until it is
acyclic, then peel the resulting DAG by minimum in-degree into
chronological bins.

Equal-DCM vertices need care: a fixed tie order would make every
synthetic assert the same arbitrary within-tie arrival order, turning
ties into unanimous (weight ~1.0) digraph edges that are pure artifact.
The pipeline therefore orders ties by a salted hash of the vertex label,
with a distinct salt per synthetic network, so tie assertions decorrelate
across the ensemble and their pair probabilities settle near 0.5.  All
salts derive from master_seed; results stay bit-reproducible.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ba import BAConfig, generate_ba
from .baselines import BinOrdering
from .centrality import CentralityKind, ScoreTable
from .dcr import differential_core_ranking
from .errors import (
    CyclicInputError,
    EmptyBatchError,
    InvalidConfigError,
    SizeMismatchError,
)
from .graph import (
    Chronology,
    UndirectedGraph,
    WeightedDigraph,
    _source_rounds,
    _unpeeled,
    is_acyclic,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Reconstruction parameters.

    alpha synthetic networks are generated with `connections` edges per
    arrival; `kind` is the base centrality of the differential core
    ranking; all randomness derives from master_seed.
    """

    alpha: int
    connections: int
    kind: CentralityKind
    master_seed: int

    def __post_init__(self):
        if self.alpha < 1:
            raise InvalidConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.connections < 1:
            raise InvalidConfigError(f"connections must be >= 1, got {self.connections}")
        if self.master_seed < 0:
            raise InvalidConfigError(f"master_seed must be >= 0, got {self.master_seed}")


def child_seed(master_seed: int, *key: int) -> int:
    """Derived 64-bit seed for task `key`: synthetic network (i,), 1-based,
    (0,) being the reference ranking's tie salt, or sweep (point, repeat).

    numpy's SeedSequence spawn-key mixing: deterministic, documented, and
    collision-resistant across keys, so batches stay reproducible under
    any parallel schedule.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays: cheap, well-dispersed 64-bit hash."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _salted_rank(table: ScoreTable, seed: int) -> np.ndarray:
    """Score-descending int64 labels, ties by the hash of label ^ _mix64(seed)."""
    salt = _mix64(np.array([seed], dtype=np.uint64))
    labels = np.fromiter(table.scores, dtype=np.int64, count=len(table.scores))
    scores = np.fromiter(table.scores.values(), dtype=np.float64, count=len(table.scores))
    # the hash reads a label's 64-bit two's complement, as Python's masking does
    return labels[np.lexsort((_mix64(labels.view(np.uint64) ^ salt), -scores))]


def map_and_predict(
    ref_rank: list[int],
    syn_rank: list[int],
    syn_chronology: Chronology,
) -> Chronology:
    """Prediction list from one synthetic network.

    Position k of syn_rank maps to position k of ref_rank (equal-importance
    bijection); the synthetic chronology re-read through that map is the
    predicted arrival order of the reference network.  The pipeline does
    not call this (a synthetic chronology is 0..n-1, so it places ranks
    straight into positions); it stays while perfbench/spans.py traces it
    by name, so removing it waits for ROADMAP item 1.
    """
    if not (len(ref_rank) == len(syn_rank) == len(syn_chronology)):
        raise SizeMismatchError(
            f"rank/chronology sizes differ: {len(ref_rank)}, {len(syn_rank)}, "
            f"{len(syn_chronology)}"
        )
    if set(syn_rank) != set(syn_chronology.order):
        raise SizeMismatchError("syn_rank and syn_chronology cover different vertices")
    position = {u: k for k, u in enumerate(syn_rank)}
    return Chronology(ref_rank[position[w]] for w in syn_chronology)


# rows of pair counts held at once in `pairwise_digraph`; the block stays in cache
_ROW_BLOCK = 128


def pairwise_digraph(labels: np.ndarray, positions: np.ndarray) -> WeightedDigraph:
    """Arrival-probability digraph over all vertex pairs.

    `labels` are the vertices, ascending; `positions` is an (alpha x n)
    integer array whose row a is one prediction list, read as positions:
    positions[a, i] is the place of labels[i] in list a, so each row is a
    permutation of 0..n-1.  P(u, v) is the fraction of lists placing u
    before v.  Each unordered pair contributes exactly one edge, oriented
    toward the more probable order and weighted by its probability; exact
    0.5 ties orient min-label to max-label so the result is independent of
    pair iteration order.
    """
    labels = np.array(labels, dtype=np.int64)  # a copy: the digraph makes it read-only
    positions = np.asarray(positions)
    if positions.ndim != 2 or positions.shape[1] != len(labels) \
            or not np.issubdtype(positions.dtype, np.integer):
        raise SizeMismatchError(
            f"positions must be an integer (alpha x {len(labels)}) array, "
            f"got {positions.dtype} {positions.shape}")
    alpha, n = positions.shape
    if alpha == 0:
        raise EmptyBatchError("need at least one prediction list")
    if labels.ndim != 1 or np.any(labels[1:] <= labels[:-1]):
        raise ValueError("labels must be distinct and ascending")
    if positions.size and (positions.min() < 0 or positions.max() >= n):
        raise SizeMismatchError(f"positions must lie in 0..{n - 1}")
    pos = positions.astype(np.min_scalar_type(max(n - 1, 0)))
    # in range, so each row is a permutation when every (row, value) occurs once
    if np.any(np.bincount((pos + n * np.arange(alpha)[:, None]).ravel(),
                          minlength=alpha * n) != 1):
        raise SizeMismatchError("a row of positions is not a permutation of 0..n-1")

    # A pair i < j whose lists place labels[i] first k times is the edge
    # i -> j when 2k >= alpha, else j -> i.  Its weight is k/alpha when
    # 2k > alpha, else 1 - k/alpha, formed exactly so, since (alpha - k)/alpha
    # can differ in the last bit: two counts can give weights one ulp apart,
    # so the codes follow the order of the floats, not of k.
    k = np.arange(alpha + 1)
    weight_of = np.where(2 * k > alpha, k / alpha, 1.0 - k / alpha)
    levels, code_of = np.unique(weight_of, return_inverse=True)
    code_of = (code_of + 1).astype(np.min_scalar_type(len(levels)))
    upper = np.where(2 * k >= alpha, code_of, 0)  # code at [i, j]
    lower = np.where(2 * k >= alpha, 0, code_of)  # code at [j, i]

    codes = np.zeros((n, n), dtype=code_of.dtype)
    counts = np.empty((_ROW_BLOCK, n), dtype=np.min_scalar_type(alpha))
    before = np.empty((_ROW_BLOCK, n), dtype=bool)
    on_or_below = np.tri(_ROW_BLOCK, dtype=bool)
    for lo in range(0, n, _ROW_BLOCK):
        # rows lo..hi against columns lo..n: the pairs i < j with i in the block
        hi = min(lo + _ROW_BLOCK, n)
        block, less = counts[:hi - lo, :n - lo], before[:hi - lo, :n - lo]
        block.fill(0)
        for p in pos:
            np.less(p[lo:hi, None], p[lo:], out=less)
            block += less.view(np.uint8)  # a same-type add when block is uint8
        up, down = upper.take(block), lower.take(block)  # `take` beats fancy indexing
        # in the block's own square, only the counts right of the diagonal are pairs i < j
        not_pairs = on_or_below[:hi - lo, :hi - lo]
        up[:, :hi - lo][not_pairs] = 0
        down[:, :hi - lo][not_pairs] = 0
        codes[lo:hi, lo:] = up
        codes[lo:, lo:hi] += down.T
    return WeightedDigraph._from_codes(labels, codes, levels)


def break_cycles(dg: WeightedDigraph) -> WeightedDigraph:
    """Delete minimum-weight edges until the digraph is acyclic.

    Loop semantics: while a directed cycle exists, remove the remaining
    edge of least weight, ties by smallest (source, target) label pair.
    Deletion never creates cycles, so the removed set is exactly the
    shortest prefix of the ascending (weight, source, target) edge order
    whose removal leaves the graph acyclic.  That prefix is found in two
    binary searches with a source-peel acyclicity probe per step: first
    over the level codes 1..len(levels), then over the row-major order of
    the edges at the one threshold level.
    """
    # is_acyclic: perfbench/spans.py counts its calls by name (ROADMAP item 1)
    if is_acyclic(dg):
        return dg
    labels, codes, levels = dg.matrix()
    n = len(labels)

    # Every probe is a subgraph of the last probe found cyclic (a binary
    # search only narrows), so its cycles lie among the vertices that
    # probe's source peel never reached: a probe takes only their rows,
    # the cycle vertices and what lies downstream of them, and peels the
    # principal submatrix over them.  Sorted, they keep the row-major order.
    cyclic = np.flatnonzero(_unpeeled(dg))

    def acyclic(edge: np.ndarray) -> bool:
        nonlocal cyclic
        left = _source_rounds(edge, cyclic)[1]
        if not left.any():
            return True
        cyclic = cyclic[left]
        return False

    # smallest code whose removal, with every lighter one, leaves a DAG; it
    # carries an edge, else its probe would be that of the code below it.
    # Removing nothing leaves a cycle, removing every edge does not.
    top = _first_true(0, len(levels), lambda floor: acyclic(codes.take(cyclic, 0) > floor))

    # Cycles left once every lighter edge goes lie among `cyclic`, so only
    # the tied edges inside its principal submatrix decide the cut; (row,
    # col) lists them in row-major order.
    inside = np.zeros(n, dtype=bool)
    inside[cyclic] = True
    at, col = np.nonzero((codes.take(cyclic, 0) == top) & inside)
    row = cyclic[at]

    def without_through(k: int) -> bool:
        """Acyclic once every lighter edge goes, and every tied edge up to
        the k-th tied edge inside."""
        return acyclic(_outlast(codes.take(cyclic, 0), cyclic, top, row[k - 1], col[k - 1]))

    # removing none of the tied edges leaves a cycle, removing all of them does not
    k = _first_true(0, len(row), without_through)
    kept = codes * _outlast(codes, np.arange(n), top, row[k - 1], col[k - 1])
    return WeightedDigraph._from_codes(labels, kept, levels)


def _outlast(sub: np.ndarray, rows: np.ndarray, top: int, cut_row: int,
             cut_col: int) -> np.ndarray:
    """Mask of the edges of `sub`, the rows `rows` (ascending) of a code
    matrix, that outlast a cut: those of code above `top`, and those of code
    `top` after (cut_row, cut_col) in row-major order."""
    keep = sub > np.where(rows < cut_row, top, top - 1).astype(sub.dtype)[:, None]
    r = int(np.searchsorted(rows, cut_row))
    if r < len(rows) and rows[r] == cut_row:
        np.greater(sub[r, :cut_col + 1], top, out=keep[r, :cut_col + 1])
    return keep


def _first_true(lo: int, hi: int, pred) -> int:
    """Smallest x in (lo, hi] with pred(x), for pred monotone, false at lo, true at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def bin_by_indegree(dag: WeightedDigraph) -> BinOrdering:
    """Peel the DAG into bins of minimum remaining in-degree.

    Each round bins every surviving vertex of minimum in-degree within the
    surviving induced subgraph and removes them; bins are ordered by
    creation.  Every induced subgraph of a DAG has a source, so the
    minimum is 0 in every round and the bins are the rounds of the source
    peel; a vertex the peel never reaches is the cycle check.
    """
    labels, codes, _ = dag.matrix()
    rounds, left = _source_rounds(codes != 0)
    if left.any():
        raise CyclicInputError("binning requires an acyclic digraph")
    return BinOrdering(tuple(frozenset(labels[r].tolist()) for r in rounds))


def fan_out(fn, tasks: list, jobs: int | None) -> list:
    """[fn(t) for t in tasks], over min(jobs, len(tasks)) worker processes
    when jobs > 1, else serially (jobs None included); results keep task
    order.  InvalidConfigError when jobs < 1."""
    if jobs is not None and jobs < 1:
        raise InvalidConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs is None or jobs == 1 or len(tasks) < 2:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _synthetic_prediction(task: tuple) -> np.ndarray:
    """Salted DCM rank of one synthetic network, as int32 labels."""
    n, connections, seed, kind_value = task
    g, _ = generate_ba(BAConfig(n, connections, seed))
    table = differential_core_ranking(g, CentralityKind(kind_value))
    return _salted_rank(table, seed).astype(np.int32)


def reconstruct_with_ranking(
    g_m: UndirectedGraph,
    cfg: PipelineConfig,
    jobs: int | None = None,
) -> tuple[BinOrdering, WeightedDigraph, list[int]]:
    """Full pipeline: the bin ordering, the pre-cycle-break digraph, and
    the reference network's own salted DCM-descending ranking.

    Synthetic network i is generate_ba(BAConfig(|V_m|, cfg.connections,
    child_seed(cfg.master_seed, i))) for i = 1..alpha: worker processes
    regenerate it from its seed (`fan_out`), and results merge by index,
    so output is identical for any `jobs` value.  The ranking drives the
    synthetic mappings anyway; callers comparing it against a true
    chronology can take it from here instead of paying for a second
    differential core ranking.
    """
    n = g_m.vertex_count
    if n == 0:
        raise ValueError("reconstruction requires a nonempty reference network")
    if n <= cfg.connections:
        raise InvalidConfigError(f"need |V_m| > connections, got {n} <= {cfg.connections}")
    ref_table = differential_core_ranking(g_m, cfg.kind)
    ref_rank = _salted_rank(ref_table, child_seed(cfg.master_seed, 0))
    tasks = [(n, cfg.connections, child_seed(cfg.master_seed, i), cfg.kind.value)
             for i in range(1, cfg.alpha + 1)]
    syn_ranks = fan_out(_synthetic_prediction, tasks, jobs)
    # generate_ba labels vertices by arrival, so a synthetic chronology is
    # 0..n-1: the vertex of synthetic rank k, a label, is the predicted
    # position of the reference vertex of rank k
    labels = g_m.csr_arrays()[0]
    positions = np.empty((cfg.alpha, n), dtype=np.int32)
    positions[:, np.searchsorted(labels, ref_rank)] = syn_ranks
    dg = pairwise_digraph(labels, positions)
    bins = bin_by_indegree(break_cycles(dg))
    return bins, dg, ref_rank.tolist()


def default_jobs() -> int:
    """--jobs default: NETCHRONO_JOBS env var, else the hardware thread count.

    InvalidConfigError if NETCHRONO_JOBS is set to anything but an integer >= 1.
    """
    env = os.environ.get("NETCHRONO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0  # reported below, like any value under 1
        if jobs < 1:
            raise InvalidConfigError(f"NETCHRONO_JOBS must be an integer >= 1, got {env!r}")
        return jobs
    return os.cpu_count() or 1
