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

import atexit
import os
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .ba import BAConfig, _draw_targets, generate_ba
from .baselines import BinOrdering
from .centrality import CentralityKind, _require_kind
from .dcr import differential_core_ranking, rank_descending
from .errors import (CyclicInputError, EmptyBatchError, InvalidConfigError, SizeMismatchError,
                     TooSmallError, _require_integer, _require_seed)
from .graph import (
    Chronology,
    UndirectedGraph,
    WeightedDigraph,
    _int64_labels,
    _positions,
    _source_rounds,
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
        _require_integer(self.alpha, "alpha", 1)
        _require_integer(self.connections, "connections", 1)
        _require_seed(self.master_seed, "master_seed")
        _require_kind(self.kind)


def child_seed(master_seed: int, *key: int) -> int:
    """Derived 64-bit seed for task `key`: synthetic network (i,), 1-based,
    (0,) being the reference ranking's tie salt, or sweep (point, repeat).

    numpy's SeedSequence spawn-key mixing: deterministic, documented, and
    collision-resistant across keys, so batches stay reproducible under
    any parallel schedule.  Each key is an unsigned 64-bit integer, like
    every seed.
    """
    _require_seed(master_seed, "master_seed")
    for k in key:
        _require_seed(k, "child_seed key")
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def map_and_predict(
    ref_rank: list[int],
    syn_rank: list[int],
    syn_chronology: list[int],
) -> np.ndarray:
    """Prediction list from one synthetic network.

    Position k of syn_rank maps to position k of ref_rank (equal-importance
    bijection); the synthetic chronology re-read through that map is the
    predicted arrival order of the reference network.  The pipeline does
    not call this (a synthetic chronology is 0..n-1, so it places ranks
    straight into positions); it stays while perfbench/spans.py traces it
    by name, so removing it waits for ROADMAP item 1.
    """
    arrival = _positions(Chronology(syn_chronology), syn_rank, SizeMismatchError(
        "syn_rank and syn_chronology cover different vertices"))  # when rank k arrives
    if len(ref_rank) != len(arrival):
        raise SizeMismatchError(f"ref_rank has {len(ref_rank)} labels, syn_rank {len(arrival)}")
    return Chronology(Chronology(ref_rank)[np.argsort(arrival)])  # the rank at each arrival


# rows of pair counts held at once in `pairwise_digraph`; the block stays in cache
_ROW_BLOCK = 128


def pairwise_digraph(labels: np.ndarray, positions: np.ndarray) -> WeightedDigraph:
    """Arrival-probability digraph over all vertex pairs.

    `labels` are the vertices, ascending integers in int64 (else NetchronoError);
    `positions` is an (alpha x n) integer array whose row a is one
    prediction list, read as positions: positions[a, i] is the place of
    labels[i] in list a, so each row is a permutation of 0..n-1.  Each
    unordered pair contributes exactly one edge, oriented toward the order
    more lists agree on and stored as the count m of those lists, so its
    probability is m / alpha; exact alpha/2 ties orient min-label to
    max-label so the result is independent of pair iteration order.
    """
    try:
        labels = list(labels)
    except TypeError:
        raise SizeMismatchError(f"labels must be a sequence, got {labels!r}") from None
    labels = _int64_labels(labels)  # a copy: the digraph makes it read-only
    positions = np.asarray(positions)
    if positions.ndim != 2 or positions.shape[1] != len(labels) \
            or not np.issubdtype(positions.dtype, np.integer):
        raise SizeMismatchError(
            f"positions must be an integer (alpha x {len(labels)}) array, "
            f"got {positions.dtype} {positions.shape}")
    alpha, n = positions.shape
    if alpha == 0:
        raise EmptyBatchError("need at least one prediction list")
    if np.any(labels[1:] <= labels[:-1]):
        raise SizeMismatchError("labels must be distinct and ascending")
    if positions.size and (positions.min() < 0 or positions.max() >= n):
        raise SizeMismatchError(f"positions must lie in 0..{n - 1}")
    pos = positions.astype(np.min_scalar_type(max(n - 1, 0)))
    # in range, so each row is a permutation when every (row, value) occurs once
    if np.any(np.bincount((pos + n * np.arange(alpha)[:, None]).ravel(),
                          minlength=alpha * n) != 1):
        raise SizeMismatchError("a row of positions is not a permutation of 0..n-1")

    # A pair i < j whose lists place labels[i] first k times is the edge
    # i -> j of count k when 2k >= alpha, else the edge j -> i of count alpha - k.
    dtype = np.min_scalar_type(alpha)
    counts = np.zeros((n, n), dtype=dtype)
    agree = np.empty((_ROW_BLOCK, n), dtype=dtype)
    before = np.empty((_ROW_BLOCK, n), dtype=bool)
    above = np.triu(np.ones((_ROW_BLOCK, _ROW_BLOCK), dtype=dtype), 1)
    for lo in range(0, n, _ROW_BLOCK):
        # rows lo..hi against columns lo..n: the pairs i < j with i in the block
        hi = min(lo + _ROW_BLOCK, n)
        block, less = agree[:hi - lo, :n - lo], before[:hi - lo, :n - lo]
        block.fill(0)
        for p in pos:
            np.less(p[lo:hi, None], p[lo:], out=less)
            block += less.view(np.uint8)  # a same-type add when block is uint8
        major = block >= (alpha + 1) // 2
        up, down = block * major, (alpha - block) * ~major
        # in the block's own square, only the counts right of the diagonal are pairs i < j
        up[:, :hi - lo] *= above[:hi - lo, :hi - lo]
        down[:, :hi - lo] *= above[:hi - lo, :hi - lo]
        counts[lo:hi, lo:] = up
        counts[lo:, lo:hi] += down.T
    return WeightedDigraph._from_counts(labels, counts, alpha)


def break_cycles(dg: WeightedDigraph) -> WeightedDigraph:
    """Delete minimum-weight edges until the digraph is acyclic.

    Loop semantics: while a directed cycle exists, remove the remaining
    edge of least weight m / alpha, ties by smallest (source, target) label
    pair.  Deletion never creates cycles, so the removed set is exactly the
    shortest prefix of the ascending (count, source, target) edge order
    whose removal leaves the graph acyclic.  The edge (i, j) of count m
    has the key m*n*n + i*n + j in that order, and the prefix is found in
    one binary search over the keys of the counts ceil(alpha/2)..alpha,
    with a source-peel acyclicity probe per step.
    """
    # is_acyclic: perfbench/spans.py counts its calls by name (ROADMAP item 1)
    if is_acyclic(dg):
        return dg
    labels, counts, alpha = dg.matrix()
    n = len(labels)

    # Every probe is a subgraph of the last probe found cyclic (a binary
    # search only narrows), so its cycles lie among the vertices that probe's
    # source peel never reached: it peels the principal submatrix of the counts
    # over them, kept until a probe is cyclic (the first peels the whole
    # matrix).  Sorted, they keep row-major order.
    cyclic, sub = np.arange(n), counts

    def acyclic(key: int) -> bool:
        """Acyclic once every edge of key up to `key` goes."""
        nonlocal cyclic, sub
        left = np.flatnonzero(_source_rounds(_outlast(sub, cyclic, n, key))[1])
        if len(left):
            cyclic, sub = cyclic[left], sub.take(left, 0).take(left, 1)
        return not len(left)

    # removing nothing leaves a cycle, removing every edge does not
    keys = range((alpha + 1) // 2 * n * n, (alpha + 1) * n * n)
    cut = keys[bisect_left(keys, True, key=acyclic)]
    kept = counts * _outlast(counts, np.arange(n), n, cut)
    return WeightedDigraph._from_counts(labels, kept, alpha)


def _outlast(sub: np.ndarray, at: np.ndarray, n: int, key: int) -> np.ndarray:
    """Mask of the edges of `sub`, the principal submatrix over the ascending positions
    `at` of an n x n count matrix, that outlast a cut: those of key above `key`."""
    top, rest = divmod(key, n * n)
    cut_row, cut_col = divmod(rest, n)
    # count above top before the cut row, at least top after it
    keep = sub > np.where(at < cut_row, top, top - 1).astype(sub.dtype)[:, None]
    r = int(np.searchsorted(at, cut_row))
    if r < len(at) and at[r] == cut_row:
        # above top up to the cut column, which `at` may no longer hold
        c = int(np.searchsorted(at, cut_col, side="right"))
        np.greater(sub[r, :c], top, out=keep[r, :c])
    return keep


def bin_by_indegree(dag: WeightedDigraph) -> BinOrdering:
    """Peel the DAG into bins of minimum remaining in-degree.

    Each round bins every surviving vertex of minimum in-degree within the
    surviving induced subgraph and removes them; bins are ordered by
    creation.  Every induced subgraph of a DAG has a source, so the
    minimum is 0 in every round and the bins are the rounds of the source
    peel; a vertex the peel never reaches is the cycle check.
    """
    labels, counts, _ = dag.matrix()
    rounds, left = _source_rounds(counts != 0)
    if left.any():
        raise CyclicInputError("binning requires an acyclic digraph")
    return BinOrdering(tuple(frozenset(labels[r].tolist()) for r in rounds))


# the process's one worker pool, as (workers, executor); `fan_out` keeps it
_pool = None


def fan_out(fn, tasks: list, jobs: int | None) -> list:
    """[fn(t) for t in tasks], over min(jobs, len(tasks)) worker processes
    when jobs > 1, else serially (jobs None included); results keep task
    order.  InvalidConfigError unless jobs is None or an integer >= 1.

    The workers are one pool kept for the life of the process, so that a
    call pays no fork and no join.  They are forked at the first parallel
    call and run the module code as it was at that fork: a monkeypatch made
    after it does not reach them.  A call that needs another worker count
    shuts the pool down and forks a new one.  A worker that dies makes its
    call raise BrokenProcessPool and drops the pool, so the next call forks
    a fresh one.  The pool is shut down at interpreter exit.
    """
    if jobs is not None:
        _require_integer(jobs, "jobs", 1)
    if jobs is None or jobs == 1 or len(tasks) < 2:
        return [fn(t) for t in tasks]
    # imported here so that a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _pool
    workers = min(int(jobs), len(tasks))
    if _pool is None or _pool[0] != workers:
        _shutdown_pool()
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    try:
        return list(_pool[1].map(fn, tasks))
    except BrokenProcessPool:
        _shutdown_pool()
        raise


@atexit.register
def _shutdown_pool() -> None:
    """Shut the worker pool down, if there is one, and forget it."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown()


def _fan_out_grown(fn, cfgs: list[BAConfig], kind: CentralityKind, jobs: int | None) -> list:
    """fan_out(fn, [(cfg, kind, rows) for each cfg], jobs), rows being the
    attachment targets of the network generate_ba grows from cfg: this
    process draws each consecutive run of configs of one (n, c) in one
    lockstep `_draw_targets` pass, and a task builds its network with
    generate_ba(cfg, _targets=rows)."""
    runs = []  # consecutive configs of one (n, c)
    for cfg in cfgs:
        if runs and (runs[-1][0].n, runs[-1][0].c) == (cfg.n, cfg.c):
            runs[-1].append(cfg)
        else:
            runs.append([cfg])
    tasks = [(cfg, kind, rows) for run in runs
             for cfg, rows in zip(run, _draw_targets(run[0].n, run[0].c, [s.seed for s in run]))]
    return fan_out(fn, tasks, jobs)


def _synthetic_prediction(task: tuple[BAConfig, CentralityKind, np.ndarray]) -> np.ndarray:
    """Salted DCM rank of one synthetic network, built from its drawn
    targets, as int32 labels."""
    cfg, kind, targets = task
    g, _ = generate_ba(cfg, _targets=targets)
    return rank_descending(differential_core_ranking(g, kind), cfg.seed).astype(np.int32)


def reconstruct_with_ranking(
    g_m: UndirectedGraph,
    cfg: PipelineConfig,
    jobs: int | None = None,
) -> tuple[BinOrdering, WeightedDigraph, np.ndarray]:
    """Full pipeline: the bin ordering, the pre-cycle-break digraph, and
    the reference network's own salted DCM-descending ranking (int64).

    Synthetic network i is generate_ba(BAConfig(|V_m|, cfg.connections,
    child_seed(cfg.master_seed, i))) for i = 1..alpha.  `_fan_out_grown`
    draws the attachment targets of all alpha networks in one lockstep
    pass in this process, and one task per network then builds and ranks
    it; results merge by index, so output is identical for any `jobs`
    value; at jobs > 1 the tasks run in `fan_out`'s one pool, kept between
    calls.  The drawn targets are dropped before the digraph stages.  The
    ranking drives the synthetic mappings anyway; callers comparing it
    against a true chronology can take it from here instead of paying for
    a second differential core ranking.
    """
    n = g_m.vertex_count
    if n == 0:
        raise TooSmallError("reconstruction requires a nonempty reference network")
    # built first: BAConfig refuses |V_m| <= connections before any ranking
    syn = [BAConfig(n, cfg.connections, child_seed(cfg.master_seed, i))
           for i in range(1, cfg.alpha + 1)]
    ref_table = differential_core_ranking(g_m, cfg.kind)
    ref_rank = rank_descending(ref_table, child_seed(cfg.master_seed, 0))
    syn_ranks = _fan_out_grown(_synthetic_prediction, syn, cfg.kind, jobs)
    # generate_ba labels vertices by arrival, so a synthetic chronology is
    # 0..n-1: the vertex of synthetic rank k, a label, is the predicted
    # position of the reference vertex of rank k
    labels = g_m.csr_arrays()[0]
    positions = np.empty((cfg.alpha, n), dtype=np.int32)
    positions[:, _positions(labels, ref_rank, SizeMismatchError(
        "the reference ranking does not list the network's vertices"))] = syn_ranks
    dg = pairwise_digraph(labels, positions)
    bins = bin_by_indegree(break_cycles(dg))
    return bins, dg, ref_rank


def default_jobs() -> int:
    """--jobs default: NETCHRONO_JOBS env var, else the hardware thread count.

    InvalidConfigError if NETCHRONO_JOBS is set to anything but ASCII decimal
    digits (no sign, space or underscore) of a value >= 1 with at most 19
    digits past its leading zeros: `int` refuses a string of over 4300 digits.
    """
    env = os.environ.get("NETCHRONO_JOBS")
    if env:
        digits = env.lstrip("0")
        if not (env.isascii() and env.isdecimal() and 1 <= len(digits) <= 19):
            raise InvalidConfigError(
                f"NETCHRONO_JOBS must be an integer >= 1 of at most 19 digits, got {env!r}")
        return int(digits)
    return os.cpu_count() or 1
