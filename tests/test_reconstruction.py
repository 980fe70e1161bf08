import itertools
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchrono import (
    BAConfig,
    CentralityKind,
    Chronology,
    PipelineConfig,
    bin_by_indegree,
    break_cycles,
    child_seed,
    from_edge_list,
    generate_ba,
    is_acyclic,
    map_and_predict,
    pairwise_digraph,
    reconstruct_with_ranking,
    shuffle_vertex_labels,
)
from netchrono.errors import (
    CyclicInputError,
    EmptyBatchError,
    InvalidConfigError,
    NetchronoError,
    SizeMismatchError,
    TooSmallError,
)
import netchrono
from netchrono import cli
from netchrono.ba import _draw_targets
from netchrono.baselines import centrality_bins
from netchrono.centrality import ScoreTable
from netchrono.dcr import rank_descending
from netchrono.reconstruction import _guided_chunks, default_jobs, fan_out

from builders import digraph, edge_map, score_table
from oracles import list_positions, oracle_break_cycles, oracle_mix64, oracle_salted_rank


def test_pipeline_config_validation():
    with pytest.raises(InvalidConfigError):
        PipelineConfig(alpha=0, connections=3, kind=CentralityKind.DEGREE, master_seed=1)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(alpha=1, connections=0, kind=CentralityKind.DEGREE, master_seed=1)
    with pytest.raises(InvalidConfigError, match="master_seed"):
        PipelineConfig(alpha=1, connections=3, kind=CentralityKind.DEGREE, master_seed=-1)
    # each count an integer (not a float, a string or a bool) and kind a CentralityKind
    valid = dict(alpha=2, connections=3, kind=CentralityKind.DEGREE, master_seed=1)
    for field, value in [("alpha", 2.5), ("master_seed", 1.0), ("kind", "degree"),
                         ("kind", None),
                         *itertools.product(["alpha", "connections"],
                                            [2.0, True, "2", np.float64(2)])]:
        with pytest.raises(InvalidConfigError, match=field):
            PipelineConfig(**{**valid, field: value})
    PipelineConfig(**{**valid, "alpha": np.int64(2), "connections": np.int64(3),
                      "master_seed": np.uint64(1)})


@pytest.mark.parametrize("env", ["0", "-2", "x", "1_6", " +2 ", "\u0663",
                                 pytest.param("1" * 5000, id="5000_ones")])
def test_default_jobs_rejects_env_values_below_one(monkeypatch, env):
    monkeypatch.setenv("NETCHRONO_JOBS", env)
    with pytest.raises(InvalidConfigError, match="NETCHRONO_JOBS"):
        default_jobs()


def test_default_jobs_reads_the_env(monkeypatch):
    monkeypatch.setenv("NETCHRONO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("NETCHRONO_JOBS", "0" * 5000 + "3")  # leading zeros past int's limit
    assert default_jobs() == 3
    monkeypatch.delenv("NETCHRONO_JOBS")
    assert default_jobs() >= 1


def test_default_jobs_counts_the_cpus_this_process_may_run_on(monkeypatch):
    # pinned to one CPU of a larger host, the default forks one worker's worth
    monkeypatch.delenv("NETCHRONO_JOBS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert default_jobs() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 5}, raising=False)
    assert default_jobs() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_jobs() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_jobs() == 1


def test_child_seed_deterministic_and_distinct():
    seeds = [child_seed(42, i) for i in range(20)]
    assert seeds == [child_seed(42, i) for i in range(20)]
    assert len(set(seeds)) == 20
    assert all(0 <= s < 2**64 for s in seeds)


def test_map_and_predict_example():
    # ref ranking [v2, v0, v1] as labels [12, 10, 11]; synthetic rank [b, a, c]
    # as [1, 0, 2]; chronology [a, b, c] = [0, 1, 2]
    ref_rank = [12, 10, 11]
    syn_rank = [1, 0, 2]
    chron = Chronology([0, 1, 2])
    assert list(map_and_predict(ref_rank, syn_rank, chron)) == [10, 12, 11]


def test_map_identity_composition():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 12)
        ref_rank = rng.sample(range(100, 200), n)
        order = rng.sample(range(n), n)
        chron = Chronology(order)
        assert list(map_and_predict(ref_rank, order, chron)) == ref_rank


def test_map_size_mismatch():
    with pytest.raises(SizeMismatchError):
        map_and_predict([1, 2, 3], [1, 2], Chronology([1, 2]))
    with pytest.raises(SizeMismatchError):
        map_and_predict([1, 2], [1, 2], Chronology([1, 3]))


def test_pairwise_digraph_majority():
    dg = pairwise_digraph(*list_positions([[0, 1], [0, 1], [1, 0]]))
    assert list(edge_map(dg).items()) == [((0, 1), pytest.approx(2 / 3))]


def test_pairwise_digraph_tie():
    dg = pairwise_digraph(*list_positions([[0, 1], [1, 0]]))
    assert list(edge_map(dg).items()) == [((0, 1), 0.5)]


def test_pairwise_digraph_unanimous_is_acyclic():
    dg = pairwise_digraph(*list_positions([[2, 0, 1]] * 4))
    assert is_acyclic(dg)
    assert all(w == 1.0 for w in edge_map(dg).values())
    assert dg.edge_count == 3


def test_pairwise_digraph_complete_and_bounded():
    rng = random.Random(8)
    n, alpha = 12, 7
    labels = rng.sample(range(50), n)
    lists = []
    for _ in range(alpha):
        order = labels[:]
        rng.shuffle(order)
        lists.append(order)
    dg = pairwise_digraph(*list_positions(lists))
    assert dg.edge_count == n * (n - 1) // 2
    _, _, _, w = dg.arrays()
    assert np.all(w >= 0.5) and np.all(w <= 1.0)
    # every weight is a multiple of 1/alpha
    assert np.allclose(np.round(w * alpha), w * alpha, atol=1e-9)
    # antisymmetry is structural: exactly one direction per pair
    seen = set()
    for u, v in edge_map(dg):
        assert (v, u) not in seen
        seen.add((u, v))


def test_pairwise_digraph_errors():
    with pytest.raises(EmptyBatchError):
        pairwise_digraph([0, 1], np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(SizeMismatchError):  # three positions for two labels
        pairwise_digraph([0, 1], [[0, 1, 2]])
    with pytest.raises(SizeMismatchError):  # position 1 twice, 0 never
        pairwise_digraph([0, 1], [[0, 1], [1, 1]])


@pytest.mark.parametrize("labels, positions, error", [
    ([0, 1, 2], [0, 1, 2], SizeMismatchError),                 # one row, not an array of rows
    ([0, 1, 2], [[0.0, 1.0, 2.0]], SizeMismatchError),         # not integers
    ([0, 1, 2], [[0, 1], [1, 0]], SizeMismatchError),          # two positions for three labels
    ([0, 1, 2], [[0, 1, 3]], SizeMismatchError),               # out of range above
    ([0, 1, 2], [[0, -1, 2]], SizeMismatchError),              # out of range below
    ([0, 1, 2], [[0, 1, 2], [2, 2, 0]], SizeMismatchError),    # a repeat in the second row
    ([0, 1, 2], [[0, 2, 2], [1, 0, 1]], SizeMismatchError),    # repeats whose counts over both rows balance
    ([0, 2, 1], [[0, 1, 2]], SizeMismatchError),               # labels not ascending
    ([0, 1, 1], [[0, 1, 2]], SizeMismatchError),               # labels repeated
])
def test_pairwise_digraph_rejects_bad_position_arrays(labels, positions, error):
    with pytest.raises(error):
        pairwise_digraph(labels, np.array(positions))


@pytest.mark.parametrize("labels, message", [
    ([0.5, 1.7], "label 0.5 is not an integer"),               # an int64 cast reads 0 and 1
    (np.array([0.0, 1.0]), "not an integer"),
    (["0", "1"], "label '0' is not an integer"),
    ([0, 2**64], "label 18446744073709551616 is outside the int64 range"),
    ([-2**63 - 1, 0], "outside the int64 range"),
    (np.array([0, 2**64 - 1], dtype=np.uint64), "outside the int64 range"),  # wraps to -1 as int64
    (5, "labels must be a sequence"),  # iterating a scalar raised a bare TypeError
    (np.int64(5), "labels must be a sequence"),
    (np.array(5), "labels must be a sequence"),
])
def test_pairwise_digraph_rejects_labels_that_are_not_int64(labels, message):
    with pytest.raises(NetchronoError, match=message):
        pairwise_digraph(labels, np.array([[0, 1], [1, 0]]))


def test_pairwise_digraph_reads_int64_labels_of_any_integer_type():
    positions = np.array([[0, 1], [0, 1], [1, 0]])
    want = pairwise_digraph([-2**63, 2**63 - 1], positions).matrix()
    got = pairwise_digraph(np.array([-2**63, 2**63 - 1], dtype=object), positions).matrix()
    assert got[0].dtype == np.int64 and got[0].tolist() == want[0].tolist() == [-2**63, 2**63 - 1]
    assert np.array_equal(got[1], want[1])
    labels = np.array([3, 2**63 - 1], dtype=np.uint64)
    assert pairwise_digraph(labels, positions).matrix()[0].tolist() == [3, 2**63 - 1]
    assert labels.flags.writeable  # the digraph freezes its own copy


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=12),
       alpha=st.one_of(st.integers(1, 60), st.integers(250, 300)),
       same=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_digraph_stages_keep_their_invariants(n, alpha, same, seed):
    # `same` skews the lists toward one order, so unanimous pairs and long cycles both occur
    rng = random.Random(seed)
    labels = rng.sample(range(-500, 500), n)
    orders = [labels[:] if rng.random() < same else rng.sample(labels, n) for _ in range(alpha)]
    dg = pairwise_digraph(*list_positions(orders))
    edges = edge_map(dg)
    assert dg.edge_count == len(edges) == n * (n - 1) // 2
    assert {frozenset(e) for e in edges} == {frozenset(p) for p in itertools.combinations(labels, 2)}

    dag = break_cycles(dg)
    kept = edge_map(dag)
    assert all(e in edges and kept[e] == edges[e] for e in kept)
    g = nx.DiGraph(list(kept))
    g.add_nodes_from(labels)
    assert nx.is_directed_acyclic_graph(g)

    bins = bin_by_indegree(dag).bins
    assert all(bins)
    assert sum(len(b) for b in bins) == n and set().union(*bins) == set(labels)


def test_break_cycles_triangle():
    dg = digraph([0, 1, 2], {(0, 1): 90, (1, 2): 80, (2, 0): 55}, 100)
    out = break_cycles(dg)
    assert sorted(edge_map(out).items()) == [((0, 1), 0.9), ((1, 2), 0.8)]


def test_break_cycles_acyclic_unchanged():
    dg = digraph([0, 1, 2], {(0, 1): 90, (1, 2): 80}, 100)
    assert break_cycles(dg) == dg


def test_break_cycles_two_disjoint_cycles():
    dg = digraph(
        [0, 1, 2, 3], {(0, 1): 60, (1, 0): 70, (2, 3): 55, (3, 2): 90}, 100)
    out = break_cycles(dg)
    assert sorted(edge_map(out).items()) == [((1, 0), 0.7), ((3, 2), 0.9)]


def test_break_cycles_cuts_equal_counts_in_label_order():
    # Count 33 of 50 on every edge of the 3-cycle 0 -> 1 -> 2 -> 0, although
    # the pair (0, 2) has its min label second: equal probabilities tie
    # exactly, so the cut is the first edge in (source, target) order.
    orders = [[0, 1, 2]] * 16 + [[1, 2, 0]] * 17 + [[2, 0, 1]] * 16 + [[0, 2, 1]]
    dg = pairwise_digraph(*list_positions(orders))
    assert dg.matrix()[1].tolist() == [[0, 33, 0], [0, 0, 33], [33, 0, 0]]
    assert sorted(edge_map(dg).items()) == [((0, 1), 0.66), ((1, 2), 0.66), ((2, 0), 0.66)]
    out = break_cycles(dg)
    assert sorted(edge_map(out).items()) == [((1, 2), 0.66), ((2, 0), 0.66)]
    labels, src, dst, w = dg.arrays()
    keep = oracle_break_cycles(len(labels), src, dst, w)
    assert np.array_equal(out.arrays()[1], src[keep])
    assert np.array_equal(out.arrays()[2], dst[keep])


def brute_break_cycles(vertices, edges):
    """Literal loop: while a cycle exists, delete the min-(count, src, dst) edge."""
    edges = dict(edges)

    def has_cycle():
        adj: dict[int, list[int]] = {}
        for (u, v) in edges:
            if u == v:
                return True
            adj.setdefault(u, []).append(v)
        color = {v: 0 for v in vertices}
        for start in vertices:
            if color[start]:
                continue
            stack = [(start, iter(adj.get(start, ())))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == 1:
                        return True
                    if color[nxt] == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(adj.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return False

    while has_cycle():
        victim = min(edges, key=lambda e: (edges[e], e[0], e[1]))
        del edges[victim]
    return set(edges)


def test_break_cycles_matches_literal_loop():
    rng = random.Random(0)
    for _ in range(150):
        n = rng.randint(2, 9)
        vertices = list(range(n))
        edges = {}
        for u, v in itertools.combinations(vertices, 2):
            if rng.random() < 0.7:
                m = rng.choice([25, 26, 30, 35, 40, 45, 50])
                if rng.random() < 0.5:
                    edges[(u, v)] = m
                else:
                    edges[(v, u)] = m
                if rng.random() < 0.25:
                    a, b = (v, u) if (u, v) in edges else (u, v)
                    edges[(a, b)] = rng.choice([25, 30, 37, 47])
        dg = digraph(vertices, edges, 50)
        out = break_cycles(dg)
        assert is_acyclic(out)
        assert set(edge_map(out)) == brute_break_cycles(vertices, edges)


def test_break_cycles_removed_edges_are_weakest():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(3, 10)
        edges = {}
        for u, v in itertools.combinations(range(n), 2):
            m = rng.choice([26, 30, 35, 40, 45, 50])
            if rng.random() < 0.5:
                edges[(u, v)] = m
            else:
                edges[(v, u)] = m
        dg = digraph(range(n), edges, 50)
        out = break_cycles(dg)
        kept = edge_map(out)
        removed = {e: m / 50 for e, m in edges.items() if e not in kept}
        if removed and kept:
            # removals follow ascending (weight, src, dst); every removed edge
            # precedes every kept edge in that order
            assert max((w, *e) for e, w in removed.items()) < min((w, *e) for e, w in kept.items())


def test_bin_by_indegree_chain():
    dg = digraph([0, 1, 2], {(0, 1): 9, (1, 2): 8}, 10)
    assert [set(b) for b in bin_by_indegree(dg).bins] == [{0}, {1}, {2}]


def test_bin_by_indegree_diamond():
    dg = digraph(
        [0, 1, 2, 3], {(0, 1): 9, (0, 2): 9, (1, 3): 9, (2, 3): 9}, 10)
    assert [set(b) for b in bin_by_indegree(dg).bins] == [{0}, {1, 2}, {3}]


def test_bin_by_indegree_edgeless():
    dg = digraph([5, 7, 9], {}, 10)
    assert [set(b) for b in bin_by_indegree(dg).bins] == [{5, 7, 9}]


def test_bin_by_indegree_rejects_cycles():
    for vertices, edges in (
        ([0, 1], {(0, 1): 9, (1, 0): 8}),  # no source: the peel takes no round
        ([0, 1, 2], {(2, 0): 9, (0, 1): 9, (1, 0): 8}),  # a source feeding a 2-cycle
        ([0, 2], {(2, 0): 9, (0, 0): 6}),  # a self-loop reached from a source
    ):
        with pytest.raises(CyclicInputError):
            bin_by_indegree(digraph(vertices, edges, 10))


def test_bin_by_indegree_partitions_and_first_bin_holds_sources():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(2, 12)
        order = list(range(n))
        rng.shuffle(order)
        edges = {}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.4:
                edges[(order[i], order[j])] = rng.choice([3, 4, 5])
        dag = digraph(range(n), edges, 5)
        bins = bin_by_indegree(dag)
        vertices = set(dag.matrix()[0].tolist())
        assert set().union(*bins.bins) == vertices
        assert sum(len(b) for b in bins.bins) == n
        targets = {v for (_, v) in edges}
        sources = vertices - targets
        if sources:
            assert sources <= bins.bins[0]


def test_reconstruct_alpha_one_gives_singletons():
    g, _ = generate_ba(BAConfig(40, 3, 77))
    cfg = PipelineConfig(alpha=1, connections=3, kind=CentralityKind.DEGREE, master_seed=5)
    bins, dg, _ = reconstruct_with_ranking(g, cfg)
    assert all(len(b) == 1 for b in bins.bins)
    assert bins.delta == 40
    assert is_acyclic(dg)
    _, _, _, w = dg.arrays()
    assert np.all(w == 1.0)


def test_reconstruct_smoke_small():
    g, _ = generate_ba(BAConfig(5, 3, 2))
    cfg = PipelineConfig(alpha=2, connections=3, kind=CentralityKind.DEGREE, master_seed=3)
    bins, dg, _ = reconstruct_with_ranking(g, cfg)
    assert set().union(*bins.bins) == g.vertices
    assert dg.edge_count == 10


@pytest.mark.parametrize("n,connections", [(120, 2), (300, 3), (40, 1)])
def test_drawn_ensemble_is_each_network_grown_from_its_seed(monkeypatch, n, connections):
    # the ensemble is drawn in one lockstep pass; task i must still get the
    # network that generate_ba grows alone from child_seed(master_seed, i)
    built, draws = [], []

    def spy(cfg, **kwargs):
        out = generate_ba(cfg, **kwargs)
        built.append((cfg, out[0]))
        return out

    def draw_spy(n, c, seeds):
        draws.append((n, c, list(seeds)))
        return _draw_targets(n, c, seeds)

    monkeypatch.setattr(netchrono.reconstruction, "generate_ba", spy)
    monkeypatch.setattr(netchrono.reconstruction, "_draw_targets", draw_spy)
    g, _ = generate_ba(BAConfig(n, connections, 4))
    cfg = PipelineConfig(alpha=7, connections=connections, kind=CentralityKind.DEGREE,
                         master_seed=33)
    reconstruct_with_ranking(g, cfg, jobs=1)
    assert draws == [(n, connections, [child_seed(33, i) for i in range(1, 8)])]
    assert [syn for syn, _ in built] == [BAConfig(n, connections, child_seed(33, i))
                                         for i in range(1, 8)]
    for syn, network in built:
        assert network == generate_ba(syn)[0]


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def test_reconstruct_deterministic_across_jobs():
    # one pool per process: reused while the worker count holds, replaced when it changes
    g, _ = generate_ba(BAConfig(60, 3, 8))
    cfg = PipelineConfig(alpha=6, connections=3, kind=CentralityKind.DEGREE, master_seed=21)
    serial_bins, serial_dg, serial_rank = reconstruct_with_ranking(g, cfg, jobs=1)
    workers = []
    for jobs in (2, 2, 3, 2):
        parallel_bins, parallel_dg, parallel_rank = reconstruct_with_ranking(g, cfg, jobs=jobs)
        assert serial_bins == parallel_bins
        assert serial_dg == parallel_dg
        assert serial_rank.tolist() == parallel_rank.tolist()
        workers.append(_worker_pids())
    assert [len(w) for w in workers] == [2, 2, 3, 2]
    assert workers[1] == workers[0]
    assert not workers[2] & workers[1] and not workers[3] & workers[2]


def test_task_error_in_a_worker_propagates_and_the_pool_is_kept():
    # 12 tasks go out in chunks of 3, 2, 1, ...: "x" sits inside the chunk of
    # two, and the first failing task raises, as in a serial run
    tasks = [1, -2, 3, -4, "x", -6, 7, -8, 9, None, 11, -12]
    assert _guided_chunks(len(tasks), 2)[:2] == [3, 2]
    with pytest.raises(TypeError, match="bad operand type for abs.*'str'"):
        fan_out(abs, tasks, 2)
    workers = _worker_pids()
    assert fan_out(abs, [1, -2, 3], 2) == [1, 2, 3]
    assert _worker_pids() == workers


def test_guided_chunks_of_fifty_tasks_over_two_workers():
    assert _guided_chunks(50, 2) == [12, 9, 7, 5, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("count,workers", [(2, 2), (7, 2), (7, 3), (8, 2), (50, 2), (50, 3),
                                           (50, 7), (100, 2), (1000, 16), (3, 3)])
def test_guided_chunks_cover_the_tasks_and_end_in_single_tasks(count, workers):
    sizes = _guided_chunks(count, workers)
    assert sum(sizes) == count
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 1 and min(sizes) >= 1
    # the first chunk is a (2 * workers)-th share of all the tasks
    assert sizes[0] == max(1, count // (2 * workers))


@pytest.mark.parametrize("count", [7, 50])
@pytest.mark.parametrize("jobs", [2, 3])
def test_chunked_fan_out_keeps_task_order(count, jobs):
    tasks = [(-1) ** i * i for i in range(count)]
    assert fan_out(abs, tasks, jobs) == [abs(t) for t in tasks]


def test_a_killed_worker_breaks_its_call_and_the_next_call_forks_a_fresh_pool():
    assert fan_out(abs, [1, -2], 2) == [1, 2]
    victim = multiprocessing.active_children()[0]  # a worker of this process's pool
    os.kill(victim.pid, signal.SIGKILL)
    # waiting on the sentinel leaves the reaping to the pool
    assert multiprocessing.connection.wait([victim.sentinel], timeout=30)
    with pytest.raises(BrokenProcessPool):
        fan_out(time.sleep, [0.05] * 4, 2)
    assert fan_out(abs, [1, -2, 3], 2) == [1, 2, 3]
    assert victim.pid not in _worker_pids()


def _python(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(netchrono.__file__))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


_RECONSTRUCT = """
import sys
from netchrono import (BAConfig, CentralityKind, PipelineConfig, generate_ba,
                       reconstruct_with_ranking)
g, _ = generate_ba(BAConfig(60, 3, 8))
cfg = PipelineConfig(alpha=4, connections=3, kind=CentralityKind.DEGREE, master_seed=1)
reconstruct_with_ranking(g, cfg, jobs={jobs})
loaded = sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent")))
import multiprocessing
"""


def test_interpreter_exit_shuts_the_pool_down():
    done = _python(_RECONSTRUCT.format(jobs=2)
                   + "print(*[p.pid for p in multiprocessing.active_children()])")
    assert (done.returncode, done.stderr) == (0, "")
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_serial_run_starts_no_pool():
    # the README says that `--jobs 1` never loads multiprocessing
    done = _python(_RECONSTRUCT.format(jobs=1)
                   + "print(loaded, multiprocessing.active_children())")
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[] []\n")


def _check_reconstruction(g, cfg):
    """The bins partition the vertex set, the cut digraph is acyclic by
    networkx, and the bins are the same at jobs 1 and 2."""
    bins, dg, _ = reconstruct_with_ranking(g, cfg, jobs=1)
    assert all(bins.bins) and sum(len(b) for b in bins.bins) == g.vertex_count
    assert set().union(*bins.bins) == g.vertices
    cut = nx.DiGraph(list(edge_map(break_cycles(dg))))
    cut.add_nodes_from(g.vertices)
    assert nx.is_directed_acyclic_graph(cut)
    assert reconstruct_with_ranking(g, cfg, jobs=2)[0] == bins
    return bins


@pytest.mark.parametrize("kind", list(CentralityKind))
def test_reconstruct_disconnected_reference(kind):
    # two BA networks side by side, the second's labels shifted past the first's;
    # each DCR peeling level of the reference is disconnected
    first, _ = generate_ba(BAConfig(100, 3, 1))
    second, _ = generate_ba(BAConfig(120, 3, 2))
    g = from_edge_list(list(first.edges()) + [(u + 1000, v + 1000) for u, v in second.edges()])
    cfg = PipelineConfig(alpha=10, connections=3, kind=kind, master_seed=1)
    assert _check_reconstruction(g, cfg).delta >= 2


@pytest.mark.parametrize("kind", list(CentralityKind))
@pytest.mark.parametrize("connections", [1, 3, 5])
def test_reconstruct_reference_of_another_connection_count(connections, kind):
    # BA(200, 2) rebuilt from synthetic networks with C = 1, 3 and 5 edges per arrival
    g, _ = generate_ba(BAConfig(200, 2, 3))
    cfg = PipelineConfig(alpha=10, connections=connections, kind=kind, master_seed=1)
    assert _check_reconstruction(g, cfg).delta >= 2


@pytest.mark.parametrize("jobs", [0, -3, 2.5, "2", True, 2.0, np.float64(2)])
def test_jobs_below_one_are_rejected(monkeypatch, jobs):
    # as `--jobs` and NETCHRONO_JOBS are, rather than read as serial; so is a
    # jobs that is not an integer (a bool included), and before any work
    with pytest.raises(InvalidConfigError):
        fan_out(abs, [1, 2], jobs)
    g, _ = generate_ba(BAConfig(8, 2, 4))
    cfg = PipelineConfig(alpha=2, connections=2, kind=CentralityKind.DEGREE, master_seed=3)

    def unreached(*args):
        raise AssertionError("work was done before jobs was checked")

    with monkeypatch.context() as m:
        m.setattr(netchrono.reconstruction, "differential_core_ranking", unreached)
        m.setattr(netchrono.reconstruction, "_draw_targets", unreached)
        with pytest.raises(InvalidConfigError, match="jobs"):
            reconstruct_with_ranking(g, cfg, jobs=jobs)
    assert fan_out(abs, [1, -2], np.int64(1)) == [1, 2]


def test_reconstruct_validates_input(monkeypatch):
    # BAConfig, the one check of n > c, refuses |V_m| <= connections before any ranking
    def unranked(*args):
        raise AssertionError("the reference was ranked before the synthetic configs were checked")

    monkeypatch.setattr(netchrono.reconstruction, "differential_core_ranking", unranked)
    g, _ = generate_ba(BAConfig(5, 3, 2))
    cfg = PipelineConfig(alpha=2, connections=5, kind=CentralityKind.DEGREE, master_seed=3)
    with pytest.raises(InvalidConfigError, match="require n > c >= 1"):
        reconstruct_with_ranking(g, cfg)


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.integers(-2**63, 2**63 - 1), min_size=0, max_size=60, unique=True),
    pool=st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, 1e-300, 0.1 + 0.2, 0.3]),
                  min_size=1, max_size=4),
    data=st.data(),
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1)),
)
def test_salted_rank_matches_sort_key(labels, pool, data, seed):
    # few distinct scores, so most vertices tie, 0.0 and -0.0 among them
    scores = data.draw(st.lists(st.sampled_from(pool), min_size=len(labels),
                                max_size=len(labels)))
    table = score_table(dict(zip(labels, scores)))
    assert rank_descending(table, seed).tolist() == oracle_salted_rank(table, oracle_mix64(seed))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_salted_rank_rejects_a_seed_that_is_not_uint64(seed):
    # numpy raised a bare OverflowError, or cast 1.5 to 1 without a word
    with pytest.raises(InvalidConfigError, match="unsigned 64-bit"):
        rank_descending(score_table({1: 0.5, 2: 0.5}), seed)


@pytest.mark.parametrize("seed", [-1, 1.5, True, 2**64])
def test_every_seeded_entry_rejects_a_seed_that_is_not_uint64(seed):
    # numpy raised a bare ValueError or TypeError from child_seed, master seed or key, and
    # from shuffle_vertex_labels, and read a key of True as 1; rank_descending is checked above
    g, chronology = generate_ba(BAConfig(6, 2, 1))
    calls = [
        lambda: child_seed(seed, 1),
        lambda: child_seed(1, seed),
        lambda: shuffle_vertex_labels(g, chronology, seed),
        lambda: BAConfig(6, 2, seed),
        lambda: PipelineConfig(alpha=1, connections=2, kind=CentralityKind.DEGREE, master_seed=seed),
    ]
    for call in calls:
        with pytest.raises(InvalidConfigError, match="unsigned 64-bit"):
            call()


def test_seeded_entries_take_numpy_integers():
    g, chronology = generate_ba(BAConfig(6, 2, np.uint64(1)))
    assert child_seed(np.uint64(2**64 - 1), 1) == child_seed(2**64 - 1, 1)
    numpy_seeded, int_seeded = (shuffle_vertex_labels(g, chronology, s) for s in (np.int64(4), 4))
    assert numpy_seeded[0] == int_seeded[0]
    assert numpy_seeded[1].tolist() == int_seeded[1].tolist()
    table = score_table({1: 0.5, 2: 0.5, 3: 0.5})
    assert rank_descending(table, np.uint32(9)).tolist() == rank_descending(table, 9).tolist()


def test_empty_reference_is_too_small():
    cfg = PipelineConfig(alpha=1, connections=1, kind=CentralityKind.DEGREE, master_seed=1)
    with pytest.raises(TooSmallError):
        reconstruct_with_ranking(from_edge_list([]), cfg, jobs=1)


def test_salted_rank_ties_zero_signs_and_extreme_labels():
    labels = [0, 1, 2**63 - 1, 2**62 + 5, 12, 2**40, -3]
    table = score_table(dict(zip(labels, [0.0, -0.0, 0.0, -0.0, 0.5, 0.5, 0.5])))
    for seed in (0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15):
        assert rank_descending(table, seed).tolist() == oracle_salted_rank(table, oracle_mix64(seed))


def test_pipeline_ranks_on_arrays_without_the_score_mapping(monkeypatch):
    # `rank_descending` read the {label: score} mapping back into two arrays.
    # The setter drops a stored mapping, so a table that keeps one as its
    # field is still built, and fails only where the mapping is read.
    def unread(table):
        raise AssertionError("ScoreTable.scores was read")

    monkeypatch.setattr(ScoreTable, "scores", property(unread, lambda table, value: None),
                        raising=False)
    g, _ = generate_ba(BAConfig(60, 3, 1))
    for kind in CentralityKind:
        cfg = PipelineConfig(alpha=3, connections=3, kind=kind, master_seed=1)
        _, _, ref_rank = reconstruct_with_ranking(g, cfg, jobs=1)
        assert sorted(ref_rank) == sorted(g.vertices)
        assert centrality_bins(g, kind, 4).covered() == g.vertices
        task = (BAConfig(60, 3, 1), kind, _draw_targets(60, 3, [1])[0])
        assert all(0.0 <= eta <= 1.0 for eta in cli._sweep_point(task))
