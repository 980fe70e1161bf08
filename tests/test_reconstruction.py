import itertools
import random

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
    generate_ba,
    is_acyclic,
    map_and_predict,
    pairwise_digraph,
    reconstruct_with_ranking,
)
from netchrono.errors import (
    CyclicInputError,
    EmptyBatchError,
    InvalidConfigError,
    SizeMismatchError,
)
from netchrono.centrality import ScoreTable
from netchrono.reconstruction import _salted_rank, default_jobs, fan_out

from builders import digraph, edge_map
from oracles import list_positions, oracle_break_cycles, oracle_mix64, oracle_salted_rank


def test_pipeline_config_validation():
    with pytest.raises(InvalidConfigError):
        PipelineConfig(alpha=0, connections=3, kind=CentralityKind.DEGREE, master_seed=1)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(alpha=1, connections=0, kind=CentralityKind.DEGREE, master_seed=1)
    with pytest.raises(InvalidConfigError, match="master_seed"):
        PipelineConfig(alpha=1, connections=3, kind=CentralityKind.DEGREE, master_seed=-1)


@pytest.mark.parametrize("env", ["0", "-2", "x"])
def test_default_jobs_rejects_env_values_below_one(monkeypatch, env):
    monkeypatch.setenv("NETCHRONO_JOBS", env)
    with pytest.raises(InvalidConfigError, match="NETCHRONO_JOBS"):
        default_jobs()


def test_default_jobs_reads_the_env(monkeypatch):
    monkeypatch.setenv("NETCHRONO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.delenv("NETCHRONO_JOBS")
    assert default_jobs() >= 1


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
    ([0, 2, 1], [[0, 1, 2]], ValueError),                      # labels not ascending
    ([0, 1, 1], [[0, 1, 2]], ValueError),                      # labels repeated
])
def test_pairwise_digraph_rejects_bad_position_arrays(labels, positions, error):
    with pytest.raises(error):
        pairwise_digraph(labels, np.array(positions))


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
    dg = digraph([0, 1, 2], {(0, 1): 0.9, (1, 2): 0.8, (2, 0): 0.55})
    out = break_cycles(dg)
    assert sorted(edge_map(out).items()) == [((0, 1), 0.9), ((1, 2), 0.8)]


def test_break_cycles_acyclic_unchanged():
    dg = digraph([0, 1, 2], {(0, 1): 0.9, (1, 2): 0.8})
    assert break_cycles(dg) == dg


def test_break_cycles_two_disjoint_cycles():
    dg = digraph(
        [0, 1, 2, 3], {(0, 1): 0.6, (1, 0): 0.7, (2, 3): 0.55, (3, 2): 0.9})
    out = break_cycles(dg)
    assert sorted(edge_map(out).items()) == [((1, 0), 0.7), ((3, 2), 0.9)]


def test_break_cycles_orders_split_weights_by_float_value():
    # Count 33 of 50 on every edge of the 3-cycle 0 -> 1 -> 2 -> 0, but the
    # pair (0, 2) has its min label second, so its weight is formed as
    # 1 - 17/50, one ulp below 33/50: that edge, not (0, 1), is the lightest.
    orders = [[0, 1, 2]] * 16 + [[1, 2, 0]] * 17 + [[2, 0, 1]] * 16 + [[0, 2, 1]]
    dg = pairwise_digraph(*list_positions(orders))
    assert sorted(edge_map(dg).items()) == [((0, 1), 0.66), ((1, 2), 0.66), ((2, 0), 0.6599999999999999)]
    out = break_cycles(dg)
    assert sorted(edge_map(out).items()) == [((0, 1), 0.66), ((1, 2), 0.66)]
    labels, src, dst, w = dg.arrays()
    keep = oracle_break_cycles(len(labels), src, dst, w)
    assert np.array_equal(out.arrays()[1], src[keep])
    assert np.array_equal(out.arrays()[2], dst[keep])


def brute_break_cycles(vertices, edges):
    """Literal loop: while a cycle exists, delete the min-(weight, src, dst) edge."""
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
                w = rng.choice([0.5, 0.52, 0.6, 0.7, 0.8, 0.9, 1.0])
                if rng.random() < 0.5:
                    edges[(u, v)] = w
                else:
                    edges[(v, u)] = w
                if rng.random() < 0.25:
                    a, b = (v, u) if (u, v) in edges else (u, v)
                    edges[(a, b)] = rng.choice([0.5, 0.6, 0.75, 0.95])
        dg = digraph(vertices, edges)
        out = break_cycles(dg)
        assert is_acyclic(out)
        assert set(edge_map(out)) == brute_break_cycles(vertices, edges)


def test_break_cycles_removed_edges_are_weakest():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(3, 10)
        edges = {}
        for u, v in itertools.combinations(range(n), 2):
            w = rng.choice([0.52, 0.6, 0.7, 0.8, 0.9, 1.0])
            if rng.random() < 0.5:
                edges[(u, v)] = w
            else:
                edges[(v, u)] = w
        dg = digraph(range(n), edges)
        out = break_cycles(dg)
        kept = edge_map(out)
        removed = {e: w for e, w in edges.items() if e not in kept}
        if removed and kept:
            # removals follow ascending (weight, src, dst); every removed edge
            # precedes every kept edge in that order
            assert max((w, *e) for e, w in removed.items()) < min((w, *e) for e, w in kept.items())


def test_bin_by_indegree_chain():
    dg = digraph([0, 1, 2], {(0, 1): 0.9, (1, 2): 0.8})
    assert [set(b) for b in bin_by_indegree(dg).bins] == [{0}, {1}, {2}]


def test_bin_by_indegree_diamond():
    dg = digraph(
        [0, 1, 2, 3], {(0, 1): 0.9, (0, 2): 0.9, (1, 3): 0.9, (2, 3): 0.9})
    assert [set(b) for b in bin_by_indegree(dg).bins] == [{0}, {1, 2}, {3}]


def test_bin_by_indegree_edgeless():
    dg = digraph([5, 7, 9], {})
    assert [set(b) for b in bin_by_indegree(dg).bins] == [{5, 7, 9}]


def test_bin_by_indegree_rejects_cycles():
    for vertices, edges in (
        ([0, 1], {(0, 1): 0.9, (1, 0): 0.8}),  # no source: the peel takes no round
        ([0, 1, 2], {(2, 0): 0.9, (0, 1): 0.9, (1, 0): 0.8}),  # a source feeding a 2-cycle
        ([0, 2], {(2, 0): 0.9, (0, 0): 0.6}),  # a self-loop reached from a source
    ):
        with pytest.raises(CyclicInputError):
            bin_by_indegree(digraph(vertices, edges))


def test_bin_by_indegree_partitions_and_first_bin_holds_sources():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(2, 12)
        order = list(range(n))
        rng.shuffle(order)
        edges = {}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.4:
                edges[(order[i], order[j])] = rng.choice([0.6, 0.8, 1.0])
        dag = digraph(range(n), edges)
        bins = bin_by_indegree(dag)
        assert set().union(*bins.bins) == dag.vertices
        assert sum(len(b) for b in bins.bins) == n
        targets = {v for (_, v) in edges}
        sources = dag.vertices - targets
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


def test_reconstruct_deterministic_across_jobs():
    g, _ = generate_ba(BAConfig(60, 3, 8))
    cfg = PipelineConfig(alpha=6, connections=3, kind=CentralityKind.DEGREE, master_seed=21)
    serial_bins, serial_dg, serial_rank = reconstruct_with_ranking(g, cfg, jobs=1)
    parallel_bins, parallel_dg, parallel_rank = reconstruct_with_ranking(g, cfg, jobs=3)
    assert serial_bins == parallel_bins
    assert serial_dg == parallel_dg
    assert serial_rank == parallel_rank


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_are_rejected(jobs):
    # as `--jobs` and NETCHRONO_JOBS are, rather than read as serial
    with pytest.raises(InvalidConfigError):
        fan_out(abs, [1, 2], jobs)
    g, _ = generate_ba(BAConfig(8, 2, 4))
    cfg = PipelineConfig(alpha=2, connections=2, kind=CentralityKind.DEGREE, master_seed=3)
    with pytest.raises(InvalidConfigError):
        reconstruct_with_ranking(g, cfg, jobs=jobs)


def test_reconstruct_validates_input():
    g, _ = generate_ba(BAConfig(5, 3, 2))
    cfg = PipelineConfig(alpha=2, connections=5, kind=CentralityKind.DEGREE, master_seed=3)
    with pytest.raises(InvalidConfigError):
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
    table = ScoreTable(dict(zip(labels, scores)))
    assert _salted_rank(table, seed).tolist() == oracle_salted_rank(table, oracle_mix64(seed))


def test_salted_rank_ties_zero_signs_and_extreme_labels():
    labels = [0, 1, 2**63 - 1, 2**62 + 5, 12, 2**40, -3]
    table = ScoreTable(dict(zip(labels, [0.0, -0.0, 0.0, -0.0, 0.5, 0.5, 0.5])))
    for seed in (0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15):
        assert _salted_rank(table, seed).tolist() == oracle_salted_rank(table, oracle_mix64(seed))
