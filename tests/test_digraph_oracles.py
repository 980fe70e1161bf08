"""Pairwise digraph, cycle break and in-degree binning against the oracles.

The oracles in `oracles.py` work on raw position arrays and share no code
with `netchrono.graph`; every comparison here is exact: same edges, same
weights bit for bit, same bins.
"""
from __future__ import annotations

import random
from itertools import combinations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netchrono import (
    BAConfig,
    CentralityKind,
    PipelineConfig,
    WeightedDigraph,
    bin_by_indegree,
    break_cycles,
    child_seed,
    generate_ba,
    is_acyclic,
    pairwise_digraph,
    shuffle_vertex_labels,
)
from netchrono.reconstruction import reconstruct_with_ranking

from builders import digraph
from oracles import (
    list_positions,
    oracle_bin_by_indegree,
    oracle_break_cycles,
    oracle_pairwise_digraph,
)

# a few shared levels make weight ties common; floats make them rare
weights = st.one_of(st.sampled_from([0.5, 0.52, 0.6, 0.76, 1.0]),
                    st.floats(min_value=0.5, max_value=1.0))


@st.composite
def digraphs(draw):
    """Digraphs on spread-out labels with self-loops and opposite pairs allowed."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.dictionaries(pairs, weights, max_size=3 * n))
    labels = [3 * i + 1 for i in range(n)]
    return digraph(labels, {(labels[u], labels[v]): w for (u, v), w in edges.items()})


@st.composite
def tournaments(draw):
    """The pipeline's digraph shape: one edge per vertex pair, oriented at
    random, its weight one of 2-4 shared levels, so ties span rows and columns."""
    n = draw(st.integers(min_value=1, max_value=30))
    shared = draw(st.lists(weights, min_size=2, max_size=4, unique=True))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.tuples(st.booleans(), st.sampled_from(shared)),
                          min_size=len(pairs), max_size=len(pairs)))
    labels = [3 * i + 1 for i in range(n)]
    edges = {}
    for (u, v), (forward, w) in zip(pairs, picks):
        edges[(labels[u], labels[v]) if forward else (labels[v], labels[u])] = w
    return digraph(labels, edges)


def assert_matches_oracles(dg: WeightedDigraph) -> list[frozenset[int]]:
    """Check break_cycles and bin_by_indegree on dg; return the oracle's bins."""
    labels, src, dst, w = dg.arrays()
    n = len(labels)
    keep = oracle_break_cycles(n, src, dst, w)
    dag = break_cycles(dg)
    out_labels, out_src, out_dst, out_w = dag.arrays()
    assert np.array_equal(out_labels, labels)
    assert np.array_equal(out_src, src[keep])
    assert np.array_equal(out_dst, dst[keep])
    assert np.array_equal(out_w, w[keep])
    expected = [frozenset(labels[sorted(b)].tolist())
                for b in oracle_bin_by_indegree(n, src[keep], dst[keep])]
    assert list(bin_by_indegree(dag).bins) == expected
    return expected


@settings(max_examples=450, deadline=None)
@given(st.one_of(digraphs(), tournaments()))
# a cycle upstream of a DAG tail that feeds a second cycle: the source peel
# leaves the tail, which lies on no cycle, among a probe's vertices
@example(digraph(range(7), {(0, 1): 0.6, (1, 0): 0.9, (1, 2): 1.0, (2, 3): 1.0,
                             (3, 4): 0.7, (4, 5): 0.8, (5, 3): 0.76, (5, 6): 1.0}))
@example(digraph(range(7), {(0, 1): 0.6, (1, 0): 0.6, (1, 2): 0.6, (2, 3): 0.6,
                             (3, 4): 0.6, (4, 5): 0.6, (5, 3): 0.6, (5, 6): 0.5}))
def test_break_and_bin_match_oracles(dg):
    assert_matches_oracles(dg)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=7),
       alpha=st.one_of(st.integers(1, 60), st.integers(250, 300)),
       same=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_pairwise_digraph_matches_oracle(n, alpha, same, seed):
    # alpha above 255 widens the pair-count dtype; `same` skews counts toward alpha and 0
    rng = random.Random(seed)
    labels = rng.sample(range(100), n)
    base = labels[:]
    orders = []
    for _ in range(alpha):
        order = base[:] if rng.random() < same else rng.sample(labels, n)
        orders.append(order)
    dg = pairwise_digraph(*list_positions(orders))
    for got, want in zip(dg.arrays(), oracle_pairwise_digraph(orders, alpha)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_pipeline_digraph_n1000_matches_oracles():
    g0, truth0 = generate_ba(BAConfig(1000, 3, 1))
    g, _ = shuffle_vertex_labels(g0, truth0, child_seed(1, 0))
    cfg = PipelineConfig(alpha=50, connections=3, kind=CentralityKind.DEGREE, master_seed=1)
    bins, dg, _ = reconstruct_with_ranking(g, cfg, jobs=1)
    assert not is_acyclic(dg)
    assert list(bins.bins) == assert_matches_oracles(dg)
