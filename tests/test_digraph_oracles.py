"""Pairwise digraph, cycle break and in-degree binning against the oracles.

The oracles in `oracles.py` work on raw position arrays and exact weights
max(k, alpha - k) / alpha, and share no code with `netchrono.graph`; every
comparison here is exact: same edges, same weights bit for bit, same bins.
"""
from __future__ import annotations

import math
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
from netchrono import reconstruction
from netchrono.reconstruction import reconstruct_with_ranking

from builders import digraph
from oracles import (
    list_positions,
    oracle_bin_by_indegree,
    oracle_break_cycles,
    oracle_pairwise_digraph,
)

# a small alpha makes count ties common, a large one makes them rare; above
# 255 the counts are stored as uint16
alphas = st.one_of(st.integers(1, 12), st.integers(250, 300))


def majorities(alpha: int):
    """The counts an edge can carry: ceil(alpha/2)..alpha."""
    return st.integers((alpha + 1) // 2, alpha)


@st.composite
def digraphs(draw):
    """Digraphs on spread-out labels with self-loops and opposite pairs allowed."""
    n = draw(st.integers(min_value=1, max_value=10))
    alpha = draw(alphas)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.dictionaries(pairs, majorities(alpha), max_size=3 * n))
    labels = [3 * i + 1 for i in range(n)]
    return digraph(labels, {(labels[u], labels[v]): m for (u, v), m in edges.items()}, alpha)


@st.composite
def tournaments(draw):
    """The pipeline's digraph shape: one edge per vertex pair, oriented at
    random, its count one of 1-4 shared counts, so ties span rows and columns."""
    n = draw(st.integers(min_value=1, max_value=30))
    alpha = draw(alphas)
    shared = draw(st.lists(majorities(alpha), min_size=1, max_size=4, unique=True))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.tuples(st.booleans(), st.sampled_from(shared)),
                          min_size=len(pairs), max_size=len(pairs)))
    labels = [3 * i + 1 for i in range(n)]
    edges = {}
    for (u, v), (forward, m) in zip(pairs, picks):
        edges[(labels[u], labels[v]) if forward else (labels[v], labels[u])] = m
    return digraph(labels, edges, alpha)


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
@example(digraph(range(7), {(0, 1): 30, (1, 0): 45, (1, 2): 50, (2, 3): 50,
                             (3, 4): 35, (4, 5): 40, (5, 3): 38, (5, 6): 50}, 50))
@example(digraph(range(7), {(0, 1): 6, (1, 0): 6, (1, 2): 6, (2, 3): 6,
                             (3, 4): 6, (4, 5): 6, (5, 3): 6, (5, 6): 5}, 10))
# alpha 1 and 2, whose lowest count is 1
@example(digraph(range(3), {(0, 1): 1, (1, 2): 1, (2, 0): 1}, 1))
@example(digraph(range(4), {(0, 1): 2, (1, 2): 1, (2, 0): 2, (2, 3): 1, (3, 2): 1}, 2))
# the cut on the very last key: a count-alpha self-loop on the last vertex, so every edge goes
@example(digraph(range(4), {(0, 1): 3, (1, 0): 2, (1, 2): 3, (3, 3): 3}, 3))
# probes in row 2 after the cyclic set has shrunk to {2}: their cut columns 0 and 1
# are no longer in it, so the self-loop's column must stay right of the cut
@example(digraph(range(3), {(1, 2): 4, (2, 0): 4, (2, 1): 3, (2, 2): 5}, 5))
# the cut on the first edge of row 0, the lowest key an edge can carry
@example(digraph(range(3), {(0, 0): 3, (0, 1): 3, (1, 2): 4, (2, 1): 5}, 5))
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


def test_pipeline_digraph_n1000_matches_oracles(monkeypatch):
    g0, truth0 = generate_ba(BAConfig(1000, 3, 1))
    g, _ = shuffle_vertex_labels(g0, truth0, child_seed(1, 0))
    cfg = PipelineConfig(alpha=50, connections=3, kind=CentralityKind.DEGREE, master_seed=1)
    bins, dg, _ = reconstruct_with_ranking(g, cfg, jobs=1)
    assert not is_acyclic(dg)
    assert list(bins.bins) == assert_matches_oracles(dg)
    # one binary search over the edge keys of the counts 25..50: a peel per probe,
    # so a linear scan over counts or edges would show as many more
    probes = []
    peel = reconstruction._source_rounds
    monkeypatch.setattr(reconstruction, "_source_rounds",
                        lambda *a: probes.append(None) or peel(*a))
    break_cycles(dg)
    keys = (50 + 1 - 25) * 1000 ** 2
    assert len(probes) <= math.ceil(math.log2(keys + 1))
