"""Betweenness against the block Brandes kernel as first written, and networkx.

The first-written kernel in `oracles.py` fixes the floating-point
reduction order (sources one after another within each 256-source
group, then group by group), so scores must match it bit for bit.  The
kernel walks 64-source blocks and carries a group's open sum from block
to block: graphs of more than 64 vertices span several blocks, and those
of more than 256 several groups, with a ragged last block or group.
They are the cases that can show a change of reduction order.  networkx
is an independent second oracle, compared within 1e-9.
"""
from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchrono import (
    BAConfig,
    CentralityKind,
    UndirectedGraph,
    compute,
    from_edge_list,
    generate_ba,
    remove_vertices,
)
from netchrono.centrality import betweenness_scores

from builders import adjacency, graph, level_csrs
from oracles import oracle_brandes_ordered_sums, oracle_csr_arrays


def oracle_scores(g: UndirectedGraph) -> dict[int, float]:
    labels, indptr, indices = oracle_csr_arrays(adjacency(g))
    raw = oracle_brandes_ordered_sums(indptr, indices, len(labels))
    return {int(v): float(raw[i]) / 2.0 for i, v in enumerate(labels)}


def assert_bit_identical(g: UndirectedGraph) -> None:
    got = compute(g, CentralityKind.BETWEENNESS).scores
    want = oracle_scores(g)
    labels = sorted(want)
    assert sorted(got) == labels
    assert np.array_equal(np.array([got[v] for v in labels]), np.array([want[v] for v in labels]))


def assert_kernel_bit_identical(indptr: np.ndarray, indices: np.ndarray) -> None:
    got = betweenness_scores(indptr, indices)
    want = oracle_brandes_ordered_sums(indptr, indices, len(indptr) - 1) / 2.0
    assert got.dtype == want.dtype and np.array_equal(got, want)


def peeling_levels(g: UndirectedGraph, count: int) -> list[UndirectedGraph]:
    """g and its next `count` levels, each dropping every minimum-degree vertex."""
    levels = [g]
    for _ in range(count):
        h = levels[-1]
        labels, indptr, _ = h.csr_arrays()
        degrees = np.diff(indptr)
        levels.append(remove_vertices(h, labels[degrees == degrees.min()].tolist()))
    return levels


def union(*graphs: UndirectedGraph) -> UndirectedGraph:
    adj: dict[int, frozenset[int]] = {}
    for g in graphs:
        adj.update(adjacency(g))
    return graph(adj)


def shifted(g: UndirectedGraph, offset: int) -> UndirectedGraph:
    return graph({v + offset: [w + offset for w in nbrs] for v, nbrs in adjacency(g).items()})


@pytest.mark.parametrize("n", [600, 1000])
def test_ba_and_peeled_levels_match_first_kernel(n):
    g, _ = generate_ba(BAConfig(n, 3, 5))
    for level in peeling_levels(g, 2):
        assert_bit_identical(level)


def test_every_peeling_level_matches_first_kernel():
    g, _ = generate_ba(BAConfig(1000, 3, 1))
    levels = level_csrs(g)
    assert len(levels) > 10
    for level in levels:
        assert_kernel_bit_identical(*level)


def test_complete_graph_matches_first_kernel():
    # the first product reaches every vertex, so no dependency is walked back;
    # 300 sources leave a ragged last block of 44
    g = from_edge_list([(u, v) for u in range(300) for v in range(u + 1, 300)])
    assert_kernel_bit_identical(*g.csr_arrays()[1:])


def test_long_cycle_matches_first_kernel():
    # C(600): about 300 BFS levels per source
    g = from_edge_list([(v, (v + 1) % 600) for v in range(600)])
    assert_kernel_bit_identical(*g.csr_arrays()[1:])


def test_star_with_hub_in_second_block_matches_first_kernel():
    # K(1, 400) with the hub at row 300: in the fifth 64-source block, which
    # opens the second 256-source group
    g = from_edge_list([(300, leaf) for leaf in range(401) if leaf != 300])
    _, indptr, indices = g.csr_arrays()
    assert np.diff(indptr)[300] == 400
    assert_kernel_bit_identical(indptr, indices)


def test_last_block_of_isolated_vertices_matches_first_kernel():
    # rows 512..599 have no edges: their block reaches nothing from any source,
    # so its forward sweep ends on an empty level, not on the count of vertices
    g, _ = generate_ba(BAConfig(512, 3, 6))
    lonely = graph({v: [] for v in range(512, 600)})
    _, indptr, indices = union(g, lonely).csr_arrays()
    assert len(indptr) - 1 == 600 and not np.diff(indptr)[512:].any()
    assert_kernel_bit_identical(indptr, indices)


@pytest.mark.parametrize("n", [63, 64, 65, 256, 257, 320, 513])
def test_block_and_group_boundaries_match_first_kernel(n):
    # 63: one ragged block; 64: one exact block; 65: a one-source block that
    # continues the group; 256: a group closed by a full block; 257: a
    # one-source block that opens a new group; 320 and 513: ragged groups
    g, _ = generate_ba(BAConfig(n, 3, n))
    assert_kernel_bit_identical(*g.csr_arrays()[1:])


def test_middle_block_of_isolated_vertices_matches_first_kernel():
    # rows 64..127 have no edges: that block's forward sweep ends on an empty
    # level, and connected blocks come before and after it in the same group
    a, _ = generate_ba(BAConfig(64, 3, 11))
    b, _ = generate_ba(BAConfig(130, 3, 12))
    lonely = graph({v: [] for v in range(64, 128)})
    _, indptr, indices = union(a, lonely, shifted(b, 128)).csr_arrays()
    degrees = np.diff(indptr)
    assert len(degrees) == 258 and not degrees[64:128].any()
    assert degrees[:64].all() and degrees[128:].all()
    assert_kernel_bit_identical(indptr, indices)


def test_disconnected_graph_matches_first_kernel():
    a, _ = generate_ba(BAConfig(300, 3, 8))
    b, _ = generate_ba(BAConfig(200, 2, 9))
    assert_bit_identical(union(a, shifted(b, 1000)))


def test_isolated_vertices_match_first_kernel():
    g, _ = generate_ba(BAConfig(400, 3, 10))
    # spread the isolated labels through the label order, so they land in every block
    spread = graph({3 * v: [3 * w for w in nbrs] for v, nbrs in adjacency(g).items()})
    lonely = graph({3 * v + 1: [] for v in range(0, 400, 7)})
    assert_bit_identical(union(spread, lonely))


@st.composite
def small_graphs(draw) -> UndirectedGraph:
    labels = draw(st.lists(st.integers(0, 500), min_size=1, max_size=40, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=120))
    adj: dict[int, set[int]] = {v: set() for v in labels}
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return graph(adj)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_random_small_graphs_match_first_kernel(g):
    assert_bit_identical(g)


@pytest.mark.parametrize("n,seed", [(200, 1), (300, 2), (400, 3)])
def test_ba_matches_networkx(n, seed):
    g, _ = generate_ba(BAConfig(n, 3, seed))
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges())
    want = nx.betweenness_centrality(G, normalized=False)
    got = compute(g, CentralityKind.BETWEENNESS).scores
    assert got.keys() == want.keys()
    for v in want:
        assert got[v] == pytest.approx(want[v], abs=1e-9)
