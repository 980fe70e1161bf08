"""Eigenvector scores against the power iteration as first written.

The first-written kernel in `oracles.py` fixes every iterate's bits: the
neighbour sum order of each product, the norm, and the step at which
iteration stops.  So the kernel must match it bit for bit, and raise
where it raises, on a graph as one block and on every block of a
block-diagonal union run on that block alone.  Inputs: small hypothesis
graphs (isolated vertices, disconnected and bipartite parts, one and two
vertices) and unions of them, every peeling level differential core
ranking scores on two BA networks, and a large star, on which several
steps move less than TOLERANCE before the residual test passes, as one
block among blocks that converge sooner.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netchrono.centrality
from netchrono import (
    BAConfig,
    CentralityKind,
    UndirectedGraph,
    differential_core_ranking,
    from_edge_list,
    generate_ba,
)
from netchrono.centrality import _level_scores, eigenvector_scores
from netchrono.dcr import _levels
from netchrono.errors import NoConvergenceError

from builders import graph, level_csrs
from oracles import oracle_eigenvector_scores


def assert_bit_identical(indptr: np.ndarray, indices: np.ndarray) -> None:
    try:
        want = oracle_eigenvector_scores(indptr, indices)
    except NoConvergenceError as exc:
        with pytest.raises(NoConvergenceError, match=str(exc)):
            eigenvector_scores(indptr, indices, [len(indptr) - 1])
        return
    got = eigenvector_scores(indptr, indices, [len(indptr) - 1])
    assert got.dtype == want.dtype and np.array_equal(got, want)


def assert_blocks_bit_identical(parts: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """The block kernel on the union of CSR `parts` equals the first-written
    kernel on each part alone, and raises if any part raises."""
    sizes = [len(indptr) - 1 for indptr, _ in parts]
    entries = np.cumsum([0] + [len(indices) for _, indices in parts])
    rows = np.cumsum([0] + sizes)
    indptr = np.concatenate([[0]] + [p[1:] + e for (p, _), e in zip(parts, entries)])
    indices = np.concatenate([i + r for (_, i), r in zip(parts, rows)])
    try:
        wants = [oracle_eigenvector_scores(*part) for part in parts]
    except NoConvergenceError:
        with pytest.raises(NoConvergenceError):
            eigenvector_scores(indptr, indices, sizes)
        return
    got = eigenvector_scores(indptr, indices, sizes)
    assert len(got) == rows[-1]
    for block, want in zip(np.split(got, rows[1:-1]), wants):
        assert block.dtype == want.dtype and np.array_equal(block, want)


@st.composite
def graphs(draw) -> UndirectedGraph:
    """A random part, an optional random bipartite part, isolated vertices."""
    adj: dict[int, set[int]] = {}

    def link(u: int, v: int) -> None:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    n = draw(st.integers(0, 30))
    for v in range(n):
        adj[v] = set()
    for u, v in draw(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80)):
        if u != v and u < n and v < n:
            link(u, v)
    left, right = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    for u in range(left):
        for v in range(right):
            if draw(st.booleans()):
                link(100 + u, 200 + v)
    for v in draw(st.lists(st.integers(300, 320), max_size=4)):
        adj.setdefault(v, set())
    if not adj:
        adj[0] = set()
    return graph(adj)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_random_graphs_match_first_kernel(g):
    _, indptr, indices = g.csr_arrays()
    assert_bit_identical(indptr, indices)


@pytest.mark.parametrize("g", [
    graph({4: []}),
    graph({1: [2], 2: [1]}),
    graph({1: [2], 2: [1], 5: []}),
    from_edge_list([(0, 1), (2, 3)]),
    from_edge_list([(0, 2), (0, 3), (1, 2), (1, 3)]),
])
def test_tiny_graphs_match_first_kernel(g):
    _, indptr, indices = g.csr_arrays()
    assert_bit_identical(indptr, indices)


@pytest.mark.parametrize("n,seed", [(300, 1), (1000, 4)])
def test_every_peeling_level_matches_first_kernel(n, seed):
    g, _ = generate_ba(BAConfig(n, 3, seed))
    _, indptr, indices = g.csr_arrays()
    levels = level_csrs(g)
    assert len(levels) > 5
    for level in levels:
        assert_bit_identical(*level)
    # and as differential core ranking scores them: every level in one union
    batched = _level_scores(CentralityKind.EIGENVECTOR, indptr, indices, _levels(indptr, indices))
    for scores, level in zip(batched, levels, strict=True):
        assert np.array_equal(scores, oracle_eigenvector_scores(*level))


def test_large_star_stops_on_the_residual_like_first_kernel():
    # on K(1, 400) the residual is about 19 times the step, so six steps move
    # less than TOLERANCE before the residual passes: a kernel that stopped
    # on the step size alone would return an earlier iterate
    star = from_edge_list([(0, leaf) for leaf in range(1, 401)])
    _, indptr, indices = star.csr_arrays()
    assert_bit_identical(indptr, indices)


SINGLE = graph({0: []})


@settings(max_examples=150, deadline=None)
@given(st.lists(graphs() | st.just(SINGLE), min_size=1, max_size=6))
@example([SINGLE])
@example([graph({0: [], 1: [], 2: []}), SINGLE, from_edge_list([(0, 1), (2, 3), (3, 4)])])
def test_block_unions_match_first_kernel_per_block(parts):
    # edgeless blocks, isolated vertices, disconnected and single-vertex blocks
    assert_blocks_bit_identical([g.csr_arrays()[1:] for g in parts])


def test_large_star_among_quick_blocks_matches_first_kernel_per_block():
    # the star takes over 200 steps and stops on the residual; the others
    # converge within 50 and stay frozen while it runs
    star = from_edge_list([(0, leaf) for leaf in range(1, 401)])
    path = from_edge_list([(v, v + 1) for v in range(6)])
    parts = [path, star, generate_ba(BAConfig(40, 2, 3))[0], from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)])]
    assert_blocks_bit_identical([g.csr_arrays()[1:] for g in parts])


def test_differential_core_ranking_raises_when_a_level_does_not_converge(monkeypatch):
    g, _ = generate_ba(BAConfig(300, 3, 1))
    monkeypatch.setattr(netchrono.centrality, "MAX_ITERATIONS", 2)
    with pytest.raises(NoConvergenceError, match="within 2 iterations"):
        differential_core_ranking(g, CentralityKind.EIGENVECTOR)
