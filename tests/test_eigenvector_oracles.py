"""Eigenvector scores against the power iteration as first written.

The first-written kernel in `oracles.py` fixes every iterate's bits: the
neighbour sum order of each product, the norm, and the step at which
iteration stops.  So the kernel must match it bit for bit, and raise
where it raises.  Inputs: small hypothesis graphs (isolated vertices,
disconnected and bipartite parts, one and two vertices), every peeling
level differential core ranking scores on two BA networks, and a large
star, on which several steps move less than TOLERANCE before the
residual test passes.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchrono import BAConfig, UndirectedGraph, from_edge_list, generate_ba
from netchrono.centrality import eigenvector_scores
from netchrono.dcr import _peel
from netchrono.errors import NoConvergenceError
from netchrono.graph import _induced_csr

from builders import graph
from oracles import oracle_eigenvector_scores


def assert_bit_identical(indptr: np.ndarray, indices: np.ndarray) -> None:
    try:
        want = oracle_eigenvector_scores(indptr, indices)
    except NoConvergenceError as exc:
        with pytest.raises(NoConvergenceError, match=str(exc)):
            eigenvector_scores(indptr, indices)
        return
    got = eigenvector_scores(indptr, indices)
    assert got.dtype == want.dtype and np.array_equal(got, want)


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
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    levels = []

    def record(alive, degrees):
        level = _induced_csr(indptr, indices, rows, alive)
        levels.append(level)
        return eigenvector_scores(*level)

    _peel(indptr, indices, record)
    assert len(levels) > 5
    for level in levels:
        assert_bit_identical(*level)


def test_large_star_stops_on_the_residual_like_first_kernel():
    # on K(1, 400) the residual is about 19 times the step, so six steps move
    # less than TOLERANCE before the residual passes: a kernel that stopped
    # on the step size alone would return an earlier iterate
    star = from_edge_list([(0, leaf) for leaf in range(1, 401)])
    _, indptr, indices = star.csr_arrays()
    assert_bit_identical(indptr, indices)
