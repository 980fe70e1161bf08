import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchrono import (
    Chronology,
    UndirectedGraph,
    WeightedDigraph,
    from_edge_list,
    is_acyclic,
    remove_vertices,
)
from netchrono.errors import NetchronoError, SelfLoopError, UnknownVertexError
from netchrono.graph import _level_counts, _source_rounds

from builders import digraph
from oracles import oracle_csr_arrays, random_graph


def test_from_edge_list_path():
    g = from_edge_list([(0, 1), (1, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.neighbors(1) == {0, 2}


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list([(0, 1), (1, 0)])
    assert g.vertex_count == 2
    assert g.edge_count == 1


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        from_edge_list([(3, 3)])


@pytest.mark.parametrize("pairs", [[(0, 1, 2), (3,)], [(0, 1), (2, 3, 4)], [(5,)], [()]])
def test_from_edge_list_rejects_items_that_are_not_pairs(pairs):
    # a flat reading would take [(0, 1, 2), (3,)] as the edges (0, 1) and (2, 3)
    with pytest.raises(NetchronoError, match="not a pair"):
        from_edge_list(pairs)


def test_from_edge_list_order_independent():
    rng = random.Random(7)
    for _ in range(30):
        pairs = [(rng.randrange(12), rng.randrange(12)) for _ in range(20)]
        pairs = [(u, v) for u, v in pairs if u != v]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        reversed_pairs = [(v, u) for u, v in pairs]
        assert from_edge_list(pairs) == from_edge_list(shuffled) == from_edge_list(reversed_pairs)


def test_remove_vertices_triangle():
    g = from_edge_list([(0, 1), (1, 2), (0, 2)])
    h = remove_vertices(g, {2})
    assert h.vertices == {0, 1}
    assert h.edge_count == 1
    # original untouched
    assert g.vertex_count == 3 and g.edge_count == 3


def test_remove_vertices_empty_set_is_identity():
    g = from_edge_list([(0, 1), (1, 2), (0, 2)])
    assert remove_vertices(g, set()) == g


def test_remove_vertices_path_middle():
    g = from_edge_list([(0, 1), (1, 2)])
    h = remove_vertices(g, {1})
    assert h.vertices == {0, 2}
    assert h.edge_count == 0


def test_remove_vertices_unknown():
    g = from_edge_list([(0, 1)])
    with pytest.raises(UnknownVertexError):
        remove_vertices(g, {5})


def test_remove_vertices_induced_subgraph_property():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, 14, 0.25)
        drop = {v for v in g.vertices if rng.random() < 0.4}
        h = remove_vertices(g, drop)
        assert h.vertices == g.vertices - drop
        for u in h.vertices:
            assert h.neighbors(u) == g.neighbors(u) - drop


def test_adjacency_must_be_symmetric():
    with pytest.raises(ValueError):
        UndirectedGraph({0: [1], 1: []})


def test_is_acyclic_examples():
    chain = digraph([0, 1, 2], {(0, 1): 0.9, (1, 2): 0.8})
    assert is_acyclic(chain)
    two_cycle = digraph([0, 1], {(0, 1): 0.9, (1, 0): 0.8})
    assert not is_acyclic(two_cycle)
    # a source feeding a 2-cycle, and a self-loop reached from a source:
    # the peel takes the source and stops
    fed_cycle = digraph([0, 1, 2], {(0, 1): 0.9, (1, 2): 0.8, (2, 1): 0.7})
    assert not is_acyclic(fed_cycle)
    fed_loop = digraph([0, 1], {(0, 1): 0.9, (1, 1): 0.6})
    assert not is_acyclic(fed_loop)
    assert is_acyclic(digraph([], {}))


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
def test_level_counts_match_bincount(n):
    # 256 rows are counted at a time: an empty matrix, one row, and block edges
    codes = np.random.default_rng(n).integers(0, 7, size=(n, n), dtype=np.uint8)
    assert np.array_equal(_level_counts(codes, 6), np.bincount(codes.ravel(), minlength=7)[1:])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 12), data=st.data())
def test_row_subset_peel_matches_principal_submatrix(n, data):
    """The peel of `rows` out of a full-width row gather is the square peel
    of the principal submatrix over them: same rounds, same leftover mask
    (random bool matrices, self-loops included)."""
    cells = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    edge = np.array(cells, dtype=bool).reshape(n, n)
    rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
                          ) if n else np.empty(0, dtype=np.int64)
    rounds, left = _source_rounds(edge.take(rows, 0), rows)
    want_rounds, want_left = _source_rounds(edge[np.ix_(rows, rows)])
    assert len(rounds) == len(want_rounds)
    assert all(np.array_equal(a, b) for a, b in zip(rounds, want_rounds))
    assert np.array_equal(left, want_left)


def test_is_acyclic_iff_singleton_sccs():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 10)
        edges = {}
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.2:
                    edges[(u, v)] = 0.75
        dg = digraph(range(n), edges)
        assert is_acyclic(dg) == nx.is_directed_acyclic_graph(nx.DiGraph(list(edges)))


def test_weighted_digraph_accessors():
    dg = digraph([3, 1, 2], {(1, 3): 0.6, (2, 1): 1.0})
    assert dg.vertices == {1, 2, 3}
    assert dg.edge_count == 2
    labels, src, dst, w = dg.arrays()
    assert labels.tolist() == [1, 2, 3]
    assert (src.tolist(), dst.tolist(), w.tolist()) == ([0, 1], [2, 0], [0.6, 1.0])


def test_weighted_digraph_has_no_edge_map_constructor():
    # `_from_codes` is the one builder: the pipeline writes the code matrix
    with pytest.raises(TypeError):
        WeightedDigraph([0, 1], {(0, 1): 0.9})


def test_csr_arrays_match_per_row_build():
    rng = random.Random(17)
    graphs = [UndirectedGraph({}), UndirectedGraph({9: []}), from_edge_list([(5, 2)])]
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 60), rng.uniform(0.0, 0.3))
        # non-contiguous labels in an order unrelated to the positions
        relabel = dict(zip(sorted(g.vertices), rng.sample(range(10 ** 6), g.vertex_count)))
        graphs.append(UndirectedGraph(
            {relabel[v]: [relabel[w] for w in g.neighbors(v)] for v in g.vertices}))
    for g in graphs:
        got = g.csr_arrays()
        want = oracle_csr_arrays(g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)


def test_chronology_rejects_duplicates():
    with pytest.raises(ValueError):
        Chronology([1, 2, 1])


def test_chronology_positions():
    c = Chronology([4, 2, 7])
    assert c.positions() == {4: 0, 2: 1, 7: 2}
    assert list(c) == [4, 2, 7]
    assert len(c) == 3


def _canonical_edges(nxg: nx.Graph) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in nxg.edges)


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=12, unique=True),
       data=st.data())
def test_csr_graph_matches_networkx(labels, data):
    """Every accessor of the CSR graph, equality and hash across edge orders,
    and `remove_vertices`, against networkx on scattered int64 labels with
    repeated and reversed pairs and isolated vertices."""
    ends = st.sampled_from(labels)
    pairs = data.draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), max_size=30))
    nxg = nx.Graph()
    nxg.add_nodes_from(labels)
    nxg.add_edges_from(pairs)
    g = UndirectedGraph({v: list(nxg[v]) for v in labels})

    assert g.vertices == frozenset(nxg) and g.vertex_count == nxg.number_of_nodes()
    assert g.edge_count == nxg.number_of_edges()
    assert list(g.edges()) == _canonical_edges(nxg)
    for v in labels:
        assert g.neighbors(v) == frozenset(nxg[v]) and g.degree(v) == nxg.degree[v]
    for stranger in (min(labels) - 1, max(labels) + 1, 2**70):
        with pytest.raises(UnknownVertexError):
            g.neighbors(stranger)

    want = nx.to_scipy_sparse_array(nxg, nodelist=sorted(labels), format="csr")
    want.sort_indices()
    got_labels, got_indptr, got_indices = g.csr_arrays()
    assert got_labels.tolist() == sorted(labels)
    assert np.array_equal(got_indptr, want.indptr) and np.array_equal(got_indices, want.indices)

    # the same edges in another order and orientation, repeated: an equal graph
    if pairs:
        shuffled = data.draw(st.permutations(pairs + [(v, u) for u, v in pairs]))
        h = from_edge_list(shuffled)
        touched = nxg.subgraph({v for pair in pairs for v in pair})
        expected = UndirectedGraph({v: list(touched[v]) for v in touched})
        assert h == expected and hash(h) == hash(expected)
        assert (h == g) == (touched.number_of_nodes() == len(labels))

    drop = data.draw(st.sets(ends))
    sub = remove_vertices(g, drop)
    kept = nxg.subgraph(set(labels) - drop)
    assert sub.vertices == frozenset(kept) and sub.edge_count == kept.number_of_edges()
    assert list(sub.edges()) == _canonical_edges(kept)
    rebuilt = UndirectedGraph({v: list(kept[v]) for v in kept})
    assert sub == rebuilt and hash(sub) == hash(rebuilt)
