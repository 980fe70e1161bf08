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
from netchrono.errors import NetchronoError, NotAPartitionError, SelfLoopError, UnknownVertexError
from netchrono.graph import _level_counts
from netchrono.reconstruction import pairwise_digraph

from builders import adjacency, digraph, graph
from oracles import oracle_csr_arrays, random_graph


def test_from_edge_list_path():
    g = from_edge_list([(0, 1), (1, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert adjacency(g) == {0: {1}, 1: {0, 2}, 2: {1}}


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


@pytest.mark.parametrize("pairs, match", [
    ([(0, 2**64)], "outside the int64 range"),
    ([(0, 1), (-2**63 - 1, 2)], "outside the int64 range"),
    ([(0, 1.9)], "not an integer"),
    ([(0, 2.0)], "not an integer"),
    ([(0, "1")], "not an integer"),
])
def test_from_edge_list_rejects_labels_it_cannot_store(pairs, match):
    # np.fromiter would overflow on the first two and truncate 1.9 to 1
    with pytest.raises(NetchronoError, match=match):
        from_edge_list(pairs)


def test_from_edge_list_keeps_the_int64_extremes():
    labels, _, _ = from_edge_list([(-2**63, 2**63 - 1)]).csr_arrays()
    assert labels.tolist() == [-2**63, 2**63 - 1]


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
        assert adjacency(h) == {u: nbrs - drop for u, nbrs in adjacency(g).items()
                                if u not in drop}


def test_is_acyclic_examples():
    chain = digraph([0, 1, 2], {(0, 1): 9, (1, 2): 8}, 10)
    assert is_acyclic(chain)
    two_cycle = digraph([0, 1], {(0, 1): 9, (1, 0): 8}, 10)
    assert not is_acyclic(two_cycle)
    # a source feeding a 2-cycle, and a self-loop reached from a source:
    # the peel takes the source and stops
    fed_cycle = digraph([0, 1, 2], {(0, 1): 9, (1, 2): 8, (2, 1): 7}, 10)
    assert not is_acyclic(fed_cycle)
    fed_loop = digraph([0, 1], {(0, 1): 9, (1, 1): 6}, 10)
    assert not is_acyclic(fed_loop)
    assert is_acyclic(digraph([], {}, 10))


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
def test_level_counts_match_bincount(n):
    # 256 rows are counted at a time: an empty matrix, one row, and block edges
    counts = np.random.default_rng(n).integers(0, 7, size=(n, n), dtype=np.uint8)
    assert np.array_equal(_level_counts(counts, 6), np.bincount(counts.ravel(), minlength=7)[1:])


def test_is_acyclic_iff_singleton_sccs():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 10)
        edges = {}
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.2:
                    edges[(u, v)] = 3
        dg = digraph(range(n), edges, 4)
        assert is_acyclic(dg) == nx.is_directed_acyclic_graph(nx.DiGraph(list(edges)))


def test_weighted_digraph_accessors():
    dg = digraph([3, 1, 2], {(1, 3): 3, (2, 1): 5}, 5)
    assert dg.vertices == {1, 2, 3}
    assert dg.edge_count == 2
    labels, src, dst, w = dg.arrays()
    assert labels.tolist() == [1, 2, 3]
    assert (src.tolist(), dst.tolist(), w.tolist()) == ([0, 1], [2, 0], [0.6, 1.0])
    assert dg.matrix()[1].tolist() == [[0, 0, 3], [5, 0, 0], [0, 0, 0]]
    assert dg.matrix()[2] == 5


def test_weighted_digraph_equality_compares_the_stored_form():
    dg = digraph([0, 1, 2], {(0, 1): 6, (2, 1): 10}, 10)
    assert dg == digraph([2, 1, 0], {(2, 1): 10, (0, 1): 6}, 10)
    assert dg != digraph([0, 1, 2], {(0, 1): 6, (2, 1): 9}, 10)
    assert dg != digraph([0, 1, 3], {(0, 1): 6, (3, 1): 10}, 10)
    # the same labels and counts under another alpha are another digraph,
    # and so are equal weights: 3 lists of 5 are not 6 of 10
    labels, counts, _ = dg.matrix()
    assert dg != WeightedDigraph._from_counts(labels.copy(), counts.copy(), 11)
    half = digraph([0, 1], {(0, 1): 3}, 5)
    assert half.arrays()[3].tolist() == digraph([0, 1], {(0, 1): 6}, 10).arrays()[3].tolist()
    assert half != digraph([0, 1], {(0, 1): 6}, 10)


def test_is_acyclic_sets_no_attribute():
    dg = digraph([0, 1, 2], {(0, 1): 9, (1, 2): 8, (2, 0): 7}, 10)
    assert WeightedDigraph.__slots__ == ("_labels", "_counts", "_alpha")
    assert not hasattr(dg, "__dict__")
    before = [getattr(dg, name) for name in WeightedDigraph.__slots__]
    assert not is_acyclic(dg)
    assert all(a is b for a, b in zip(before, (getattr(dg, n) for n in WeightedDigraph.__slots__)))
    assert not any(a.flags.writeable for a in dg.matrix()[:2])


def test_weighted_digraph_has_no_edge_map_constructor():
    # `_from_counts` is the one builder: the pipeline writes the count matrix
    with pytest.raises(TypeError):
        WeightedDigraph([0, 1], {(0, 1): 0.9})


def test_undirected_graph_has_no_adjacency_constructor():
    # `_from_csr` is the one builder: every graph is built as CSR arrays
    with pytest.raises(TypeError):
        UndirectedGraph({0: [1], 1: [0]})


def test_csr_arrays_match_per_row_build():
    rng = random.Random(17)
    maps = [{}, {9: set()}, {5: {2}, 2: {5}}]
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 60), rng.uniform(0.0, 0.3))
        # non-contiguous labels in an order unrelated to the positions
        relabel = dict(zip(sorted(g.vertices), rng.sample(range(10 ** 6), g.vertex_count)))
        maps.append({relabel[v]: {relabel[w] for w in nbrs} for v, nbrs in adjacency(g).items()})
    assert from_edge_list([(5, 2)]) == graph(maps[2])
    for adj in maps:
        got = graph(adj).csr_arrays()
        want = oracle_csr_arrays(adj)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)


def test_chronology_rejects_duplicates():
    with pytest.raises(NotAPartitionError, match="duplicate"):
        Chronology([1, 2, 1])


@pytest.mark.parametrize("order", [[0.5, 1.5], [1.0, 2.0], ["3", "4"], [1, None],
                                   np.array([0.0, 1.0])])
def test_chronology_rejects_labels_that_are_not_integers(order):
    # int() would read 0.5 as 0 and "3" as 3
    with pytest.raises(NetchronoError, match="not an integer"):
        Chronology(order)


@pytest.mark.parametrize("build", [
    lambda labels: Chronology(labels),
    lambda labels: from_edge_list([labels]),
    lambda labels: pairwise_digraph(labels, np.array([[0, 1], [1, 0]])),
    lambda labels: remove_vertices(from_edge_list([(0, 1), (1, 2), (2, 3)]), labels),
], ids=["Chronology", "from_edge_list", "pairwise_digraph", "remove_vertices"])
@pytest.mark.parametrize("labels", [[True, 2], [False, True], [1.9, 2], ["2", 3]])
def test_bool_labels_are_rejected(build, labels):
    # bool is an Integral, so a type check alone reads True as label 1; and
    # remove_vertices read each label with int(), so 1.9 removed vertex 1 and "2" vertex 2
    with pytest.raises(NetchronoError, match="is not an integer"):
        build(labels)


def test_chronology_reads_integral_labels_from_any_iterable():
    assert Chronology(v for v in [4, 2, 7]).order == (4, 2, 7)
    got = Chronology(np.array([4, 2, 7], dtype=np.uint64)).order
    assert got == (4, 2, 7) and all(type(v) is int for v in got)
    assert Chronology(range(3, 0, -1)).order == (3, 2, 1)
    assert Chronology([2**63 - 1, np.int64(-2**63)]).order == (2**63 - 1, -2**63)
    # int64 like every other label: Chronology([2**63]) was written to a file no reader takes
    for order in ([2**63], [np.uint64(2**63 + 5)], [0, 1, 2, 2**70], [-2**63 - 1],
                  range(2**63 - 2, 2**63 + 1), range(-2**63 - 1, 0)):
        with pytest.raises(NetchronoError, match="outside the int64 range"):
            Chronology(order)


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
    g = graph({v: list(nxg[v]) for v in labels})

    assert g.vertices == frozenset(nxg) and g.vertex_count == nxg.number_of_nodes()
    assert g.edge_count == nxg.number_of_edges()
    assert list(g.edges()) == _canonical_edges(nxg)
    assert adjacency(g) == {v: frozenset(nxg[v]) for v in labels}
    for stranger in (min(labels) - 1, max(labels) + 1, 2**70):
        with pytest.raises(UnknownVertexError):
            remove_vertices(g, [stranger])

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
        expected = graph({v: list(touched[v]) for v in touched})
        assert h == expected and hash(h) == hash(expected)
        assert (h == g) == (touched.number_of_nodes() == len(labels))

    drop = data.draw(st.sets(ends))
    sub = remove_vertices(g, drop)
    kept = nxg.subgraph(set(labels) - drop)
    assert sub.vertices == frozenset(kept) and sub.edge_count == kept.number_of_edges()
    assert list(sub.edges()) == _canonical_edges(kept)
    rebuilt = graph({v: list(kept[v]) for v in kept})
    assert sub == rebuilt and hash(sub) == hash(rebuilt)
