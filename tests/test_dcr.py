import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netchrono import (
    BAConfig,
    CentralityKind,
    ScoreTable,
    UndirectedGraph,
    differential_core_ranking,
    from_edge_list,
    generate_ba,
    rank_descending,
    remove_vertices,
)
from netchrono.centrality import _union_csr, degree_scores
from netchrono.errors import InvalidConfigError, TooSmallError
from netchrono.dcr import _dcm, _levels

from builders import adjacency, graph, level_csrs, score_table
from oracles import oracle_differential_core_ranking, random_graph

PATH3 = from_edge_list([(0, 1), (1, 2)])
TRIANGLE = from_edge_list([(0, 1), (1, 2), (0, 2)])


def test_hand_oracle_path():
    # level 0 degree centralities (0.5, 1.0, 0.5); endpoints removed at
    # their value, the middle vertex survives to an isolated level worth 0
    table = differential_core_ranking(PATH3, CentralityKind.DEGREE)
    assert table.scores == {0: 0.5, 1: 1.0, 2: 0.5}


def test_hand_oracle_triangle():
    table = differential_core_ranking(TRIANGLE, CentralityKind.DEGREE)
    assert table.scores == {0: 1.0, 1: 1.0, 2: 1.0}


def test_single_vertex():
    g = graph({4: []})
    for kind in CentralityKind:
        assert differential_core_ranking(g, kind).scores == {4: 0.0}


def test_empty_graph_rejected():
    with pytest.raises(TooSmallError):
        differential_core_ranking(graph({}), CentralityKind.DEGREE)


def test_kind_that_is_not_a_centrality_kind_rejected():
    # a kind string fell through to betweenness
    with pytest.raises(InvalidConfigError, match="CentralityKind"):
        differential_core_ranking(TRIANGLE, "degree")


def test_nonnegative_and_covers_all_vertices():
    rng = random.Random(23)
    for kind in CentralityKind:
        for _ in range(8):
            g = random_graph(rng, rng.randint(1, 15), 0.3)
            table = differential_core_ranking(g, kind)
            assert set(table.scores) == g.vertices
            assert all(s >= 0.0 for s in table.scores.values())


def _peel_table(g, level_scores) -> ScoreTable:
    """DCM of g from its level list, each level scored by an injected measure
    of (alive positions, their degrees within the level)."""
    labels, indptr, indices = g.csr_arrays()
    levels = _levels(indptr, indices)
    scores = [level_scores(live, degrees) for live, degrees in levels]
    return ScoreTable(labels, _dcm(len(labels), levels, scores))


def test_removal_term_lower_bound():
    # DCM of a vertex is at least its centrality at the level it is peeled
    rng = random.Random(29)
    for _ in range(10):
        g = random_graph(rng, 12, 0.3)
        if g.vertex_count == 0:
            continue
        labels = g.csr_arrays()[0]
        seen_levels = []

        def spy(live, degrees):
            scores = degree_scores(degrees)
            level = labels[live].tolist()
            seen_levels.append((frozenset(level), dict(zip(level, scores.tolist()))))
            return scores

        table = _peel_table(g, spy)
        removal_value = {}
        for i, (verts, scores) in enumerate(seen_levels):
            nxt = seen_levels[i + 1][0] if i + 1 < len(seen_levels) else frozenset()
            for v in verts - nxt:
                removal_value[v] = abs(scores[v])
        for v in g.vertices:
            assert table.scores[v] >= removal_value[v] - 1e-12


def test_positive_scaling_preserves_ranking():
    rng = random.Random(41)
    for alpha in (0.25, 7.0):
        for _ in range(6):
            g = random_graph(rng, 12, 0.35)
            if g.vertex_count == 0:
                continue
            base = differential_core_ranking(g, CentralityKind.DEGREE)

            def scaled(live, degrees, _a=alpha):
                return _a * degree_scores(degrees)

            other = _peel_table(g, scaled)
            for v in g.vertices:
                assert other.scores[v] == pytest.approx(alpha * base.scores[v], rel=1e-12)
            assert rank_descending(base).tolist() == rank_descending(other).tolist()


def test_rank_descending_examples():
    assert rank_descending(score_table({0: 0.5, 1: 1.0, 2: 0.5})).tolist() == [1, 0, 2]
    assert rank_descending(score_table({3: 1.0, 1: 1.0, 2: 1.0})).tolist() == [1, 2, 3]
    assert rank_descending(score_table({})).tolist() == []
    assert rank_descending(score_table({3: 1.0})).dtype == np.int64


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(
    st.integers(-2**63, 2**63 - 1) | st.sampled_from([-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]),
    st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(allow_nan=False),
    max_size=30,
))
@example({2**63 - 1: 0.0, -2**63: -0.0, 0: 0.0, -1: -0.0, 7: 2.0, -7: 2.0})
def test_rank_descending_matches_sorted_key(scores):
    # 0.0 and -0.0 tie, so they order by label
    want = sorted(scores, key=lambda v: (-scores[v], v))
    assert rank_descending(score_table(scores)).tolist() == want


def _assert_bit_equal_dcm(g, kind):
    got = differential_core_ranking(g, kind).scores
    expected = oracle_differential_core_ranking(g, kind)
    assert set(got) == set(expected)
    labels = sorted(expected)
    a = np.array([got[v] for v in labels])
    b = np.array([expected[v] for v in labels])
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", list(CentralityKind))
def test_ba_matches_copying_peel(kind):
    g, _ = generate_ba(BAConfig(1000, 3, 8))
    _assert_bit_equal_dcm(g, kind)


def _scattered(rng: random.Random, g: UndirectedGraph) -> UndirectedGraph:
    """g relabeled onto sparse, non-contiguous labels, plus a few isolated vertices."""
    labels = rng.sample(range(10**9), g.vertex_count + 3)
    names = dict(zip(sorted(g.vertices), labels))
    adj = {names[v]: [names[w] for w in nbrs] for v, nbrs in adjacency(g).items()}
    for extra in labels[g.vertex_count:]:
        adj[extra] = []
    return graph(adj)


@pytest.mark.parametrize("kind", list(CentralityKind))
def test_random_graphs_match_copying_peel(kind):
    rng = random.Random(53)
    for _ in range(12):
        parts = [random_graph(rng, rng.randint(1, 25), rng.uniform(0.05, 0.4))
                 for _ in range(rng.randint(1, 3))]
        adj = {}
        for k, part in enumerate(parts):  # disjoint union: disconnected parts
            adj.update({1000 * k + v: [1000 * k + w for w in nbrs]
                        for v, nbrs in adjacency(part).items()})
        g = graph(adj)
        _assert_bit_equal_dcm(g, kind)
        _assert_bit_equal_dcm(_scattered(rng, g), kind)


@pytest.mark.parametrize("kind", list(CentralityKind))
def test_tiny_graphs_match_copying_peel(kind):
    for g in (graph({7: []}), graph({3: [9], 9: [3]}),
              graph({2: [], 5: [], 11: []}), PATH3, TRIANGLE):
        _assert_bit_equal_dcm(g, kind)


def test_induced_csr_equals_csr_of_copied_subgraph():
    # the expected subgraph is networkx's, which shares no code with `_csr_layout`
    rng = random.Random(61)
    graphs = [generate_ba(BAConfig(300, 3, 2))[0]]
    graphs += [_scattered(rng, random_graph(rng, rng.randint(1, 30), 0.2)) for _ in range(20)]
    for g in graphs:
        labels = g.csr_arrays()[0]
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from(g.edges())
        for _ in range(4):
            keep = np.array([rng.random() < 0.6 for _ in labels], dtype=bool)
            kept = labels[keep].tolist()
            want = nx.to_scipy_sparse_array(nxg.subgraph(kept), nodelist=kept, format="csr")
            want.sort_indices()
            got_labels, got_indptr, got_indices = remove_vertices(g, labels[~keep].tolist()).csr_arrays()
            assert got_labels.tolist() == kept
            for got, expected in ((got_indptr, want.indptr), (got_indices, want.indices)):
                assert got.dtype == np.int64 and np.array_equal(got, expected)


def test_union_csr_blocks_are_the_levels_induced_csr():
    rng = random.Random(67)
    graphs = [generate_ba(BAConfig(300, 3, 2))[0], PATH3, graph({5: []})]
    graphs += [_scattered(rng, random_graph(rng, rng.randint(1, 30), 0.2)) for _ in range(20)]
    for g in graphs:
        _, indptr, indices = g.csr_arrays()
        levels = _levels(indptr, indices)
        union_indptr, union_indices, sizes = _union_csr(indptr, indices, levels)
        lo = 0
        for (live, _), size, (want_indptr, want_indices) in zip(
                levels, sizes.tolist(), level_csrs(g), strict=True):
            start, stop = union_indptr[lo], union_indptr[lo + size]
            assert size == len(live)
            assert np.array_equal(union_indptr[lo:lo + size + 1] - start, want_indptr)
            assert np.array_equal(union_indices[start:stop] - lo, want_indices)
            lo += size
        assert lo == len(union_indptr) - 1 and union_indices.dtype == np.int64
