import random

import numpy as np
import pytest

from netchrono import (
    BinOrdering,
    CentralityKind,
    centrality_bins,
    compute,
    degree_bins,
    from_edge_list,
    rank_descending,
)
from netchrono.errors import InvalidDeltaError, NotAPartitionError, TooSmallError

from builders import adjacency
from oracles import random_connected_graph, random_graph

STAR = from_edge_list([(0, 1), (0, 2), (0, 3)])
TRIANGLE = from_edge_list([(0, 1), (1, 2), (0, 2)])
PATH3 = from_edge_list([(0, 1), (1, 2)])


def test_degree_bins_star():
    bins = degree_bins(STAR)
    assert bins.bins == (frozenset({0}), frozenset({1, 2, 3}))
    assert bins.delta == 2


def test_degree_bins_triangle():
    assert degree_bins(TRIANGLE).bins == (frozenset({0, 1, 2}),)


def test_degree_bins_groups_by_distinct_degree():
    g = from_edge_list([
        (0, 2), (0, 3), (0, 5), (0, 6), (0, 7),
        (1, 2), (1, 3), (1, 5), (1, 6), (1, 7),
        (2, 3), (2, 6),
        (3, 7),
        (4, 5),
    ])
    degrees = {v: len(nbrs) for v, nbrs in adjacency(g).items()}
    bins = degree_bins(g)
    seen = set()
    previous = None
    for b in bins.bins:
        values = {degrees[v] for v in b}
        assert len(values) == 1
        d = values.pop()
        if previous is not None:
            assert d < previous
        previous = d
        seen |= b
    assert seen == g.vertices


def test_centrality_bins_singletons():
    g = random_connected_graph(random.Random(1), 10, 0.2)
    bins = centrality_bins(g, CentralityKind.DEGREE, 10)
    assert bins.delta == 10
    assert all(len(b) == 1 for b in bins.bins)


def test_centrality_bins_single_bin():
    g = random_connected_graph(random.Random(2), 10, 0.2)
    bins = centrality_bins(g, CentralityKind.DEGREE, 1)
    assert bins.delta == 1
    assert bins.bins[0] == g.vertices


def test_centrality_bins_remainder_goes_first():
    g = random_connected_graph(random.Random(3), 10, 0.2)
    bins = centrality_bins(g, CentralityKind.DEGREE, 3)
    assert [len(b) for b in bins.bins] == [4, 3, 3]


def test_centrality_bins_invalid_delta():
    g = random_connected_graph(random.Random(4), 10, 0.2)
    with pytest.raises(InvalidDeltaError):
        centrality_bins(g, CentralityKind.DEGREE, 0)
    with pytest.raises(InvalidDeltaError):
        centrality_bins(g, CentralityKind.DEGREE, 11)
    # range() raised a bare TypeError on 2.5, and True was read as one bin
    for delta in (2.5, 2.0, True, "2", np.float64(2)):
        with pytest.raises(InvalidDeltaError):
            centrality_bins(g, CentralityKind.DEGREE, delta)
    assert centrality_bins(g, CentralityKind.DEGREE, np.int64(3)) == centrality_bins(g, CentralityKind.DEGREE, 3)


def test_degree_bins_empty_graph_is_too_small():
    with pytest.raises(TooSmallError):
        degree_bins(from_edge_list([]))


def test_centrality_bins_monotone_scores():
    rng = random.Random(6)
    for kind in CentralityKind:
        g = random_connected_graph(rng, 18, 0.15)
        scores = compute(g, kind).scores
        bins = centrality_bins(g, kind, 5)
        assert set().union(*bins.bins) == g.vertices
        for earlier, later in zip(bins.bins, bins.bins[1:]):
            assert min(scores[v] for v in earlier) >= max(scores[v] for v in later) - 1e-12



def test_ranking_to_chronology_star():
    # leaves tie at 1/3 and break by ascending label
    assert list(rank_descending(compute(STAR, CentralityKind.DEGREE))) == [0, 1, 2, 3]


def test_ranking_to_chronology_path_betweenness():
    assert list(rank_descending(compute(PATH3, CentralityKind.BETWEENNESS))) == [1, 0, 2]


def test_ranking_to_chronology_triangle_all_tied():
    assert list(rank_descending(compute(TRIANGLE, CentralityKind.DEGREE))) == [0, 1, 2]

def test_bin_ordering_validation():
    with pytest.raises(NotAPartitionError, match="nonempty"):
        BinOrdering((frozenset(), frozenset({1})))
    with pytest.raises(NotAPartitionError, match="disjoint"):
        BinOrdering((frozenset({1, 2}), frozenset({2})))


def test_degree_bins_partition_property():
    rng = random.Random(9)
    for _ in range(10):
        g = random_graph(rng, 15, 0.3)
        bins = degree_bins(g)
        assert sum(len(b) for b in bins.bins) == g.vertex_count
        assert set().union(*bins.bins) == g.vertices
