import math
import random

import numpy as np
import pytest

import netchrono.centrality
from netchrono import CentralityKind, ScoreTable, compute, from_edge_list
from netchrono.errors import InvalidConfigError, NoConvergenceError, SizeMismatchError

from builders import adjacency, graph
from oracles import brute_betweenness, dense_dominant_eigenvector, random_connected_graph, random_graph

STAR = from_edge_list([(0, 1), (0, 2), (0, 3)])
TRIANGLE = from_edge_list([(0, 1), (1, 2), (0, 2)])
PATH3 = from_edge_list([(0, 1), (1, 2)])
CYCLE4 = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)])

DEGREE, BETWEENNESS, EIGENVECTOR = CentralityKind


def rayleigh(g, scores: dict[int, float]) -> tuple[np.ndarray, np.ndarray, float]:
    """(x, A x, x.Ax / x.x) over g's vertices in ascending label order."""
    labels = sorted(g.vertices)
    x = np.array([scores[v] for v in labels])
    nbrs = adjacency(g)
    ax = np.array([sum(scores[w] for w in nbrs[v]) for v in labels])
    return x, ax, float(x @ ax) / float(x @ x)


def test_degree_star():
    scores = compute(STAR, DEGREE).scores
    assert scores[0] == 1.0
    for leaf in (1, 2, 3):
        assert scores[leaf] == pytest.approx(1 / 3)


def test_degree_triangle():
    assert compute(TRIANGLE, DEGREE).scores == {0: 1.0, 1: 1.0, 2: 1.0}


def test_degree_single_vertex():
    g = graph({7: []})
    assert compute(g, DEGREE).scores == {7: 0.0}


def test_every_kind_scores_the_empty_graph():
    # compute scores one level through `_union_csr`, which must also build an empty union
    for kind in CentralityKind:
        table = compute(from_edge_list([]), kind)
        assert table.labels.size == table.values.size == 0


def test_degree_sum_rule():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng, 12, 0.3)
        scores = compute(g, DEGREE).scores
        assert sum(scores.values()) * (g.vertex_count - 1) == pytest.approx(2 * g.edge_count)


def test_betweenness_path():
    scores = compute(PATH3, BETWEENNESS).scores
    assert scores == {0: 0.0, 1: 1.0, 2: 0.0}


def test_betweenness_star():
    scores = compute(STAR, BETWEENNESS).scores
    assert scores[0] == pytest.approx(3.0)
    assert scores[1] == scores[2] == scores[3] == 0.0


def test_betweenness_matches_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        got = compute(g, BETWEENNESS).scores
        want = brute_betweenness(g)
        for v in g.vertices:
            assert got[v] == pytest.approx(want[v], abs=1e-9)


def test_betweenness_medium_graphs_match_oracle():
    rng = random.Random(77)
    for _ in range(10):
        g = random_graph(rng, rng.randint(10, 30), 0.15)
        got = compute(g, BETWEENNESS).scores
        want = brute_betweenness(g)
        for v in g.vertices:
            assert got[v] == pytest.approx(want[v], abs=1e-9)


def test_eigenvector_cycle4():
    scores = compute(CYCLE4, EIGENVECTOR).scores
    for v in range(4):
        assert scores[v] == pytest.approx(0.5, abs=1e-9)
    assert rayleigh(CYCLE4, scores)[2] == pytest.approx(2.0, abs=1e-9)


def test_eigenvector_star_ratio():
    scores = compute(STAR, EIGENVECTOR).scores
    assert rayleigh(STAR, scores)[2] == pytest.approx(math.sqrt(3), abs=1e-6)
    assert scores[0] / scores[1] == pytest.approx(math.sqrt(3), abs=1e-6)
    want, lam = dense_dominant_eigenvector(STAR)
    for v in STAR.vertices:
        assert scores[v] == pytest.approx(want[v], abs=1e-8)


def test_eigenvector_edgeless():
    g = graph({v: [] for v in range(5)})
    assert all(s == 0.0 for s in compute(g, EIGENVECTOR).scores.values())


def test_eigenvector_unit_norm_and_residual():
    rng = random.Random(13)
    tol = netchrono.centrality.TOLERANCE
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 25), 0.1)
        x, ax, lam = rayleigh(g, compute(g, EIGENVECTOR).scores)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(ax - lam * x)) <= 10 * tol


def test_eigenvector_validation_and_no_convergence(monkeypatch):
    monkeypatch.setattr(netchrono.centrality, "TOLERANCE", 1e-14)
    monkeypatch.setattr(netchrono.centrality, "MAX_ITERATIONS", 2)
    with pytest.raises(NoConvergenceError):
        compute(STAR, EIGENVECTOR)


def test_relabeling_invariance():
    rng = random.Random(5)
    for kind in CentralityKind:
        g = random_connected_graph(rng, 12, 0.2)
        mapping = dict(zip(sorted(g.vertices), rng.sample(range(100, 200), g.vertex_count)))
        relabeled = graph(
            {mapping[v]: [mapping[w] for w in nbrs] for v, nbrs in adjacency(g).items()})
        a = compute(g, kind).scores
        b = compute(relabeled, kind).scores
        for v in g.vertices:
            assert a[v] == pytest.approx(b[mapping[v]], abs=1e-8)


def test_compute_dispatch():
    assert compute(TRIANGLE, CentralityKind.DEGREE).scores == {0: 1.0, 1: 1.0, 2: 1.0}
    assert compute(PATH3, CentralityKind.BETWEENNESS).scores == {0: 0.0, 1: 1.0, 2: 0.0}
    eig = compute(CYCLE4, CentralityKind.EIGENVECTOR).scores
    for v in range(4):
        assert eig[v] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("kind", ["degree", None, 1])
def test_compute_rejects_a_kind_that_is_not_a_centrality_kind(kind):
    with pytest.raises(InvalidConfigError, match="CentralityKind"):
        compute(TRIANGLE, kind)


def test_score_table_holds_int64_labels_and_float64_values():
    table = ScoreTable(np.array([5, 2], dtype=np.int32), np.array([1, 0]))
    assert table.labels.dtype == np.int64 and table.labels.tolist() == [5, 2]
    assert table.values.dtype == np.float64 and table.values.tolist() == [1.0, 0.0]
    assert table.scores == {5: 1.0, 2: 0.0}


@pytest.mark.parametrize("labels, values", [
    (np.array([0, 1]), np.array([0.5])),                       # lengths differ
    (np.array([[0, 1]]), np.array([[0.5, 0.5]])),              # 2-D
    (np.array(0), np.array(0.5)),                              # 0-D
    (np.array([0.0, 1.0]), np.array([0.5, 0.5])),              # float labels
    (np.array([True, False]), np.array([0.5, 0.5])),           # bool labels
    (np.array([0, 2**64 - 1], dtype=np.uint64), np.array([0.5, 0.5])),  # above int64
    (np.array([0, 1]), np.array(["a", "b"])),                  # values not real
    ([0, 1], np.array([0.5, 0.5])),                            # not an array
    (np.array([0, 1]), [0.5, 0.5]),
])
def test_score_table_rejects_arrays_that_do_not_pair_up(labels, values):
    # a mismatch surfaced only in `rank_descending`, as a bare numpy error
    with pytest.raises(SizeMismatchError, match="ScoreTable"):
        ScoreTable(labels, values)


@pytest.mark.parametrize("b", [1, 7, 64])
def test_in_place_product_equals_scipy_csr_product(b):
    # The Brandes kernel adds each product into a zero-filled output with scipy's
    # private `csr_matvecs`, at int64 indices; this pins it to `csr_array @ X`.
    import scipy.sparse as sp
    from scipy.sparse import _sparsetools

    rng = np.random.default_rng(b)
    for _ in range(30):
        n, m = (int(k) for k in rng.integers(1, 60, size=2))
        dense = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.15)
        dense[rng.random(n) < 0.2] = 0.0  # rows with no entries
        a = sp.csr_array(dense)
        x = rng.standard_normal((m, b))
        out = np.zeros(n * b)
        _sparsetools.csr_matvecs(n, m, b, a.indptr.astype(np.int64),
                                 a.indices.astype(np.int64), a.data, x.reshape(-1), out)
        assert out.tobytes() == (a @ x).tobytes()
