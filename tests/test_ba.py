import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netchrono import (
    BAConfig,
    Chronology,
    UndirectedGraph,
    degree_histogram,
    estimate_power_law_exponent,
    generate_ba,
    shuffle_vertex_labels,
)
from netchrono.ba import DegreeDistribution
from netchrono.errors import InsufficientSupportError, InvalidConfigError, SizeMismatchError

from oracles import oracle_csr_arrays, oracle_generate_ba


def expected_edges(n, c):
    return c * (c - 1) // 2 + (n - c) * c


def test_small_network_shape():
    g, chron = generate_ba(BAConfig(9, 3, 7))
    assert g.vertex_count == 9
    assert g.edge_count == 21
    assert list(chron) == list(range(9))
    # seed clique on the first three labels
    for u in range(3):
        for v in range(u + 1, 3):
            assert v in g.neighbors(u)


def test_invalid_configs():
    with pytest.raises(InvalidConfigError):
        BAConfig(3, 3, 1)
    with pytest.raises(InvalidConfigError):
        BAConfig(5, 0, 1)
    with pytest.raises(InvalidConfigError):
        BAConfig(5, 2, -1)


def test_deterministic_given_seed():
    a = generate_ba(BAConfig(200, 3, 123))
    b = generate_ba(BAConfig(200, 3, 123))
    assert a[0] == b[0] and a[1] == b[1]
    c = generate_ba(BAConfig(200, 3, 124))
    assert c[0] != a[0]


def test_edge_count_law_and_degree_floor():
    rng = random.Random(5)
    for _ in range(15):
        c = rng.randint(1, 6)
        n = rng.randint(c + 1, c + 60)
        g, chron = generate_ba(BAConfig(n, c, rng.randrange(2**32)))
        assert g.edge_count == expected_edges(n, c)
        assert list(chron) == list(range(n))
        degrees = [g.degree(v) for v in sorted(g.vertices)]
        assert min(degrees) >= c - 1
        assert all(degrees[v] >= c for v in range(c, n))


def test_early_vertices_outdegree_late_ones():
    early, late = [], []
    for seed in range(100):
        g, _ = generate_ba(BAConfig(200, 3, seed))
        early.append(np.mean([g.degree(v) for v in range(20)]))
        late.append(np.mean([g.degree(v) for v in range(180, 200)]))
    assert np.mean(early) > np.mean(late)


def test_degree_histogram_examples():
    triangle = UndirectedGraph({0: [1, 2], 1: [0, 2], 2: [0, 1]})
    assert degree_histogram(triangle).histogram == {2: 3}
    star = UndirectedGraph({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]})
    assert degree_histogram(star).histogram == {1: 3, 3: 1}
    empty = UndirectedGraph({0: [], 1: []})
    assert degree_histogram(empty).histogram == {0: 2}


def test_gamma_fit_on_exact_power_law():
    hist = {k: round(1e6 * k ** -3.0) for k in range(3, 51)}
    fitted = estimate_power_law_exponent(DegreeDistribution(hist), 3)
    assert fitted.gamma_estimate == pytest.approx(3.0, abs=0.05)
    assert fitted.normalization > 0


def test_gamma_fit_insufficient_support():
    with pytest.raises(InsufficientSupportError):
        estimate_power_law_exponent(DegreeDistribution({2: 5}), 2)
    with pytest.raises(InsufficientSupportError):
        estimate_power_law_exponent(DegreeDistribution({2: 5, 3: 4}), 2)


def test_gamma_fit_on_generated_networks():
    # BA theory predicts an exponent of 3; the weighted log-log fit lands
    # in a window around it (averaged over seeds to damp tail noise)
    vals = []
    for seed in range(5):
        g, _ = generate_ba(BAConfig(10000, 3, 100 + seed))
        fitted = estimate_power_law_exponent(degree_histogram(g), 3)
        vals.append(fitted.gamma_estimate)
    assert 2.5 <= np.mean(vals) <= 3.5


def test_shuffle_vertex_labels():
    g, chron = generate_ba(BAConfig(60, 3, 9))
    sg, schron = shuffle_vertex_labels(g, chron, 4)
    assert sg.vertices == g.vertices
    assert sg.edge_count == g.edge_count
    assert sorted(schron.order) == sorted(chron.order)
    assert tuple(schron) != tuple(chron)
    # deterministic
    sg2, schron2 = shuffle_vertex_labels(g, chron, 4)
    assert sg2 == sg and schron2 == schron
    # degree multiset preserved
    assert sorted(g.degree(v) for v in g.vertices) == sorted(sg.degree(v) for v in sg.vertices)


@pytest.mark.parametrize("order", [
    [0, 1],           # too few labels
    [0, 1, 2, 9],     # a label the graph does not have
    [0, 1, 2, 3, 9],  # every vertex and one more
    [0, 1, 2, 2**70],  # a label no int64 holds
])
def test_shuffle_vertex_labels_rejects_a_chronology_of_other_vertices(order):
    g, _ = generate_ba(BAConfig(4, 2, 1))
    with pytest.raises(SizeMismatchError):
        shuffle_vertex_labels(g, Chronology(order), 4)


# sha256 of the sorted edge list ("u v" lines) of generate_ba(BAConfig(n, c, seed)),
# as grown by the first-written scalar draw loop; pins the PCG64 draw stream
EDGE_LIST_DIGESTS = [
    (60, 1, 5, "73a894007fd6698d26a9ef4ff96ccb76b6474e62c46342f719ce652e33ed8325"),
    (400, 1, 2**63 + 11, "1468f6284941daac2cc58e38e11a1ef85df9b279ff58c56faba7a534534e3222"),
    (500, 2, 17, "32f1021d2eef4e3c96bd0ee13cdb49f60cd14451250e644a9ae198f048f8de8d"),
    (3000, 3, 1, "c44350218e821cdde6453b97958c6d8a774af2c914ddc2fa0a9550838124dd37"),
    (3000, 3, 2**63 + 2**40 + 3,
     "20fb2aa876e0c17fb91dfd7a8a9a482ef58af0d75cd1aa603731b255d1b30853"),
    (1000, 3, 2**64 - 1, "8e6ad7d279fdf44efbdb7d19562d74e3a273a51509cb42281349c81f11651a58"),
    (2000, 5, 404, "c16a3cd566e793485b1f777b7663143c33f26659c128350ae0ab29a1c37d1e77"),
]


@pytest.mark.parametrize("n,c,seed,digest", EDGE_LIST_DIGESTS)
def test_edge_list_digest(n, c, seed, digest):
    g, _ = generate_ba(BAConfig(n, c, seed))
    text = "\n".join(f"{u} {v}" for u, v in g.edges())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(c=st.integers(1, 7), extra=st.integers(1, 300), seed=st.integers(0, 2**64 - 1))
# a scalar redraw itself draws a repeat, so the redraw loop runs more than
# once: the first arrival after a K_7 (it must hit all seven), and arrivals
# well into a chunk, 144 of a c = 3 network (44 in) and 75 of a c = 2 one (10 in)
@example(c=7, extra=1, seed=0)
@example(c=3, extra=300, seed=0)
@example(c=2, extra=200, seed=11)
def test_adjacency_matches_scalar_draw_loop(c, extra, seed):
    n = c + extra
    g, _ = generate_ba(BAConfig(n, c, seed))
    expected = oracle_generate_ba(n, c, seed)
    assert g.vertices == frozenset(expected)
    assert all(g.neighbors(v) == frozenset(nbrs) for v, nbrs in expected.items())


@pytest.mark.parametrize("n,c,seed", [(2, 1, 0), (50, 1, 3), (300, 3, 2**63), (200, 6, 4)])
def test_csr_handed_over_matches_per_row_build(n, c, seed):
    g, _ = generate_ba(BAConfig(n, c, seed))
    for got, want in zip(g.csr_arrays(), oracle_csr_arrays(g)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
