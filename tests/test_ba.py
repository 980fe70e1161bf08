import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netchrono import BAConfig, Chronology, generate_ba, shuffle_vertex_labels
from netchrono.ba import _lemire, _words
from netchrono.errors import InvalidConfigError, SizeMismatchError

from builders import adjacency
from oracles import oracle_csr_arrays, oracle_generate_ba


def expected_edges(n, c):
    return c * (c - 1) // 2 + (n - c) * c


def test_small_network_shape():
    g, chron = generate_ba(BAConfig(9, 3, 7))
    assert g.vertex_count == 9
    assert g.edge_count == 21
    assert list(chron) == list(range(9))
    # seed clique on the first three labels
    nbrs = adjacency(g)
    for u in range(3):
        for v in range(u + 1, 3):
            assert v in nbrs[u]


def test_invalid_configs():
    with pytest.raises(InvalidConfigError):
        BAConfig(3, 3, 1)
    with pytest.raises(InvalidConfigError):
        BAConfig(5, 0, 1)
    with pytest.raises(InvalidConfigError):
        BAConfig(5, 2, -1)
    # the largest bound c(c-1) + 2c(n-1-c) must stay below 2**32
    BAConfig(715827885, 3, 1)
    BAConfig(2**31 + 1, 1, 1)
    with pytest.raises(InvalidConfigError):
        BAConfig(715827886, 3, 1)
    with pytest.raises(InvalidConfigError):
        BAConfig(2**31 + 2, 1, 1)
    # each field an integer: not a float, a string or a bool; numpy integers pass
    for fields in [(30, 3, 1.5), (30, 3, np.float64(1))]:
        with pytest.raises(InvalidConfigError, match="must be an integer"):
            BAConfig(*fields)
    for bad in (30.0, True, "30", np.float64(30)):
        for fields, name in [((bad, 3, 1), "n"), ((30, bad, 1), "c")]:
            with pytest.raises(InvalidConfigError, match=f"^{name} must be an integer"):
                BAConfig(*fields)
    BAConfig(np.int64(30), np.int32(3), np.uint64(2**64 - 1))
    with pytest.raises(InvalidConfigError, match="2\\*\\*32"):
        # 6 (n - 4) is 2**64 + 2: an int64 bound would wrap to 8 and pass
        BAConfig(np.int64(3074457345618258607), np.int64(3), 1)


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
        degrees = np.diff(g.csr_arrays()[1])  # labels 0..n-1, so row v is vertex v
        assert min(degrees) >= c - 1
        assert all(degrees[v] >= c for v in range(c, n))


def test_early_vertices_outdegree_late_ones():
    early, late = [], []
    for seed in range(100):
        g, _ = generate_ba(BAConfig(200, 3, seed))
        degrees = np.diff(g.csr_arrays()[1])
        early.append(np.mean(degrees[:20]))
        late.append(np.mean(degrees[180:200]))
    assert np.mean(early) > np.mean(late)


def test_gamma_fit_on_generated_networks():
    # BA theory predicts a degree exponent of 3.  A log-log least-squares fit
    # of the degree fractions (every degree is >= c = 3) lands in a window
    # around it, averaged over seeds to damp tail noise.  Each point is
    # weighted by sqrt(count), the inverse-variance weight of a log Poisson
    # count: unweighted, the long run of single-count tail degrees flattens
    # the slope to about 2.
    vals = []
    for seed in range(5):
        g, _ = generate_ba(BAConfig(10000, 3, 100 + seed))
        degrees, counts = np.unique(np.diff(g.csr_arrays()[1]), return_counts=True)
        slope, _ = np.polyfit(np.log(degrees), np.log(counts / counts.sum()), 1,
                              w=np.sqrt(counts))
        vals.append(abs(slope))
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
    assert sorted(np.diff(g.csr_arrays()[1])) == sorted(np.diff(sg.csr_arrays()[1]))


@pytest.mark.parametrize("order", [
    [0, 1],           # too few labels
    [0, 1, 2, 9],     # a label the graph does not have
    [0, 1, 2, 3, 9],  # every vertex and one more
    [0, 1, 2, 2**63 - 1],  # a label at the int64 edge
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
# a chunk of one pick: the last arrival of a c = 1 network
@example(c=1, extra=2, seed=0)
@example(c=3, extra=300, seed=0)
@example(c=2, extra=200, seed=11)
# a word numpy's bounded-integer rule rejects, at arrival 2700 (bound 16188)
@example(c=3, extra=2997, seed=180)
def test_adjacency_matches_scalar_draw_loop(c, extra, seed):
    n = c + extra
    g, _ = generate_ba(BAConfig(n, c, seed))
    expected = oracle_generate_ba(n, c, seed)
    assert g.vertices == frozenset(expected)
    assert adjacency(g) == {v: frozenset(nbrs) for v, nbrs in expected.items()}


@pytest.mark.parametrize("n,c,seed", [(2, 1, 0), (50, 1, 3), (300, 3, 2**63), (200, 6, 4)])
def test_csr_handed_over_matches_per_row_build(n, c, seed):
    g, _ = generate_ba(BAConfig(n, c, seed))
    for got, want in zip(g.csr_arrays(), oracle_csr_arrays(oracle_generate_ba(n, c, seed))):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    bounds=st.lists(st.integers(2, 2**16) | st.integers(2**31, 2**32 - 1), min_size=1, max_size=40),
)
@example(seed=0, bounds=[2**31 + 1] * 8)
def test_word_replay_matches_generator_integers(seed, bounds):
    """`_words` and `_lemire` give the values, and read the words, of
    Generator.integers(0, bounds); bounds past 2**31 reject about half
    their words."""
    expected = np.random.Generator(np.random.PCG64(seed)).integers(0, np.array(bounds))
    bounds = np.array(bounds, dtype=np.uint64)
    floors = (2**32 - bounds) % bounds
    words = _words(np.random.PCG64(seed), 40 * len(bounds))
    values, accepted = _lemire(words[:len(bounds)], bounds, floors)
    first = int(np.argmin(accepted)) if not accepted.all() else len(bounds)
    assert np.array_equal(values[:first], expected[:first])
    # one word at a time, as the redraws in _draw_targets read them
    at, replayed = 0, []
    for bound, floor in zip(bounds.tolist(), floors.tolist()):
        while True:
            value, ok = _lemire(int(words[at]), bound, floor)
            at += 1
            if ok:
                break
        replayed.append(value)
    assert replayed == expected.tolist()
