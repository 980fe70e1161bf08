import itertools
import random
from math import comb

import pytest

from netchrono import (
    BinOrdering,
    Chronology,
    bqm,
    eta_pairs,
    probability_bucket_table,
)
from netchrono.errors import (
    DegenerateBinsError,
    NotAPartitionError,
    SizeMismatchError,
    TooSmallError,
)

from builders import digraph


def brute_eta(truth, predicted):
    pos = {v: i for i, v in enumerate(truth)}
    seq = [pos[v] for v in predicted]
    n = len(seq)
    good = sum(1 for i, j in itertools.combinations(range(n), 2) if seq[i] < seq[j])
    return good / comb(n, 2)


def test_eta_identical():
    c = Chronology([3, 1, 4, 2])
    assert eta_pairs(c, c) == 1.0


def test_eta_reversal():
    truth = Chronology([3, 1, 4, 2])
    assert eta_pairs(truth, Chronology(reversed(truth.order))) == 0.0


def test_eta_single_swap():
    assert eta_pairs(Chronology([1, 2, 3, 4]), Chronology([1, 3, 2, 4])) == pytest.approx(5 / 6)


def test_eta_errors():
    with pytest.raises(SizeMismatchError):
        eta_pairs(Chronology([1, 2]), Chronology([1, 3]))
    with pytest.raises(TooSmallError):
        eta_pairs(Chronology([1]), Chronology([1]))


def test_eta_matches_brute_force_and_complement():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 40)
        labels = rng.sample(range(500), n)
        truth = Chronology(labels)
        pred = labels[:]
        rng.shuffle(pred)
        predicted = Chronology(pred)
        got = eta_pairs(truth, predicted)
        assert got == pytest.approx(brute_eta(truth, predicted))
        flipped = eta_pairs(truth, Chronology(reversed(pred)))
        assert got + flipped == pytest.approx(1.0)


def test_bqm_two_singletons():
    bins = BinOrdering((frozenset({10}), frozenset({20})))
    assert bqm(Chronology([10, 20]), bins) == 1.0


def test_bqm_half_right():
    bins = BinOrdering((frozenset({0, 1}), frozenset({2})))
    # truth [0, 2, 1]: pair (0,2) correct, (1,2) wrong
    assert bqm(Chronology([0, 2, 1]), bins) == 0.5


def test_bqm_errors():
    bins = BinOrdering((frozenset({0}), frozenset({1})))
    with pytest.raises(NotAPartitionError):
        bqm(Chronology([0, 1, 2]), bins)
    with pytest.raises(DegenerateBinsError):
        bqm(Chronology([0, 1]), BinOrdering((frozenset({0, 1}),)))


def test_bqm_singleton_bins_equals_eta():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(2, 30)
        labels = rng.sample(range(100), n)
        truth = Chronology(labels)
        pred = labels[:]
        rng.shuffle(pred)
        bins = BinOrdering(tuple(frozenset({v}) for v in pred))
        assert bqm(truth, bins) == pytest.approx(eta_pairs(truth, Chronology(pred)))


def test_bqm_in_unit_interval():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(4, 25)
        labels = list(range(n))
        truth_order = labels[:]
        rng.shuffle(truth_order)
        rng.shuffle(labels)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(5, n - 1))))
        bins, at = [], 0
        for cut in cuts + [n]:
            bins.append(frozenset(labels[at:cut]))
            at = cut
        value = bqm(Chronology(truth_order), BinOrdering(tuple(bins)))
        assert 0.0 <= value <= 1.0


def test_bucket_table_unanimous_tournament():
    labels = [0, 1, 2, 3]
    edges = {(u, v): 1.0 for u in labels for v in labels if u < v}
    dg = digraph(labels, edges)
    rows = probability_bucket_table(dg, Chronology(labels))
    assert sum(r.edge_count for r in rows) == 6
    top = rows[-1]
    assert (top.range_low, top.range_high) == (0.9, 1.0)
    assert top.edge_fraction == 1.0
    assert top.correct_fraction == 1.0
    assert sum(r.edge_fraction for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_bucket_table_tie_weight_goes_lowest():
    dg = digraph([0, 1], {(0, 1): 0.5})
    rows = probability_bucket_table(dg, Chronology([1, 0]))
    assert rows[0].edge_count == 1
    assert rows[0].correct_fraction == 0.0
    assert all(r.edge_count == 0 for r in rows[1:])


def test_bucket_table_boundaries_and_width():
    dg = digraph([0, 1, 2], {(0, 1): 0.6, (1, 2): 0.7})
    rows = probability_bucket_table(dg, Chronology([0, 1, 2]), bucket_width=0.1)
    assert [r.edge_count for r in rows] == [1, 1, 0, 0, 0]
    for width in (0.15, 0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            probability_bucket_table(dg, Chronology([0, 1, 2]), bucket_width=width)


def test_bucket_table_truth_mismatch():
    dg = digraph([0, 1], {(0, 1): 0.8})
    with pytest.raises(SizeMismatchError):
        probability_bucket_table(dg, Chronology([0, 5]))
