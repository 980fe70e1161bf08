import itertools
import random
from fractions import Fraction
from math import ceil, comb

import numpy as np
import pytest

from netchrono import (
    BinOrdering,
    Chronology,
    bqm,
    eta_pairs,
    map_and_predict,
    probability_bucket_table,
)
from netchrono.errors import (
    DegenerateBinsError,
    NetchronoError,
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
    assert eta_pairs(truth, truth[::-1]) == 0.0


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
    edges = {(u, v): 10 for u in labels for v in labels if u < v}
    dg = digraph(labels, edges, 10)
    rows = probability_bucket_table(dg, Chronology(labels))
    assert sum(r.count for r in rows) == 6
    top = rows[-1]
    assert (top.low, top.high) == (0.9, 1.0)
    assert top.edge_fraction == 1.0
    assert top.correct_fraction == 1.0
    assert sum(r.edge_fraction for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_bucket_table_tie_weight_goes_lowest():
    dg = digraph([0, 1], {(0, 1): 5}, 10)
    rows = probability_bucket_table(dg, Chronology([1, 0]))
    assert rows[0].count == 1
    assert rows[0].correct_fraction == 0.0
    assert all(r.count == 0 for r in rows[1:])


def test_bucket_table_boundaries_and_width():
    dg = digraph([0, 1, 2], {(0, 1): 6, (1, 2): 7}, 10)
    rows = probability_bucket_table(dg, Chronology([0, 1, 2]))
    assert [r.count for r in rows] == [1, 1, 0, 0, 0]
    assert [(r.low, r.high) for r in rows] == [
        (0.5 + b * 0.1, 0.5 + (b + 1) * 0.1) for b in range(5)]


def test_bucket_table_truth_mismatch():
    dg = digraph([0, 1], {(0, 1): 8}, 10)
    with pytest.raises(SizeMismatchError):
        probability_bucket_table(dg, Chronology([0, 5]))


@pytest.mark.parametrize("alphas", [range(1, 301), [1000, 4096, 65535]])
def test_bucket_index_matches_exact_fractions(alphas):
    """Each majority count m out of alpha lands in bucket ceil((m/alpha - 1/2) / 0.1) - 1,
    clipped to the five buckets, as exact rationals say; every other edge points the right
    way, in rows on both sides of the 256-row tally blocks when alpha is 65535."""
    for alpha in alphas:
        majorities = range((alpha + 1) // 2, alpha + 1)
        n = next(n for n in itertools.count(2) if comb(n, 2) >= len(majorities))
        pairs = itertools.combinations(range(n), 2)
        # the truth lists labels descending, so edge t points the right way, from an
        # earlier to a later arrival, iff it runs from the larger label: iff t is odd
        edges = {(u, v) if t % 2 == 0 else (v, u): m
                 for t, ((u, v), m) in enumerate(zip(pairs, majorities))}
        dg = digraph(range(n), edges, alpha)
        truth = Chronology(range(n - 1, -1, -1))
        k, width = 5, Fraction(1, 10)
        want_total, want_correct = [0] * k, [0] * k
        for t, m in enumerate(majorities):
            b = min(max(ceil((Fraction(m, alpha) - Fraction(1, 2)) / width) - 1, 0), k - 1)
            want_total[b] += 1
            want_correct[b] += t % 2 == 1
        rows = probability_bucket_table(dg, truth)
        assert [r.count for r in rows] == want_total, alpha
        assert [r.correct_fraction for r in rows] == [
            c / t if t else 0.0 for c, t in zip(want_correct, want_total)], alpha


# each entry point that reads orders, as a function of the form its orders take
ORDER_READERS = {
    "eta_pairs": lambda form: eta_pairs(form([3, 1, 4, 2]), form([1, 3, 2, 4])),
    "bqm": lambda form: bqm(form([3, 1, 4, 2]),
                            BinOrdering((frozenset({1, 3}), frozenset({2, 4})))),
    "probability_bucket_table": lambda form: probability_bucket_table(
        digraph([1, 2, 3, 4], {(3, 1): 8, (2, 4): 6, (4, 1): 10}, 10), form([3, 1, 4, 2])),
    "map_and_predict": lambda form: map_and_predict(
        form([12, 10, 11]), form([1, 0, 2]), form([0, 1, 2])).tolist(),
}


@pytest.mark.parametrize("reader", ORDER_READERS.values(), ids=ORDER_READERS)
def test_orders_are_any_label_sequence(reader):
    # each read its orders' `.order` or `.positions()`: a list was a bare AttributeError
    forms = [list, lambda labels: np.array(labels, dtype=np.int64), Chronology]
    values = [reader(form) for form in forms]
    assert values[0] == values[1] == values[2]
    for bad in (True, 1.5):
        with pytest.raises(NetchronoError, match="is not an integer"):
            reader(lambda labels: [bad, *labels[1:]])
