"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Reference-network protocol shared by the pipeline criteria: for master
seed S, the network is BA(1000, 3) generated with seed S and then
relabeled with shuffle seed child_seed(S, 0) (matching `generate
--shuffle-labels`), so vertex labels carry no arrival information; the
pipeline then runs with master_seed = S and alpha = 50.
"""
from __future__ import annotations

import csv
import random
import time

import numpy as np
import pytest

from netchrono import (
    BAConfig,
    CentralityKind,
    Chronology,
    PipelineConfig,
    bin_by_indegree,
    bqm,
    break_cycles,
    centrality_bins,
    child_seed,
    compute,
    differential_core_ranking,
    eta_pairs,
    from_edge_list,
    generate_ba,
    is_acyclic,
    pairwise_digraph,
    probability_bucket_table,
    shuffle_vertex_labels,
)
from netchrono.cli import main as cli_main
from netchrono.reconstruction import default_jobs, reconstruct_with_ranking

from oracles import (
    brute_betweenness,
    dense_dominant_eigenvector,
    list_positions,
    random_connected_graph,
    random_graph,
)

MASTER_SEEDS = (1, 2, 3)
N, C, ALPHA = 1000, 3, 50


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def pipeline_run(kind: CentralityKind, seed: int) -> dict:
    g0, truth0 = generate_ba(BAConfig(N, C, seed))
    g, truth = shuffle_vertex_labels(g0, truth0, child_seed(seed, 0))
    cfg = PipelineConfig(alpha=ALPHA, connections=C, kind=kind, master_seed=seed)
    start = time.time()
    bins, dg, _ = reconstruct_with_ranking(g, cfg, jobs=default_jobs())
    elapsed = time.time() - start
    score = bqm(truth, bins)
    baselines = {
        k.value: bqm(truth, centrality_bins(g, k, bins.delta)) for k in CentralityKind
    }
    return {
        "graph": g, "truth": truth, "bins": bins, "dg": dg,
        "bqm": score, "baselines": baselines, "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def betweenness_runs():
    return [pipeline_run(CentralityKind.BETWEENNESS, s) for s in MASTER_SEEDS]


def test_criterion_1_fig18_betweenness(betweenness_runs):
    scores = [r["bqm"] for r in betweenness_runs]
    mean = float(np.mean(scores))
    beats = all(r["bqm"] > max(r["baselines"].values()) for r in betweenness_runs)
    elapsed = sum(r["elapsed"] for r in betweenness_runs)
    ok = 0.82 <= mean <= 0.92 and beats and elapsed <= 30 * 60
    report(
        "criterion 1",
        ok,
        f"betweenness mean_bqm={mean:.4f} (target [0.82,0.92], nominal 0.8715) "
        f"per_seed={[round(s, 4) for s in scores]} beats_all_baselines={beats} "
        f"elapsed={elapsed:.0f}s (budget 1800s)",
    )


def test_criterion_2_fig17_degree():
    runs = [pipeline_run(CentralityKind.DEGREE, s) for s in MASTER_SEEDS]
    scores = [r["bqm"] for r in runs]
    deltas = [r["bins"].delta for r in runs]
    mean = float(np.mean(scores))
    beats = all(r["bqm"] > max(r["baselines"].values()) for r in runs)
    delta_ok = all(61 <= d <= 121 for d in deltas)
    elapsed = sum(r["elapsed"] for r in runs)
    ok = 0.75 <= mean <= 0.85 and beats and delta_ok and elapsed <= 5 * 60
    report(
        "criterion 2",
        ok,
        f"degree mean_bqm={mean:.4f} (target [0.75,0.85], nominal 0.8045) "
        f"per_seed={[round(s, 4) for s in scores]} deltas={deltas} "
        f"(target 91+-30) beats_all_baselines={beats} elapsed={elapsed:.0f}s",
    )


def test_criterion_3_fig19_eigenvector():
    runs = [pipeline_run(CentralityKind.EIGENVECTOR, s) for s in MASTER_SEEDS]
    scores = [r["bqm"] for r in runs]
    mean = float(np.mean(scores))
    beats = all(r["bqm"] > max(r["baselines"].values()) for r in runs)
    ok = 0.79 <= mean <= 0.89 and beats
    report(
        "criterion 3",
        ok,
        f"eigenvector mean_bqm={mean:.4f} (target [0.79,0.89], nominal 0.8465) "
        f"per_seed={[round(s, 4) for s in scores]} "
        f"deltas={[r['bins'].delta for r in runs]} beats_all_baselines={beats}",
    )


def test_criterion_4_sweep_direction_of_effect(tmp_path):
    results = {}
    for kind in CentralityKind:
        wins = 0
        points = 0
        for mode, argv in (
            ("nodes", ["--mode", "nodes", "--from", "200", "--to", "600", "--step", "200",
                       "--connections", "3"]),
            ("connections", ["--mode", "connections", "--nodes", "400", "--from", "2",
                             "--to", "6", "--step", "2"]),
        ):
            out = tmp_path / f"{kind.value}-{mode}.csv"
            code = cli_main(["sweep", *argv, "--centrality", kind.value,
                             "--repeats", "5", "--seed", "11", "--out", str(out)])
            assert code == 0
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 3
            for row in rows:
                points += 1
                wins += float(row["eta_dcr_mean"]) >= float(row["eta_plain_mean"])
        results[kind.value] = (wins, points)
    ok = all(wins / points >= 0.8 for wins, points in results.values())
    report("criterion 4", ok, f"dcr>=plain per centrality (wins/points): {results}")


def test_criterion_5_bucket_table(betweenness_runs):
    run = betweenness_runs[0]
    rows = probability_bucket_table(run["dg"], run["truth"])
    low = rows[0]
    frac_ok = 0.10 <= low.edge_fraction <= 0.30
    correct_ok = 0.40 <= low.correct_fraction <= 0.60
    fractions = [r.correct_fraction for r in rows]
    inversions = [max(0.0, fractions[i] - fractions[i + 1]) for i in range(len(fractions) - 1)]
    mono_ok = sum(1 for d in inversions if d > 0) <= 1 and all(d <= 0.02 for d in inversions)
    ok = frac_ok and correct_ok and mono_ok
    report(
        "criterion 5",
        ok,
        f"(0.5,0.6] edge_fraction={low.edge_fraction:.3f} (target 0.20+-0.10) "
        f"correct_fraction={low.correct_fraction:.3f} (target 0.50+-0.10) "
        f"bucket_correct={[round(f, 3) for f in fractions]} monotone_ok={mono_ok}",
    )


def test_criterion_6_centrality_oracles():
    start = time.time()
    rng = random.Random(1234)
    worst_bet = 0.0
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.9))
        got = compute(g, CentralityKind.BETWEENNESS).scores
        want = brute_betweenness(g)
        worst_bet = max(worst_bet, max(abs(got[v] - want[v]) for v in g.vertices))
    assert worst_bet <= 1e-9

    worst_cos = 1.0
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(3, 30), 0.1)
        table = compute(g, CentralityKind.EIGENVECTOR)
        want, _ = dense_dominant_eigenvector(g)
        labels = sorted(g.vertices)
        x = np.array([table.scores[v] for v in labels])
        y = np.array([want[v] for v in labels])
        cos = abs(float(x @ y) / (np.linalg.norm(x) * np.linalg.norm(y)))
        worst_cos = min(worst_cos, cos)
    elapsed = time.time() - start
    ok = worst_bet <= 1e-9 and worst_cos >= 1 - 1e-6 and elapsed <= 60
    report(
        "criterion 6",
        ok,
        f"betweenness_max_abs_err={worst_bet:.2e} (<=1e-9) "
        f"eigenvector_min_cosine={1 - worst_cos:.2e} below 1 (<=1e-6) elapsed={elapsed:.1f}s",
    )


def test_criterion_7_structural_invariants():
    start = time.time()
    rng = random.Random(55)
    checks = {}

    # BA edge-count law and chronology
    law = True
    for _ in range(10):
        c = rng.randint(1, 5)
        n = rng.randint(c + 1, c + 80)
        g, chron = generate_ba(BAConfig(n, c, rng.randrange(2**63)))
        law &= g.edge_count == c * (c - 1) // 2 + (n - c) * c
        law &= list(chron) == list(range(n))
    checks["ba_edge_law_and_chronology"] = law

    # pairwise digraph edge count and weight bounds
    pw = True
    for _ in range(5):
        n, alpha = rng.randint(2, 15), rng.randint(1, 9)
        labels = rng.sample(range(60), n)
        lists = []
        for _ in range(alpha):
            order = labels[:]
            rng.shuffle(order)
            lists.append(order)
        dg = pairwise_digraph(*list_positions(lists))
        _, _, _, w = dg.arrays()
        pw &= dg.edge_count == n * (n - 1) // 2
        pw &= bool(np.all(w >= 0.5) and np.all(w <= 1.0))
        broken = break_cycles(dg)
        pw &= is_acyclic(broken)
        bins = bin_by_indegree(broken)
        pw &= set().union(*bins.bins) == set(dg.matrix()[0].tolist())
    checks["pairwise_break_bin_invariants"] = pw

    # eta / bqm boundary identities
    labels = rng.sample(range(100), 12)
    truth = Chronology(labels)
    ident = eta_pairs(truth, truth) == 1.0
    ident &= eta_pairs(truth, Chronology(reversed(labels))) == 0.0
    from netchrono import BinOrdering
    singletons = BinOrdering(tuple(frozenset({v}) for v in labels))
    ident &= bqm(truth, singletons) == 1.0
    ident &= bqm(truth, BinOrdering(tuple(frozenset({v}) for v in reversed(labels)))) == 0.0
    checks["eta_bqm_boundary_identities"] = ident

    # determinism under repetition and jobs variation
    g, _ = generate_ba(BAConfig(60, 3, 8))
    cfg = PipelineConfig(alpha=6, connections=3, kind=CentralityKind.DEGREE, master_seed=21)
    a = reconstruct_with_ranking(g, cfg, jobs=1)
    b = reconstruct_with_ranking(g, cfg, jobs=1)
    c2 = reconstruct_with_ranking(g, cfg, jobs=3)
    checks["determinism_repeat_and_jobs"] = (a[:2] == b[:2] == c2[:2]
                                             and a[2].tolist() == b[2].tolist() == c2[2].tolist())

    elapsed = time.time() - start
    ok = all(checks.values()) and elapsed <= 60
    report("criterion 7", ok, f"{checks} elapsed={elapsed:.1f}s")


def test_criterion_8_dcr_hand_oracle():
    path3 = from_edge_list([(0, 1), (1, 2)])
    triangle = from_edge_list([(0, 1), (1, 2), (0, 2)])
    got_path = differential_core_ranking(path3, CentralityKind.DEGREE).scores
    got_tri = differential_core_ranking(triangle, CentralityKind.DEGREE).scores
    ok = got_path == {0: 0.5, 1: 1.0, 2: 0.5} and got_tri == {0: 1.0, 1: 1.0, 2: 1.0}
    report("criterion 8", ok, f"path_dcm={got_path} triangle_dcm={got_tri}")
