import csv
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from netchrono import (
    BinOrdering,
    WeightedDigraph,
    bqm,
    read_chronology,
    read_edge_list,
    reconstruct_with_ranking,
)
from netchrono import cli
from netchrono.cli import main

from builders import adjacency


def run(*argv):
    return main([str(a) for a in argv])


def test_generate_writes_files(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    chron = tmp_path / "g.chron"
    code = run("generate", "--nodes", 9, "--connections", 3, "--seed", 7,
               "--out", edges, "--chronology", chron)
    assert code == 0
    g = read_edge_list(edges)
    assert g.vertex_count == 9 and g.edge_count == 21
    assert list(read_chronology(chron)) == list(range(9))
    out = capsys.readouterr().out
    assert "edges=21" in out
    degrees = [len(nbrs) for nbrs in adjacency(g).values()]
    assert (f"degree min={min(degrees)} max={max(degrees)} mean={2 * 21 / 9:.3f} "
            f"distinct={len(set(degrees))}") in out.splitlines()


def test_generate_invalid_config_fails(tmp_path, capsys):
    code = run("generate", "--nodes", 3, "--connections", 3, "--seed", 1,
               "--out", tmp_path / "g.edges", "--chronology", tmp_path / "g.chron")
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--gamma"], ["--gamma-kmin", 3]])
def test_generate_has_no_power_law_fit(tmp_path, capsys, flags):
    edges, chron = tmp_path / "g.edges", tmp_path / "g.chron"
    with pytest.raises(SystemExit) as exc:
        run("generate", "--nodes", 50, "--connections", 3, "--seed", 7,
            "--out", edges, "--chronology", chron, *flags)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not edges.exists() and not chron.exists()


def test_generate_shuffle_labels(tmp_path):
    plain_c = tmp_path / "a.chron"
    run("generate", "--nodes", 50, "--connections", 3, "--seed", 5,
        "--out", tmp_path / "a.edges", "--chronology", plain_c)
    shuf_c = tmp_path / "b.chron"
    run("generate", "--nodes", 50, "--connections", 3, "--seed", 5,
        "--out", tmp_path / "b.edges", "--chronology", shuf_c, "--shuffle-labels")
    plain = read_chronology(plain_c)
    shuffled = read_chronology(shuf_c)
    assert list(plain) == list(range(50))
    assert sorted(shuffled.order) == list(range(50))
    assert list(shuffled) != list(range(50))


def test_missing_required_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("reconstruct", "--connections", 3, "--seed", 1, "--out", tmp_path / "r.json")
    assert exc.value.code == 2


def test_reconstruct_result_schema_and_roundtrip(tmp_path):
    edges = tmp_path / "g.edges"
    chron = tmp_path / "g.chron"
    run("generate", "--nodes", 40, "--connections", 3, "--seed", 13,
        "--out", edges, "--chronology", chron, "--shuffle-labels")
    out = tmp_path / "result.json"
    code = run("reconstruct", "--graph", edges, "--connections", 3,
               "--alpha", 4, "--centrality", "degree", "--seed", 99,
               "--truth", chron, "--out", out, "--jobs", 1)
    assert code == 0
    result = json.loads(out.read_text())
    assert set(result) == {"config", "bins", "delta", "digraph_summary", "metrics", "bucket_table"}
    assert result["delta"] == len(result["bins"])
    assert result["digraph_summary"]["edges"] == 40 * 39 // 2
    assert 0.0 <= result["metrics"]["bqm"] <= 1.0
    assert 0.0 <= result["metrics"]["eta_pairs"] <= 1.0
    assert sum(r["edge_fraction"] for r in result["bucket_table"]) == pytest.approx(1.0)
    # metrics recompute identically from the stored bins
    truth = read_chronology(chron)
    bins = BinOrdering(tuple(frozenset(b) for b in result["bins"]))
    assert bqm(truth, bins) == result["metrics"]["bqm"]


def test_reconstruct_weight_summary_matches_edge_arrays(tmp_path, monkeypatch):
    # alpha 50 gives many distinct counts; the summary is counted per count
    edges = tmp_path / "g.edges"
    run("generate", "--nodes", 60, "--connections", 3, "--seed", 2,
        "--out", edges, "--chronology", tmp_path / "g.chron")
    digraphs = []

    def keep_digraph(*args, **kwargs):
        result = reconstruct_with_ranking(*args, **kwargs)
        digraphs.append(result[1])
        return result

    monkeypatch.setattr(cli, "reconstruct_with_ranking", keep_digraph)
    out = tmp_path / "result.json"
    assert run("reconstruct", "--graph", edges, "--connections", 3,
               "--alpha", 50, "--centrality", "degree", "--seed", 8,
               "--out", out, "--jobs", 1) == 0
    summary = json.loads(out.read_text())["digraph_summary"]
    _, _, _, weights = digraphs[0].arrays()
    assert len(np.unique(weights)) > 3
    assert summary["min_weight"] == float(weights.min())
    assert summary["max_weight"] == float(weights.max())
    assert summary["mean_weight"] == pytest.approx(float(weights.mean()), rel=0, abs=1e-12)


def test_reconstruct_without_truth_has_null_metrics(tmp_path):
    edges = tmp_path / "g.edges"
    run("generate", "--nodes", 30, "--connections", 3, "--seed", 3,
        "--out", edges, "--chronology", tmp_path / "g.chron")
    out = tmp_path / "result.json"
    assert run("reconstruct", "--graph", edges, "--connections", 3,
               "--alpha", 2, "--centrality", "degree", "--seed", 4,
               "--out", out, "--jobs", 1) == 0
    result = json.loads(out.read_text())
    assert result["metrics"] == {"bqm": None, "eta_pairs": None}
    assert result["bucket_table"] is None


def test_reconstruct_deterministic_under_jobs(tmp_path, monkeypatch):
    edges = tmp_path / "g.edges"
    run("generate", "--nodes", 40, "--connections", 3, "--seed", 1,
        "--out", edges, "--chronology", tmp_path / "g.chron")
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    run("reconstruct", "--graph", edges, "--connections", 3, "--alpha", 4,
        "--centrality", "degree", "--seed", 5, "--out", a, "--jobs", 1)
    run("reconstruct", "--graph", edges, "--connections", 3, "--alpha", 4,
        "--centrality", "degree", "--seed", 5, "--out", b, "--jobs", 2)
    monkeypatch.setenv("NETCHRONO_JOBS", "3")
    run("reconstruct", "--graph", edges, "--connections", 3, "--alpha", 4,
        "--centrality", "degree", "--seed", 5, "--out", c)
    assert a.read_text() == b.read_text() == c.read_text()


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run("sweep", "--mode", "nodes", "--from", 30, "--to", 50, "--step", 10,
               "--connections", 3, "--centrality", "degree", "--repeats", 2,
               "--seed", 17, "--out", out, "--jobs", 1)
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "eta_plain_mean", "eta_dcr_mean", "eta_plain_std", "eta_dcr_std"]
    assert [r[0] for r in rows[1:]] == ["30", "40", "50"]
    for row in rows[1:]:
        for cell in row[1:]:
            assert 0.0 <= float(cell) <= 1.0


def test_sweep_connections_mode_row_count(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run("sweep", "--mode", "connections", "--nodes", 40, "--from", 2,
               "--to", 6, "--step", 1, "--centrality", "degree", "--repeats", 1,
               "--seed", 23, "--out", out, "--jobs", 1)
    assert code == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 6  # header + 5 rows


def test_sweep_bad_range_fails(tmp_path, capsys):
    code = run("sweep", "--mode", "nodes", "--from", 500, "--to", 100,
               "--connections", 3, "--centrality", "degree", "--repeats", 1,
               "--seed", 1, "--out", tmp_path / "s.csv")
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sweep_rejects_a_seed_outside_uint64(tmp_path, capsys, seed):
    # one rule for every seed: -1 was refused with another message, 2**64 was taken
    code = run("sweep", "--mode", "nodes", "--from", 20, "--to", 20, "--connections", 3,
               "--centrality", "degree", "--repeats", 1, "--seed", seed, "--out", tmp_path / "s.csv")
    assert code == 1
    assert "--seed must be an integer, unsigned 64-bit" in capsys.readouterr().err


@pytest.mark.parametrize("mode, sizes", [("connections", ["--nodes", 40, "--from", 0]),
                                         ("nodes", ["--connections", 3, "--from", 3])])
def test_sweep_rejects_a_point_before_any_work(tmp_path, capsys, monkeypatch, mode, sizes):
    # connections 0 was refused only by BAConfig inside _sweep_point, after fan-out began
    def no_pipeline(*args, **kwargs):
        raise AssertionError("a sweep point ran before every point was checked")

    monkeypatch.setattr(cli, "_sweep_point", no_pipeline)
    code = run("sweep", "--mode", mode, *sizes, "--to", 4, "--centrality", "degree",
               "--repeats", 1, "--seed", 1, "--out", tmp_path / "s.csv", "--jobs", 1)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: sweep point x={sizes[-1]}: require n > c >= 1")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag", ["--step", "--repeats"])
def test_sweep_rejects_a_step_or_repeat_count_below_one(tmp_path, capsys, monkeypatch, flag):
    def no_pipeline(*args, **kwargs):
        raise AssertionError(f"a sweep point ran with {flag} 0")

    monkeypatch.setattr(cli, "_sweep_point", no_pipeline)
    code = run("sweep", "--mode", "nodes", "--from", 20, "--to", 30, "--connections", 3,
               "--centrality", "degree", "--seed", 1, "--out", tmp_path / "s.csv",
               "--jobs", 1, flag, 0)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be an integer >= 1, got 0")
    assert not (tmp_path / "s.csv").exists()


# sha256 of the sweep CSV below; pins the (point, repeat) seeds of every sweep task
SWEEP_DIGEST = "af3e1b5a4ec752a5a6240b26a5aa0597971aa433f3f0018e4e1cf0ad8128a052"


def test_sweep_deterministic(tmp_path):
    for jobs in (1, 2):
        out = tmp_path / f"sweep-{jobs}.csv"
        run("sweep", "--mode", "nodes", "--from", 30, "--to", 40, "--step", 10,
            "--connections", 3, "--centrality", "degree", "--repeats", 2,
            "--seed", 31, "--out", out, "--jobs", jobs)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGEST, jobs


def test_compare_bins_output(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    chron = tmp_path / "g.chron"
    run("generate", "--nodes", 50, "--connections", 3, "--seed", 19,
        "--out", edges, "--chronology", chron, "--shuffle-labels")
    out = tmp_path / "cmp.json"
    code = run("compare-bins", "--graph", edges, "--truth", chron,
               "--connections", 3, "--alpha", 4, "--centrality", "degree",
               "--seed", 7, "--out", out, "--jobs", 1)
    assert code == 0
    result = json.loads(out.read_text())
    metrics = result["metrics"]
    assert set(metrics) == {
        "bqm_dcr", "bqm_degree", "bqm_betweenness", "bqm_eigenvector", "bqm_degree_bins"}
    assert all(0.0 <= v <= 1.0 for v in metrics.values())
    assert result["delta"] >= 1
    assert "bqm_dcr=" in capsys.readouterr().out


def test_reconstruct_and_compare_bins_agree(tmp_path):
    # one pipeline body: equal config blocks, deltas and pipeline BQM on the same flags
    edges, chron = tmp_path / "g.edges", tmp_path / "g.chron"
    run("generate", "--nodes", 50, "--connections", 3, "--seed", 19,
        "--out", edges, "--chronology", chron, "--shuffle-labels")
    flags = ["--graph", edges, "--truth", chron, "--connections", 3, "--alpha", 4,
             "--centrality", "degree", "--seed", 7, "--jobs", 1]
    assert run("reconstruct", *flags, "--out", tmp_path / "r.json") == 0
    assert run("compare-bins", *flags, "--out", tmp_path / "c.json") == 0
    rec = json.loads((tmp_path / "r.json").read_text())
    cmp = json.loads((tmp_path / "c.json").read_text())
    assert rec["config"] == cmp["config"]
    assert rec["delta"] == cmp["delta"]
    assert cmp["metrics"]["bqm_dcr"] == rec["metrics"]["bqm"]


@pytest.mark.parametrize("command", ["reconstruct", "compare-bins"])
@pytest.mark.parametrize("truth_lines", [range(39), range(41), [*range(39), 77]])
def test_truth_must_cover_the_graph_vertex_set(tmp_path, capsys, monkeypatch, command,
                                               truth_lines):
    edges = tmp_path / "g.edges"
    run("generate", "--nodes", 40, "--connections", 3, "--seed", 13,
        "--out", edges, "--chronology", tmp_path / "g.chron")
    truth = tmp_path / "bad.chron"
    truth.write_text("".join(f"{v}\n" for v in truth_lines))

    def no_pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran before the truth was checked")

    monkeypatch.setattr(cli, "reconstruct_with_ranking", no_pipeline)
    out = tmp_path / "r.json"
    code = run(command, "--graph", edges, "--truth", truth, "--connections", 3,
               "--alpha", 2, "--centrality", "degree", "--seed", 1, "--out", out, "--jobs", 1)
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("width", [0, -0.1, 0.15, 0.1])
def test_reconstruct_rejects_bucket_width_before_the_pipeline(tmp_path, capsys, monkeypatch,
                                                               width):
    # the bucket table's width is fixed at 0.1, so any --bucket-width is an unknown flag
    edges = tmp_path / "g.edges"
    chron = tmp_path / "g.chron"
    run("generate", "--nodes", 40, "--connections", 3, "--seed", 13,
        "--out", edges, "--chronology", chron)

    def no_pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran on an unknown flag")

    monkeypatch.setattr(cli, "reconstruct_with_ranking", no_pipeline)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run("reconstruct", "--graph", edges, "--truth", chron, "--connections", 3,
            "--alpha", 2, "--centrality", "degree", "--seed", 1, "--out", out, "--jobs", 1,
            "--bucket-width", width)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["# vertices: 3\n0 1\n0 5\n", "0 1\n1 9223372036854775808\n"])
def test_reconstruct_rejects_labels_the_graph_cannot_hold(tmp_path, capsys, text):
    edges = tmp_path / "g.edges"
    edges.write_text(text)
    out = tmp_path / "r.json"
    code = run("reconstruct", "--graph", edges, "--connections", 1, "--alpha", 2,
               "--centrality", "degree", "--seed", 1, "--out", out, "--jobs", 1)
    assert code == 1
    assert f"error: {edges}:" in capsys.readouterr().err
    assert not out.exists()


def pipeline_argv(command, tmp_path, seed, jobs):
    """A `command` run on missing input files, so nothing can start before the flags pass;
    jobs None leaves out --jobs."""
    if command == "sweep":
        head = ["sweep", "--mode", "nodes", "--from", 30, "--to", 30, "--repeats", 1]
    else:
        head = [command, "--graph", tmp_path / "missing.edges",
                "--truth", tmp_path / "missing.chron", "--alpha", 2]
    tail = [] if jobs is None else ["--jobs", jobs]
    return [*head, "--connections", 3, "--centrality", "degree", "--seed", seed,
            "--out", tmp_path / "out", *tail]


@pytest.mark.parametrize("command", ["reconstruct", "compare-bins", "sweep"])
def test_negative_seed_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, command):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran with a negative seed")

    monkeypatch.setattr(cli, "reconstruct_with_ranking", no_pipeline)
    monkeypatch.setattr(cli, "_sweep_point", no_pipeline)
    code = run(*pipeline_argv(command, tmp_path, seed=-1, jobs=1))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "master_seed" in err or "--seed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["reconstruct", "compare-bins", "sweep"])
@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, command, jobs):
    with pytest.raises(SystemExit) as exc:
        run(*pipeline_argv(command, tmp_path, seed=1, jobs=jobs))
    assert exc.value.code == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reconstruct", "compare-bins", "sweep"])
@pytest.mark.parametrize("env", ["0", "-2", "x", "1_6", " +2 ", "\u0663",
                                 pytest.param("1" * 5000, id="5000_ones")])
def test_bad_jobs_env_is_rejected_before_any_input(tmp_path, capsys, monkeypatch, command, env):
    # the input files are missing: an error naming them would mean they were read first
    def no_pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran with a bad NETCHRONO_JOBS")

    monkeypatch.setattr(cli, "reconstruct_with_ranking", no_pipeline)
    monkeypatch.setattr(cli, "_sweep_point", no_pipeline)
    monkeypatch.setenv("NETCHRONO_JOBS", env)
    code = run(*pipeline_argv(command, tmp_path, seed=1, jobs=None))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "NETCHRONO_JOBS" in err
    assert not (tmp_path / "out").exists()


def test_weight_summary_counts_levels_without_widening():
    # bincount over the whole 3000 x 3000 uint8 matrix widened it to 72 MB of intp
    counts = np.random.default_rng(3).integers(24, 51, size=(3000, 3000), dtype=np.uint8)
    counts[counts < 25] = 0  # no edge; every other entry a majority count of 50
    dg = WeightedDigraph._from_counts(np.arange(3000), counts, 50)
    tracemalloc.start()
    try:
        cli._weight_summary(dg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
