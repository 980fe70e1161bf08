"""Smoke test of the benchmark's span wrappers against the current pipeline.

One N = 40 reconstruction runs under `perfbench/spans.installed`, the way
a traced benchmark call does.  The spans must yield every per-layer
metric that BENCHMARK.json declares (three of them the benchmark derives
from more than one call, see below), and tracing must leave the bins
unchanged.  The test only imports from `perfbench/`.  A second test runs
`perfbench/selftest.py`, so that a library change which removes a name
the benchmark looks up fails here and not only in a benchmark run.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netchrono.evaluation
import netchrono.io
import netchrono.reconstruction
from netchrono import (
    BAConfig,
    CentralityKind,
    Chronology,
    PipelineConfig,
    child_seed,
    generate_ba,
    shuffle_vertex_labels,
)

ROOT = Path(__file__).resolve().parents[1]

# fanout_speedup divides the synthetic wall time at jobs 1 by that at the
# workload's jobs; trace.overhead_s subtracts the untraced median; io.read_s
# comes from the read spans of the input loading, checked here separately
ACROSS_CALLS = {"reconstruction.fanout_speedup", "trace.overhead_s", "io.read_s"}


@pytest.fixture(scope="module")
def spans():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import spans as module
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_reconstruction_yields_declared_layers(spans, tmp_path):
    g, truth = generate_ba(BAConfig(40, 3, 5))
    g, truth = shuffle_vertex_labels(g, truth, child_seed(5, 0))
    netchrono.io.write_edge_list(g, tmp_path / "g.edges")
    netchrono.io.write_chronology(truth, tmp_path / "g.chron")
    cfg = PipelineConfig(alpha=4, connections=3, kind=CentralityKind.DEGREE, master_seed=5)
    untraced = netchrono.reconstruction.reconstruct_with_ranking(g, cfg, jobs=1)[0]

    recorder = spans.Recorder()
    with spans.installed(recorder):
        g = netchrono.io.read_edge_list(tmp_path / "g.edges")
        truth = netchrono.io.read_chronology(tmp_path / "g.chron")
        read_s = spans.read_seconds(recorder.spans)
        recorder.spans.clear()
        with recorder.span("reconstruct"):
            bins, dg, ref_rank = netchrono.reconstruction.reconstruct_with_ranking(g, cfg, jobs=1)
        netchrono.evaluation.bqm(truth, bins)
        netchrono.evaluation.eta_pairs(truth, Chronology(ref_rank))
    metrics = spans.call_metrics(recorder.spans)

    assert bins == untraced
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == declared - ACROSS_CALLS
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())
    assert read_s > 0.0
    assert metrics["ba.generate_calls"] == cfg.alpha
    assert metrics["reconstruction.bins"] == bins.delta
    # the digraph fields must keep reading the digraph, whatever its storage
    assert metrics["reconstruction.digraph_edges"] == 40 * 39 // 2
    assert metrics["reconstruction.break_probes"] >= 1
    dag = netchrono.reconstruction.break_cycles(dg)
    assert metrics["reconstruction.edges_removed"] == dg.edge_count - dag.edge_count


def test_benchmark_selftest_passes():
    # every workload shrunk to N = 40, traced and untraced, against BENCHMARK.json
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no bytecode cache in perfbench/
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
