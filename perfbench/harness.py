"""One benchmark run of one workload.

A run writes its inputs, times set-up in fresh interpreters, then calls
`reconstruct_with_ranking` on the references with tracing off for about
`seconds` (at least one call per reference).  Every call is
checked; a traced run then repeats each reference under the span
wrappers at the workload's jobs value and, if that is above 1, at jobs 1.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse import csgraph, csr_matrix

import netchrono.reconstruction
from netchrono import evaluation
from netchrono.graph import Chronology

import spans
from workloads import Reference, Workload, read_inputs, write_inputs

# untraced runs time set-up half before and half after the timed calls, so that
# its median spans the run rather than the few seconds the probes take
SETUP_REPEATS = 6
PROBE = Path(__file__).with_name("setup_probe.py")

# name -> unit; the end-to-end metrics of an untraced run
END_TO_END = {
    "setup_s": "s",
    "reconstruct_s": "s",
    "reconstruct_tail_s": "s",
    "peak_rss_mb": "MB",
    "bqm": "score",
    "eta_pairs": "fraction",
    "success_frac": "fraction",
}

# name -> unit; the per-layer metrics of a traced run
PER_LAYER = {
    "reconstruction.break_cycles_s": "s",
    "reconstruction.break_probes": "count",
    "reconstruction.edges_removed": "count",
    "reconstruction.break_threshold_weight": "probability",
    "reconstruction.pairwise_s": "s",
    "reconstruction.bin_s": "s",
    "reconstruction.digraph_edges": "count",
    "reconstruction.digraph_bytes": "bytes",
    "reconstruction.map_s": "s",
    "reconstruction.bins": "count",
    "reconstruction.bin_size_max": "count",
    "reconstruction.synthetic_wall_s": "s",
    "reconstruction.fanout_speedup": "x",
    "graph.is_acyclic_s": "s",
    "graph.is_acyclic_calls": "count",
    "graph.csr_arrays_s": "s",
    "graph.remove_vertices_s": "s",
    "dcr.ranking_s": "s",
    "dcr.self_s": "s",
    "dcr.levels_per_network": "count",
    "dcr.ref_tie_fraction": "fraction",
    "centrality.compute_s": "s",
    "centrality.compute_calls": "count",
    "centrality.vertices_scored": "count",
    "ba.generate_s": "s",
    "ba.generate_calls": "count",
    "io.read_s": "s",
    "evaluation.score_s": "s",
    "trace.overhead_s": "s",
}


def bins_digest(bins) -> str:
    text = "\n".join(",".join(map(str, sorted(b))) for b in bins.bins)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _acyclic(dag) -> bool:
    """Independent of netchrono.graph: no self-loop and every strong component a singleton."""
    _, src, dst, _ = dag.arrays()
    n = dag.vertex_count
    if np.any(src == dst):
        return False
    mat = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    count, _ = csgraph.connected_components(mat, directed=True, connection="strong")
    return count == n


def _problems(ref: Reference, bins, dg, dag) -> list[str]:
    found = []
    members = [v for b in bins.bins for v in b]
    if any(not b for b in bins.bins) or len(members) != len(set(members)) \
            or set(members) != ref.graph.vertices:
        found.append("bins do not partition the reference vertex set")
    n = ref.graph.vertex_count
    if dg.edge_count != n * (n - 1) // 2:
        found.append(f"pairwise digraph has {dg.edge_count} edges, not one per vertex pair")
    if dag is None or not _acyclic(dag):
        found.append("cycle-broken digraph is not acyclic")
    return found


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, or the maximum
    when there are ten samples or fewer; with its description."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} samples (fewer than 11)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} samples (10 beyond)"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the waited-for pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _l3_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            return None
    return None


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(w: Workload, seed: int, root: Path) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "jobs": w.jobs,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
    }


class Run:
    """Calls, checks and tallies of one benchmark run."""

    def __init__(self, w: Workload, refs: list[Reference], log):
        self.w = w
        self.refs = refs
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.scores: dict[int, tuple[float, float]] = {}

    def call(self, ref: Reference, jobs: int, captured, recorder=None) -> float | None:
        """One checked reconstruction; its wall time, or None when it failed."""
        self.attempted += 1
        try:
            with recorder.span("reconstruct") if recorder else nullcontext():
                start = time.perf_counter()
                bins, dg, ref_rank = netchrono.reconstruction.reconstruct_with_ranking(
                    ref.graph, ref.cfg, jobs=jobs)
                elapsed = time.perf_counter() - start
            dag, captured.value = captured.value, None
            found = _problems(ref, bins, dg, dag)
            del dg, dag
            digest = bins_digest(bins)
            expected = self.digests.setdefault(ref.index, digest)
            if digest != expected:
                found.append(f"bins digest {digest} differs from {expected} (jobs {jobs})")
            if ref.index not in self.scores or recorder is not None:  # traced calls time scoring
                self.scores[ref.index] = (evaluation.bqm(ref.truth, bins),
                                          evaluation.eta_pairs(ref.truth, Chronology(ref_rank)))
        except Exception as exc:  # a failed call is counted, and the run goes on
            traceback.print_exc()
            captured.value = None
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            self.failed += 1
            self.log(f"FAILED reference {ref.index}: {'; '.join(found)}")
            return None
        return elapsed


def _setup_seconds(w: Workload, seed: int, src: Path, inputs: Path, repeats: int) -> list[float]:
    """Cold set-ups in fresh interpreters: import, read the inputs, and the warm-up call if any."""
    spec = json.dumps(dataclasses.asdict(w))
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, str(PROBE), str(src), str(inputs), spec, str(seed)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def _timed_calls(run_: Run, seconds: float, captured) -> list[float]:
    """Wall times of untraced calls, cycling over the references, until the
    next call would end after `seconds`; at least one call per reference."""
    samples = []
    start = time.perf_counter()
    while True:
        elapsed = run_.call(run_.refs[run_.attempted % len(run_.refs)], run_.w.jobs, captured)
        if elapsed is not None:
            samples.append(elapsed)
        spent, done = time.perf_counter() - start, run_.attempted
        if done >= len(run_.refs) and spent * (done + 1) / done > seconds:
            return samples


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path, work: Path, log) -> dict:
    write_inputs(w, seed, work)
    setup = [] if trace else _setup_seconds(w, seed, root / "src", work, SETUP_REPEATS // 2)
    refs, warm = read_inputs(w, seed, work)
    run_ = Run(w, refs, log)
    with spans.capturing(netchrono.reconstruction, "break_cycles") as captured:
        if warm is not None:
            netchrono.reconstruction.reconstruct_with_ranking(warm.graph, warm.cfg, jobs=w.jobs)
        samples = _timed_calls(run_, seconds, captured)
        peak_rss = _peak_rss_mb()
        for ref in refs:
            log(f"reference {ref.index}: bins digest {run_.digests.get(ref.index)}")
        reconstruct_s = statistics.median(samples) if samples else 0.0
        tail_s, tail_text = tail(samples) if samples else (0.0, "no samples")
        log(f"reconstruct_s: p50 of {len(samples)} samples; reconstruct_tail_s: {tail_text}")
        if trace:
            metrics = _traced(w, seed, work, run_, captured, reconstruct_s, log)
        else:
            setup += _setup_seconds(w, seed, root / "src", work, SETUP_REPEATS - len(setup))
            scores = list(run_.scores.values()) or [(0.0, 0.0)]
            metrics = {
                "setup_s": statistics.median(setup),
                "reconstruct_s": reconstruct_s,
                "reconstruct_tail_s": tail_s,
                "peak_rss_mb": peak_rss,
                "bqm": statistics.fmean(bqm for bqm, _ in scores),
                "eta_pairs": statistics.fmean(eta for _, eta in scores),
                "success_frac": 1.0 - run_.failed / run_.attempted,
            }
    log(f"fail_frac: {run_.failed}/{run_.attempted}")
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": run_.failed == 0,
        "attempted": run_.attempted,
        "failed": run_.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _traced(w: Workload, seed: int, work: Path, run_: Run, captured, untraced_s: float, log) -> dict:
    """Per-layer medians over traced calls, one per reference at each jobs value."""
    recorder = spans.Recorder()
    per_jobs: dict[int, list[dict]] = {}
    with spans.installed(recorder):
        read_inputs(w, seed, work)
        read_s = spans.read_seconds(recorder.spans)
        for jobs in sorted({w.jobs, 1}, reverse=True):
            per_jobs[jobs] = []
            for ref in run_.refs:
                recorder.spans.clear()
                if run_.call(ref, jobs, captured, recorder) is not None:
                    figures = spans.call_metrics(recorder.spans)
                    figures["reconstruct_traced_s"] = recorder.spans[0].duration
                    per_jobs[jobs].append(figures)
    if not per_jobs[w.jobs] or not per_jobs[1]:
        return {name: 0.0 for name in PER_LAYER}

    def median(jobs: int, key: str) -> float:
        return statistics.median(f[key] for f in per_jobs[jobs])

    metrics = {}
    for key in per_jobs[1][0]:
        side = 1 if key.startswith(spans.WORKER_SIDE) else w.jobs
        metrics[key] = median(side, key)
    metrics["reconstruction.synthetic_wall_s"] = median(w.jobs, "reconstruction.synthetic_wall_s")
    metrics["reconstruction.fanout_speedup"] = (
        median(1, "reconstruction.synthetic_wall_s") / metrics["reconstruction.synthetic_wall_s"])
    metrics["io.read_s"] = read_s
    metrics["trace.overhead_s"] = median(w.jobs, "reconstruct_traced_s") - untraced_s
    log(f"tracing overhead: traced reconstruct_s {median(w.jobs, 'reconstruct_traced_s'):.4f} s "
        f"- untraced p50 {untraced_s:.4f} s = {metrics['trace.overhead_s']:+.4f} s")
    return metrics
