"""Command-line front end.

Subcommands: `generate` (BA network + chronology files), `reconstruct`
(full pipeline to a result JSON), `sweep` (plain-vs-differential eta
curves to CSV) and `compare-bins` (equal-bin-count baseline comparison).
All randomness hangs off --seed, so every invocation is reproducible;
sweep points/repeats and the per-synthetic pipeline work fan out over
--jobs worker processes (NETCHRONO_JOBS overrides the default).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import io as nio
from .ba import (
    BAConfig,
    degree_histogram,
    estimate_power_law_exponent,
    generate_ba,
    shuffle_vertex_labels,
)
from .baselines import centrality_bins, degree_bins, ranking_to_chronology
from .centrality import CentralityKind
from .dcr import differential_core_ranking, rank_descending
from .errors import NetchronoError, SizeMismatchError
from .evaluation import bqm, bucket_count, eta_pairs, probability_bucket_table
from .graph import Chronology, UndirectedGraph, WeightedDigraph, _level_counts
from .reconstruction import (PipelineConfig, child_seed, default_jobs, fan_out,
                             reconstruct_with_ranking)

_CENTRALITY_CHOICES = [k.value for k in CentralityKind]


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: NETCHRONO_JOBS or hardware threads)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netchrono",
        description="Predict node arrival order in preferential-attachment networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a BA network with recorded chronology")
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--connections", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", type=Path, required=True, help="edge-list output path")
    g.add_argument("--chronology", type=Path, required=True, help="chronology output path")
    g.add_argument("--gamma", action="store_true",
                   help="fit and report the power-law degree exponent")
    g.add_argument("--gamma-kmin", type=int, default=None,
                   help="smallest degree used by the --gamma fit (default: --connections)")
    g.add_argument("--shuffle-labels", action="store_true",
                   help="randomly relabel vertices so labels carry no arrival "
                        "information (chronology is rewritten to match)")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("reconstruct", help="run the arrival-order reconstruction pipeline")
    r.add_argument("--graph", type=Path, required=True, help="reference network edge list")
    r.add_argument("--connections", type=int, required=True)
    r.add_argument("--alpha", type=int, default=50, help="synthetic network count (default 50)")
    r.add_argument("--centrality", choices=_CENTRALITY_CHOICES, default="betweenness")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out", type=Path, required=True, help="result JSON path")
    r.add_argument("--truth", type=Path, default=None, help="true chronology (enables metrics)")
    r.add_argument("--bucket-width", type=float, default=0.1)
    _add_jobs_flag(r)
    r.set_defaults(func=cmd_reconstruct)

    s = sub.add_parser(
        "sweep",
        help="eta of plain vs differential rankings over a parameter range",
        description="For each sweep point, generates fresh reference networks "
                    "(relabeled so vertex labels carry no arrival information), "
                    "scores the plain-centrality and differential-core orderings "
                    "against the recorded truth, and writes per-point means and "
                    "standard deviations as CSV.",
    )
    s.add_argument("--mode", choices=["nodes", "connections"], required=True)
    s.add_argument("--from", dest="start", type=int, required=True)
    s.add_argument("--to", dest="stop", type=int, required=True)
    s.add_argument("--step", type=int, default=100)
    s.add_argument("--nodes", type=int, default=1000,
                   help="fixed node count for --mode connections")
    s.add_argument("--connections", type=int, default=3,
                   help="fixed connection count for --mode nodes")
    s.add_argument("--centrality", choices=_CENTRALITY_CHOICES, default="betweenness")
    s.add_argument("--repeats", type=int, default=5)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", type=Path, required=True, help="CSV output path")
    _add_jobs_flag(s)
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("compare-bins",
                       help="BQM of pipeline bins vs equal-count centrality binning")
    c.add_argument("--graph", type=Path, required=True)
    c.add_argument("--truth", type=Path, required=True)
    c.add_argument("--connections", type=int, required=True)
    c.add_argument("--alpha", type=int, default=50)
    c.add_argument("--centrality", choices=_CENTRALITY_CHOICES, default="betweenness")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", type=Path, required=True, help="result JSON path")
    _add_jobs_flag(c)
    c.set_defaults(func=cmd_compare_bins)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    if args.gamma_kmin is not None and not args.gamma:
        raise NetchronoError("--gamma-kmin needs --gamma")
    if args.gamma_kmin is not None and args.gamma_kmin < 1:
        raise NetchronoError(f"--gamma-kmin must be >= 1, got {args.gamma_kmin}")
    g, chron = generate_ba(BAConfig(args.nodes, args.connections, args.seed))
    if args.shuffle_labels:
        g, chron = shuffle_vertex_labels(g, chron, child_seed(args.seed, 0))
    dist = degree_histogram(g)
    if args.gamma:  # fit before writing, so a failed fit leaves no files
        k_min = args.gamma_kmin if args.gamma_kmin is not None else args.connections
        fitted = estimate_power_law_exponent(dist, k_min)
    nio.write_edge_list(g, args.out)
    nio.write_chronology(chron, args.chronology)
    degrees = sorted(dist.histogram)
    mean_deg = 2 * g.edge_count / g.vertex_count
    print(f"vertices={g.vertex_count} edges={g.edge_count}")
    print(f"degree min={degrees[0]} max={degrees[-1]} mean={mean_deg:.3f} "
          f"distinct={len(degrees)}")
    if args.gamma:
        print(f"gamma={fitted.gamma_estimate:.4f} normalization={fitted.normalization:.6g} "
              f"k_min={k_min}")
    return 0


def _load_reference(graph_path: Path, truth_path: Path | None) -> tuple[UndirectedGraph, Chronology | None]:
    """The reference network and, if given, its true chronology, which must
    list exactly the network's vertices (checked before any pipeline work)."""
    g = nio.read_edge_list(graph_path)
    if truth_path is None:
        return g, None
    truth = nio.read_chronology(truth_path)
    labels = set(truth.order)
    if labels != g.vertices:
        raise SizeMismatchError(
            f"{truth_path} lists {len(labels)} vertices, {len(labels - g.vertices)} of them "
            f"not in {graph_path}, which has {g.vertex_count} vertices, "
            f"{len(g.vertices - labels)} of them missing from the chronology"
        )
    return g, truth


def _bucket_rows_json(rows) -> list[dict]:
    return [
        {
            "low": r.range_low,
            "high": r.range_high,
            "edge_fraction": r.edge_fraction,
            "correct_fraction": r.correct_fraction,
            "count": r.edge_count,
        }
        for r in rows
    ]


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        alpha=args.alpha,
        connections=args.connections,
        kind=CentralityKind(args.centrality),
        master_seed=args.seed,
    )


def _weight_summary(dg: WeightedDigraph) -> dict[str, float | None]:
    """Min, mean and max edge weight, from the edge count of each weight level."""
    _, codes, levels = dg.matrix()
    counts = _level_counts(codes, len(levels))
    present = np.flatnonzero(counts)
    if present.size == 0:
        return {"min_weight": None, "mean_weight": None, "max_weight": None}
    return {
        "min_weight": float(levels[present[0]]),
        "mean_weight": float(counts @ levels / counts.sum()),
        "max_weight": float(levels[present[-1]]),
    }


def cmd_reconstruct(args: argparse.Namespace) -> int:
    bucket_count(args.bucket_width)  # reject a bad width or config before any work
    cfg = _pipeline_config(args)
    g, truth = _load_reference(args.graph, args.truth)
    bins, dg, ref_rank = reconstruct_with_ranking(g, cfg, jobs=args.jobs)

    result = {
        "config": {
            "graph": str(args.graph),
            "nodes": g.vertex_count,
            "connections": args.connections,
            "alpha": args.alpha,
            "centrality": args.centrality,
            "seed": args.seed,
        },
        "bins": [sorted(b) for b in bins.bins],
        "delta": bins.delta,
        "digraph_summary": {
            "vertices": dg.vertex_count,
            "edges": dg.edge_count,
            **_weight_summary(dg),
        },
        "metrics": {"bqm": None, "eta_pairs": None},
        "bucket_table": None,
    }
    if truth is not None:
        result["metrics"]["bqm"] = bqm(truth, bins)
        result["metrics"]["eta_pairs"] = eta_pairs(truth, Chronology(ref_rank))
        result["bucket_table"] = _bucket_rows_json(
            probability_bucket_table(dg, truth, args.bucket_width)
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"bins={bins.delta} edges={dg.edge_count}", end="")
    if truth is not None:
        print(f" bqm={result['metrics']['bqm']:.6f} eta={result['metrics']['eta_pairs']:.6f}")
    else:
        print()
    return 0


def _sweep_point(task: tuple) -> tuple[float, float]:
    n, c, kind_value, seed = task
    kind = CentralityKind(kind_value)
    g, truth = generate_ba(BAConfig(n, c, seed))
    # relabel so neither ranking can read arrival order out of the labels
    g, truth = shuffle_vertex_labels(g, truth, child_seed(seed, 0))
    plain = ranking_to_chronology(g, kind)
    differential = Chronology(rank_descending(differential_core_ranking(g, kind)))
    return eta_pairs(truth, plain), eta_pairs(truth, differential)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.start > args.stop:
        raise NetchronoError(f"--from {args.start} exceeds --to {args.stop}")
    if args.step < 1:
        raise NetchronoError("--step must be >= 1")
    if args.repeats < 1:
        raise NetchronoError("--repeats must be >= 1")
    if args.seed < 0:
        raise NetchronoError(f"--seed must be >= 0, got {args.seed}")
    xs = list(range(args.start, args.stop + 1, args.step))
    tasks = []
    for pi, x in enumerate(xs):
        n, c = (x, args.connections) if args.mode == "nodes" else (args.nodes, x)
        if n <= c:
            raise NetchronoError(f"sweep point x={x} gives nodes={n} <= connections={c}")
        for rep in range(args.repeats):
            tasks.append((n, c, args.centrality, child_seed(args.seed, pi, rep)))
    results = fan_out(_sweep_point, tasks, args.jobs)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "eta_plain_mean", "eta_dcr_mean", "eta_plain_std", "eta_dcr_std"])
        for pi, x in enumerate(xs):
            chunk = results[pi * args.repeats:(pi + 1) * args.repeats]
            plain = np.array([p for p, _ in chunk])
            dcr_ = np.array([d for _, d in chunk])
            writer.writerow([
                x,
                f"{plain.mean():.10f}", f"{dcr_.mean():.10f}",
                f"{plain.std():.10f}", f"{dcr_.std():.10f}",
            ])
    print(f"wrote {len(xs)} sweep rows to {args.out}")
    return 0


def cmd_compare_bins(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args)
    g, truth = _load_reference(args.graph, args.truth)
    bins, _, _ = reconstruct_with_ranking(g, cfg, jobs=args.jobs)
    delta = bins.delta

    metrics = {"bqm_dcr": bqm(truth, bins)}
    for kind in CentralityKind:
        metrics[f"bqm_{kind.value}"] = bqm(truth, centrality_bins(g, kind, delta))
    by_degree = degree_bins(g)
    metrics["bqm_degree_bins"] = bqm(truth, by_degree)

    result = {
        "config": {
            "graph": str(args.graph),
            "nodes": g.vertex_count,
            "connections": args.connections,
            "alpha": args.alpha,
            "centrality": args.centrality,
            "seed": args.seed,
        },
        "delta": delta,
        "degree_bins_delta": by_degree.delta,
        "metrics": metrics,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"delta={delta}")
    for key, value in metrics.items():
        print(f"{key}={value:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        if hasattr(args, "jobs") and args.jobs is None:
            args.jobs = default_jobs()  # before any subcommand reads input
        return args.func(args)
    except (NetchronoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
