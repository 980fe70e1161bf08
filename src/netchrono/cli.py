"""Command-line front end.

Subcommands: `generate` (BA network + chronology files, and a one-line
degree summary), `reconstruct` (full pipeline to a result JSON), `sweep`
(plain-vs-differential eta curves to CSV) and `compare-bins` (pipeline
bins against equal-bin-count centrality baselines).  `reconstruct` and
`compare-bins` share one pipeline body, `_run_pipeline`, so they write
the same `config` block and the same bins for the same flags.
All randomness hangs off --seed, so every invocation is reproducible;
sweep points/repeats and the per-synthetic pipeline work fan out over
--jobs worker processes (NETCHRONO_JOBS overrides the default).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io as nio
from .ba import BAConfig, generate_ba, shuffle_vertex_labels
from .baselines import BinOrdering, centrality_bins, degree_bins
from .centrality import CentralityKind, compute
from .dcr import differential_core_ranking, rank_descending
from .errors import (InvalidConfigError, NetchronoError, SizeMismatchError, _require_integer,
                     _require_seed)
from .evaluation import bqm, eta_pairs, probability_bucket_table
from .graph import Chronology, UndirectedGraph, WeightedDigraph, _level_counts
from .reconstruction import (PipelineConfig, child_seed, default_jobs, fan_out,
                             reconstruct_with_ranking)

_CENTRALITY_CHOICES = [k.value for k in CentralityKind]


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: NETCHRONO_JOBS or hardware threads)")


def _pipeline_flags() -> argparse.ArgumentParser:
    """The flags `_run_pipeline` reads, shared by `reconstruct` and `compare-bins`."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--graph", type=Path, required=True, help="reference network edge list")
    p.add_argument("--connections", type=int, required=True)
    p.add_argument("--alpha", type=int, default=50, help="synthetic network count (default 50)")
    p.add_argument("--centrality", choices=_CENTRALITY_CHOICES, default="betweenness")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="result JSON path")
    _add_jobs_flag(p)
    return p


def build_parser() -> argparse.ArgumentParser:
    pipeline = _pipeline_flags()
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
    g.add_argument("--shuffle-labels", action="store_true",
                   help="randomly relabel vertices so labels carry no arrival "
                        "information (chronology is rewritten to match)")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("reconstruct", parents=[pipeline],
                       help="run the arrival-order reconstruction pipeline")
    r.add_argument("--truth", type=Path, default=None, help="true chronology (enables metrics)")
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

    c = sub.add_parser("compare-bins", parents=[pipeline],
                       help="BQM of pipeline bins vs equal-count centrality binning")
    c.add_argument("--truth", type=Path, required=True, help="true chronology")
    c.set_defaults(func=cmd_compare_bins)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    g, chron = generate_ba(BAConfig(args.nodes, args.connections, args.seed))
    if args.shuffle_labels:
        g, chron = shuffle_vertex_labels(g, chron, child_seed(args.seed, 0))
    nio.write_edge_list(g, args.out)
    nio.write_chronology(chron, args.chronology)
    degrees = np.diff(g.csr_arrays()[1])
    mean_deg = 2 * g.edge_count / g.vertex_count
    print(f"vertices={g.vertex_count} edges={g.edge_count}")
    print(f"degree min={degrees.min()} max={degrees.max()} mean={mean_deg:.3f} "
          f"distinct={len(np.unique(degrees))}")
    return 0


def _run_pipeline(args: argparse.Namespace) -> tuple[UndirectedGraph, Chronology | None,
                                                     BinOrdering, WeightedDigraph, list[int], dict]:
    """The pipeline on --graph: the network, its --truth if given, the bins,
    the digraph, the reference ranking and the result's `config` block.
    The config and the truth, which must list exactly the network's
    vertices, are checked before any pipeline work."""
    cfg = PipelineConfig(
        alpha=args.alpha,
        connections=args.connections,
        kind=CentralityKind(args.centrality),
        master_seed=args.seed,
    )
    g = nio.read_edge_list(args.graph)
    truth = None
    if args.truth is not None:
        truth = nio.read_chronology(args.truth)
        labels = set(truth.order)
        if labels != g.vertices:
            raise SizeMismatchError(
                f"{args.truth} lists {len(labels)} vertices, {len(labels - g.vertices)} of them "
                f"not in {args.graph}, which has {g.vertex_count} vertices, "
                f"{len(g.vertices - labels)} of them missing from the chronology"
            )
    bins, dg, ref_rank = reconstruct_with_ranking(g, cfg, jobs=args.jobs)
    config = {
        "graph": str(args.graph),
        "nodes": g.vertex_count,
        "connections": args.connections,
        "alpha": args.alpha,
        "centrality": args.centrality,
        "seed": args.seed,
    }
    return g, truth, bins, dg, ref_rank, config


def _write_json(result: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


def _weight_summary(dg: WeightedDigraph) -> dict[str, float | None]:
    """Min, mean and max edge weight m / alpha, from the edges of each count m."""
    _, counts, alpha = dg.matrix()
    tally = _level_counts(counts, alpha)
    present = np.flatnonzero(tally) + 1
    if present.size == 0:
        return {"min_weight": None, "mean_weight": None, "max_weight": None}
    return {
        "min_weight": present[0] / alpha,
        "mean_weight": float(tally @ np.arange(1, alpha + 1) / (alpha * tally.sum())),
        "max_weight": present[-1] / alpha,
    }


def cmd_reconstruct(args: argparse.Namespace) -> int:
    _, truth, bins, dg, ref_rank, config = _run_pipeline(args)
    result = {
        "config": config,
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
        result["bucket_table"] = [dataclasses.asdict(row)
                                  for row in probability_bucket_table(dg, truth)]
    _write_json(result, args.out)
    print(f"bins={bins.delta} edges={dg.edge_count}", end="")
    if truth is not None:
        print(f" bqm={result['metrics']['bqm']:.6f} eta={result['metrics']['eta_pairs']:.6f}")
    else:
        print()
    return 0


def _sweep_point(task: tuple[BAConfig, CentralityKind]) -> tuple[float, float]:
    cfg, kind = task
    g, truth = generate_ba(cfg)
    # relabel so neither ranking can read arrival order out of the labels
    g, truth = shuffle_vertex_labels(g, truth, child_seed(cfg.seed, 0))
    plain = Chronology(rank_descending(compute(g, kind)).tolist())
    differential = Chronology(rank_descending(differential_core_ranking(g, kind)).tolist())
    return eta_pairs(truth, plain), eta_pairs(truth, differential)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.start > args.stop:
        raise NetchronoError(f"--from {args.start} exceeds --to {args.stop}")
    _require_integer(args.step, "--step", 1, error=NetchronoError)
    _require_integer(args.repeats, "--repeats", 1, error=NetchronoError)
    _require_seed(args.seed, "--seed")
    kind = CentralityKind(args.centrality)
    xs = list(range(args.start, args.stop + 1, args.step))
    tasks = []
    for pi, x in enumerate(xs):
        n, c = (x, args.connections) if args.mode == "nodes" else (args.nodes, x)
        for rep in range(args.repeats):
            try:
                cfg = BAConfig(n, c, child_seed(args.seed, pi, rep))
            except InvalidConfigError as exc:
                raise InvalidConfigError(f"sweep point x={x}: {exc}") from None
            tasks.append((cfg, kind))
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
    g, truth, bins, _, _, config = _run_pipeline(args)
    delta = bins.delta

    metrics = {"bqm_dcr": bqm(truth, bins)}
    for kind in CentralityKind:
        metrics[f"bqm_{kind.value}"] = bqm(truth, centrality_bins(g, kind, delta))
    by_degree = degree_bins(g)
    metrics["bqm_degree_bins"] = bqm(truth, by_degree)

    result = {
        "config": config,
        "delta": delta,
        "degree_bins_delta": by_degree.delta,
        "metrics": metrics,
    }
    _write_json(result, args.out)
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
