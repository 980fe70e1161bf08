"""Benchmark workloads and their input files.

Every input derives from the run's seed alone.  Each reference network is
BA(N, C) relabeled exactly as `netchrono generate --shuffle-labels` does,
and is written with `netchrono.io` as an edge list plus its true
chronology; the program under test only ever reads those files.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from netchrono import io as nio
from netchrono.ba import BAConfig, generate_ba, shuffle_vertex_labels
from netchrono.centrality import CentralityKind
from netchrono.graph import Chronology, UndirectedGraph
from netchrono.reconstruction import PipelineConfig, child_seed


@dataclass(frozen=True)
class Workload:
    """`references` reference networks of `nodes` vertices, each reconstructed
    with `alpha` synthetic networks over `jobs` worker processes."""

    name: str
    centrality: str
    nodes: int
    jobs: int
    references: int = 1
    alpha: int = 50
    connections: int = 3

    @property
    def warmup(self) -> bool:
        """A batch of many small calls is timed warm: set-up includes one
        reconstruction of an extra reference, made from the seed like the rest."""
        return self.references > 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("degree-n3000", "degree", nodes=3000, jobs=1),
        Workload("betweenness-n1000", "betweenness", nodes=1000, jobs=2),
        Workload("eigenvector-n300-batch", "eigenvector", nodes=300, jobs=2, references=16),
    )
}


@dataclass(frozen=True)
class Reference:
    """One reference network, its true chronology and its pipeline config."""

    index: int
    graph: UndirectedGraph
    truth: Chronology
    cfg: PipelineConfig


def _derived_seed(seed: int, index: int, purpose: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(index, purpose))
    return int(ss.generate_state(1, np.uint64)[0])


def _indices(w: Workload) -> range:
    # the warm-up reference, when there is one, takes the index after the batch
    return range(w.references + (1 if w.warmup else 0))


def _paths(directory: Path, index: int) -> tuple[Path, Path]:
    return directory / f"ref-{index}.edges", directory / f"ref-{index}.chron"


def write_inputs(w: Workload, seed: int, directory: Path) -> None:
    for i in _indices(w):
        graph_seed = _derived_seed(seed, i, 0)
        g, chron = generate_ba(BAConfig(w.nodes, w.connections, graph_seed))
        g, chron = shuffle_vertex_labels(g, chron, child_seed(graph_seed, 0))
        edges, truth = _paths(directory, i)
        nio.write_edge_list(g, edges)
        nio.write_chronology(chron, truth)


def read_inputs(w: Workload, seed: int, directory: Path) -> tuple[list[Reference], Reference | None]:
    """The batch of references, and the warm-up reference (None without warm-up)."""
    refs = []
    for i in _indices(w):
        edges, truth = _paths(directory, i)
        cfg = PipelineConfig(
            alpha=w.alpha,
            connections=w.connections,
            kind=CentralityKind(w.centrality),
            master_seed=_derived_seed(seed, i, 1),
        )
        refs.append(Reference(i, nio.read_edge_list(edges), nio.read_chronology(truth), cfg))
    if w.warmup:
        return refs[:-1], refs[-1]
    return refs, None
