"""netchrono: predict node arrival order in preferential-attachment networks."""
from .ba import BAConfig, generate_ba, shuffle_vertex_labels
from .baselines import BinOrdering, centrality_bins, degree_bins
from .centrality import CentralityKind, ScoreTable, compute
from .dcr import differential_core_ranking, rank_descending
from .evaluation import BucketRow, bqm, eta_pairs, probability_bucket_table
from .graph import (
    Chronology,
    UndirectedGraph,
    WeightedDigraph,
    from_edge_list,
    is_acyclic,
    remove_vertices,
)
from .io import read_chronology, read_edge_list, write_chronology, write_edge_list
from .reconstruction import (
    PipelineConfig,
    bin_by_indegree,
    break_cycles,
    child_seed,
    map_and_predict,
    pairwise_digraph,
    reconstruct_with_ranking,
)

__version__ = "0.1.0"

__all__ = [
    "BAConfig",
    "BinOrdering",
    "BucketRow",
    "CentralityKind",
    "Chronology",
    "PipelineConfig",
    "ScoreTable",
    "UndirectedGraph",
    "WeightedDigraph",
    "bin_by_indegree",
    "bqm",
    "break_cycles",
    "centrality_bins",
    "child_seed",
    "compute",
    "degree_bins",
    "differential_core_ranking",
    "eta_pairs",
    "from_edge_list",
    "generate_ba",
    "is_acyclic",
    "map_and_predict",
    "pairwise_digraph",
    "probability_bucket_table",
    "rank_descending",
    "read_chronology",
    "read_edge_list",
    "reconstruct_with_ranking",
    "remove_vertices",
    "shuffle_vertex_labels",
    "write_chronology",
    "write_edge_list",
]
