"""Golden-result guard: the pipeline's output at a fixed seed, pinned by digest.

For each base centrality, BA(200, 3) seed 11 relabeled with shuffle seed
child_seed(11, 0) (as `generate --shuffle-labels` does) is reconstructed
with alpha = 50, master seed 11, at jobs 1 and again at jobs 2, where the
synthetic ranks come from pool workers.  Three sha256 digests pin the
result: the bins, the raw bytes of the pre-cycle-break digraph arrays
(labels, src, dst, weights) and the probability bucket table rows.  Any
change to them must be a deliberate change of method, with new digests.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from netchrono import (
    BAConfig,
    CentralityKind,
    PipelineConfig,
    child_seed,
    generate_ba,
    probability_bucket_table,
    shuffle_vertex_labels,
)
from netchrono.reconstruction import reconstruct_with_ranking

SEED, N, C, ALPHA = 11, 200, 3, 50

GOLDEN = {
    CentralityKind.DEGREE: (
        "54268af2e40fb7cc4b92d8eab6a825d14d8d3766923516fa12ef4ae38332552a",
        "1920e78b5ebe4412183dc66bbeed3b1e24232157efc6c132b2f1df1c74cff9d8",
        "c04ac63c6bb87d75516931be0a784f9cdef50485f1d45f2eefe867f517399142"),
    CentralityKind.BETWEENNESS: (
        "9a343be30420ffa387d8021c0bd83eaa6d2df8a5a72ce473049ab89d74fd68c7",
        "3766afac79fcd0701199d3587de4769df5be7c62c87f52947937bf26fd29da58",
        "240e79dd653842431420c63980c700d6be2a1362847c34e93c6e75a1668e962e"),
    CentralityKind.EIGENVECTOR: (
        "43a07dc16b03ef42008a252309decbb0c2a204c86ae245bcfe9914313470d54a",
        "cebbb5df0c5c4248fe519be733a1fbadfc5455fc5ea9eee1dd1af5f78699c7ea",
        "92cf1779ae04452bf27db570bd1d7ed8f8bb8d2858b00be036ecd463e897ab6d"),
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def digests(kind: CentralityKind, jobs: int) -> tuple[str, str, str]:
    g0, truth0 = generate_ba(BAConfig(N, C, SEED))
    g, truth = shuffle_vertex_labels(g0, truth0, child_seed(SEED, 0))
    cfg = PipelineConfig(alpha=ALPHA, connections=C, kind=kind, master_seed=SEED)
    bins, dg, _ = reconstruct_with_ranking(g, cfg, jobs=jobs)
    bins_text = "\n".join(",".join(map(str, sorted(b))) for b in bins.bins)
    labels, src, dst, w = dg.arrays()
    arrays = (np.ascontiguousarray(labels, dtype=np.int64), np.ascontiguousarray(src, dtype=np.int64),
              np.ascontiguousarray(dst, dtype=np.int64), np.ascontiguousarray(w, dtype=np.float64))
    rows = "\n".join(
        f"{r.low!r} {r.high!r} {r.edge_fraction!r} {r.correct_fraction!r} {r.count}"
        for r in probability_bucket_table(dg, truth))
    return (_sha([bins_text.encode()]), _sha(a.tobytes() for a in arrays), _sha([rows.encode()]))


@pytest.mark.parametrize("kind", list(GOLDEN), ids=lambda k: k.value)
def test_pipeline_output_is_pinned(kind):
    assert digests(kind, jobs=1) == GOLDEN[kind]


@pytest.mark.parametrize("kind", list(GOLDEN), ids=lambda k: k.value)
def test_pipeline_output_is_pinned_across_worker_processes(kind):
    # the synthetic ranks come back from pool workers instead
    assert digests(kind, jobs=2) == GOLDEN[kind]
