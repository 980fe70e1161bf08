"""Spans that the benchmark records around calls into netchrono's modules.

`installed(recorder)` wraps each traced function on every name through
which a netchrono module can look it up (`from .graph import is_acyclic`
binds a second name in `netchrono.reconstruction`), plus the
`UndirectedGraph.csr_arrays` method, and restores the originals on exit.
A wrapper records only in the process that installed it: pool workers
forked during a traced call keep no spans, so work done in workers is
measured on a jobs-1 call, where every stage runs in process.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

import netchrono.graph


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans of the installing process, each with its parent's index."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if note is not None:
                s.info = note(args, out)  # outside the span, inside its parent
            return out

        return wrapper


def _tie_fraction(table) -> float:
    """Share of vertices whose score equals another vertex's score."""
    _, counts = np.unique(np.fromiter(table.scores.values(), dtype=np.float64), return_counts=True)
    return float(counts[counts > 1].sum()) / max(1, len(table.scores))


def _break_note(args, out) -> dict:
    w = args[0].arrays()[3]
    removed = len(w) - out.edge_count
    # the removed edges are a prefix of the ascending weight order
    threshold = float(np.partition(w, removed - 1)[removed - 1]) if removed else 0.0
    return {"removed": removed, "threshold": threshold}


# span name -> (defining module, function name, note on (args, result))
TRACED = {
    "pairwise_digraph": ("netchrono.reconstruction", "pairwise_digraph",
                         lambda args, out: {"edges": out.edge_count,
                                            "bytes": sum(a.nbytes for a in out.arrays())}),
    "break_cycles": ("netchrono.reconstruction", "break_cycles", _break_note),
    "bin_by_indegree": ("netchrono.reconstruction", "bin_by_indegree",
                        lambda args, out: {"bins": out.delta,
                                           "bin_size_max": max(len(b) for b in out.bins)}),
    "map_and_predict": ("netchrono.reconstruction", "map_and_predict", None),
    "is_acyclic": ("netchrono.graph", "is_acyclic", None),
    "remove_vertices": ("netchrono.graph", "remove_vertices", None),
    "differential_core_ranking": ("netchrono.dcr", "differential_core_ranking",
                                  lambda args, out: {"tie_fraction": _tie_fraction(out)}),
    "compute": ("netchrono.centrality", "compute",
                lambda args, out: {"vertices": args[0].vertex_count}),
    "generate_ba": ("netchrono.ba", "generate_ba", None),
    "bqm": ("netchrono.evaluation", "bqm", None),
    "eta_pairs": ("netchrono.evaluation", "eta_pairs", None),
    "read_edge_list": ("netchrono.io", "read_edge_list", None),
    "read_chronology": ("netchrono.io", "read_chronology", None),
}


@contextmanager
def patched(owner, attr: str, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def installed(recorder: Recorder):
    """Route every traced function and `UndirectedGraph.csr_arrays` through `recorder`."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "netchrono" or n.startswith("netchrono."))]
    with ExitStack() as stack:
        for name, (module, attr, note) in TRACED.items():
            fn = getattr(sys.modules[module], attr)
            wrapper = recorder.wrap(name, fn, note)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is fn:
                        stack.enter_context(patched(m, binding, wrapper))
        cls = netchrono.graph.UndirectedGraph
        stack.enter_context(
            patched(cls, "csr_arrays", recorder.wrap("csr_arrays", cls.csr_arrays, None)))
        yield


@contextmanager
def capturing(module, attr: str):
    """Patch `module.attr` to keep its latest result in `.value` of the yielded object."""
    fn = getattr(module, attr)
    box = SimpleNamespace(value=None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        box.value = fn(*args, **kwargs)
        return box.value

    with patched(module, attr, wrapper):
        yield box


def call_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced reconstruction.

    spans[0] is the benchmark's span around `reconstruct_with_ranking`; the
    scoring spans follow it as roots of their own.
    """
    by_name: dict[str, list[int]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def total(*names: str) -> float:
        return sum((spans[i].duration for n in names for i in by_name[n]), 0.0)

    def only(name: str) -> Span:
        (i,) = by_name[name]
        return spans[i]

    dcr = by_name["differential_core_ranking"]
    ref_dcr = spans[next(i for i in dcr if spans[i].parent == 0)]
    pairwise, brk, binned = only("pairwise_digraph"), only("break_cycles"), only("bin_by_indegree")
    brk_index = by_name["break_cycles"][0]
    return {
        "reconstruction.break_cycles_s": brk.duration,
        "reconstruction.break_probes": sum(
            1 for i in by_name["is_acyclic"] if spans[i].parent == brk_index),
        "reconstruction.edges_removed": brk.info["removed"],
        "reconstruction.break_threshold_weight": brk.info["threshold"],
        "reconstruction.pairwise_s": pairwise.duration,
        "reconstruction.bin_s": binned.duration,
        "reconstruction.digraph_edges": pairwise.info["edges"],
        "reconstruction.digraph_bytes": pairwise.info["bytes"],
        "reconstruction.map_s": total("map_and_predict"),
        "reconstruction.bins": binned.info["bins"],
        "reconstruction.bin_size_max": binned.info["bin_size_max"],
        "reconstruction.synthetic_wall_s": pairwise.start - ref_dcr.end,
        "graph.is_acyclic_s": total("is_acyclic"),
        "graph.is_acyclic_calls": len(by_name["is_acyclic"]),
        "graph.csr_arrays_s": total("csr_arrays"),
        "graph.remove_vertices_s": total("remove_vertices"),
        "dcr.ranking_s": total("differential_core_ranking"),
        "dcr.self_s": sum(spans[i].duration - child_time[i] for i in dcr),
        "dcr.levels_per_network": len(by_name["remove_vertices"]) / len(dcr),
        "dcr.ref_tie_fraction": ref_dcr.info["tie_fraction"],
        "centrality.compute_s": total("compute"),
        "centrality.compute_calls": len(by_name["compute"]),
        "centrality.vertices_scored": sum(spans[i].info["vertices"] for i in by_name["compute"]),
        "ba.generate_s": total("generate_ba"),
        "ba.generate_calls": len(by_name["generate_ba"]),
        "evaluation.score_s": total("bqm", "eta_pairs"),
    }


# figures of work that runs in pool workers when jobs > 1; taken from jobs-1 calls
WORKER_SIDE = ("reconstruction.map_s", "graph.csr_arrays_s", "graph.remove_vertices_s",
               "dcr.", "centrality.", "ba.")


def read_seconds(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.name in ("read_edge_list", "read_chronology"))
