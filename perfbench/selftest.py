"""Self-test of the benchmark on every workload shrunk to a few vertices.

    python3 perfbench/selftest.py

Checks that a reconstruction under the span wrappers, at the workload's
jobs value and at jobs 1, gives the same bins digest as one without
them; that untraced and traced runs report no failure; and that they emit
exactly the end-to-end and per-layer metrics that BENCHMARK.json
declares, each with its declared unit.  Exits 1 on the first mismatch.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys

from run import ROOT, THREAD_VARIABLES, scratch_directory


def tiny(w):
    return dataclasses.replace(w, nodes=40, alpha=4, references=min(w.references, 3))


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import netchrono.reconstruction
    import spans
    from workloads import WORKLOADS, read_inputs, write_inputs

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    check({w["name"] for w in declared["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json lists every workload")
    with scratch_directory() as work:
        for w in map(tiny, WORKLOADS.values()):
            seed = 7
            inputs = work / w.name
            inputs.mkdir()
            write_inputs(w, seed, inputs)
            refs, _ = read_inputs(w, seed, inputs)
            ref = refs[0]
            plain = harness.bins_digest(
                netchrono.reconstruction.reconstruct_with_ranking(ref.graph, ref.cfg, jobs=w.jobs)[0])
            with spans.installed(spans.Recorder()):
                traced = {jobs: harness.bins_digest(
                    netchrono.reconstruction.reconstruct_with_ranking(ref.graph, ref.cfg, jobs=jobs)[0])
                    for jobs in {w.jobs, 1}}
            check(all(d == plain for d in traced.values()),
                  f"{w.name}: tracing leaves the bins digest {plain} unchanged at jobs {sorted(traced)}")
            for trace in (False, True):
                run_dir = work / f"{w.name}-{int(trace)}"
                run_dir.mkdir()
                result = harness.run(w, seed, 0.0, trace, ROOT, run_dir, log=lambda line: None)
                label = f"{w.name} trace {int(trace)}"
                check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                      f"{label}: {result['attempted']} reconstructions, none failed")
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                check(emitted == wanted[trace], f"{label}: emits every declared metric with its unit")
                check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                      f"{label}: every value is a number")
    return 0


if __name__ == "__main__":
    sys.exit(main())
