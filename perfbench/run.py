"""netchrono benchmark: one run of one workload.

    python3 perfbench/run.py --workload degree-n3000 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Inputs are generated from --seed and written to a scratch
directory under `.perfbench-work/`, removed on exit.  Progress, the run
context and the bins digests go to standard output; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
also repeats each reference under span wrappers and reports the
per-layer ones instead.  Workloads are listed in `workloads.py`; the
self-test in `selftest.py` runs every workload shrunk to a few vertices.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# read by BLAS and OpenMP when numpy loads, so pinned before netchrono is imported;
# with one thread each, jobs 2 never runs more threads than nproc
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@contextmanager
def scratch_directory():
    """A fresh directory under .perfbench-work/, removed with its contents on exit."""
    parent = ROOT / ".perfbench-work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:  # another run still uses it
            pass


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="seconds of timed calls with tracing off, at least one per reference")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "netchrono" / "__init__.py").is_file():
        print(f"error: no netchrono source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports numpy, so only after the thread pinning
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("context " + json.dumps(harness.context(workload, args.seed, ROOT)), flush=True)
    with scratch_directory() as work:
        result = harness.run(workload, args.seed, args.seconds, bool(args.trace), ROOT, work,
                             log=lambda line: print(line, flush=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
