"""Time one cold set-up of a workload in a fresh interpreter and print it.

Set-up is importing netchrono, reading every reference edge list and true
chronology through `netchrono.io` and, on a workload with a warm-up, one
reconstruction of the warm-up reference.

    python3 setup_probe.py <src dir> <inputs dir> <workload json> <seed>
"""
import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    src, inputs, spec, seed = sys.argv[1:]
    sys.path.insert(0, src)
    import netchrono.reconstruction
    from workloads import Workload, read_inputs

    w = Workload(**json.loads(spec))
    _, warm = read_inputs(w, int(seed), Path(inputs))
    if warm is not None:
        netchrono.reconstruction.reconstruct_with_ranking(warm.graph, warm.cfg, jobs=w.jobs)
    print(f"{time.perf_counter() - START:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
