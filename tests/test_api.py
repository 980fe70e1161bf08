import json
import os
import subprocess
import sys
from pathlib import Path

import netchrono
from netchrono.centrality import CentralityKind, compute
from netchrono.graph import from_edge_list

EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)]


def test_every_export_resolves():
    assert [name for name in netchrono.__all__ if not hasattr(netchrono, name)] == []
    assert len(set(netchrono.__all__)) == len(netchrono.__all__)


def test_each_argument_rule_is_written_once():
    # a hand-written copy of a rule is where a missed case (a bool, a float) slips through
    texts = {p.name: p.read_text() for p in Path(netchrono.__file__).parent.glob("*.py")}
    assert [name for name, text in texts.items() if "Integral" in text] == ["errors.py"]
    assert sum(text.count("must be a CentralityKind") for text in texts.values()) == 1


def test_each_scoring_decision_is_written_once():
    # the kind picks its kernel in centrality.py alone, and the pipeline flags are declared once
    texts = {p.name: p.read_text() for p in Path(netchrono.__file__).parent.glob("*.py")}
    for kernel in ("degree_scores(", "betweenness_scores(", "eigenvector_scores("):
        calls = [name for name, text in texts.items()
                 if text.count(kernel) > text.count(f"def {kernel}")]
        assert calls == ["centrality.py"], kernel
    assert texts["cli.py"].count('"--alpha"') == 1


def test_import_loads_neither_scipy_nor_the_process_pool():
    # scipy is imported by the Brandes product on first use, the pool by fan_out
    src = os.path.dirname(os.path.dirname(netchrono.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"""
import json, sys
import netchrono, netchrono.cli
from netchrono.centrality import CentralityKind, compute
from netchrono.graph import from_edge_list
cold = sorted(m for m in sys.modules
              if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")
scores = compute(from_edge_list({EDGES!r}), CentralityKind.BETWEENNESS).scores
print(json.dumps([cold, sorted(scores.items()), "scipy.sparse" in sys.modules]))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    cold, scores, sparse_after = json.loads(out)
    assert cold == []
    want = compute(from_edge_list(EDGES), CentralityKind.BETWEENNESS).scores
    assert scores == [[v, s] for v, s in sorted(want.items())]
    assert sparse_after
