import os
import subprocess
import sys

import netchrono


def test_every_export_resolves():
    assert [name for name in netchrono.__all__ if not hasattr(netchrono, name)] == []
    assert len(set(netchrono.__all__)) == len(netchrono.__all__)


def test_import_leaves_csgraph_unloaded():
    # the library's cycle test is a source peel; scipy is only the Brandes product
    src = os.path.dirname(os.path.dirname(netchrono.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import netchrono, sys; print('scipy.sparse.csgraph' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
