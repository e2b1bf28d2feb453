"""Preprocessing, the .prt bytes and the routes do not depend on the BLAS
thread count: geometry goes through the elementwise kernel in `geometry`."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_CHILD = """
import hashlib, json
import numpy as np
from polyroute.cli import generate_mesh
from polyroute.router import route
from polyroute.tables import deserialize, preprocess_mesh, serialize

blob = serialize(preprocess_mesh(generate_mesh("sphere", 100, 0), 0.4))
system = deserialize(blob)
rng = np.random.default_rng(0)
pairs = []
while len(pairs) < 50:
    s, t = (int(x) for x in rng.integers(100, size=2))
    if s != t:
        pairs.append((s, t))
print(json.dumps({"prt_sha256": hashlib.sha256(blob).hexdigest(),
                  "routes": [route(s, t, system).vertices for s, t in pairs]}))
"""


def _run_child(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_prt_and_routes_independent_of_blas_threads():
    one, two = _run_child(1), _run_child(2)
    assert one["prt_sha256"] == two["prt_sha256"]
    assert len(one["routes"]) == 50
    assert one["routes"] == two["routes"]
