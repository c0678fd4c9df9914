"""The benchmark's tracer still reads the program it patches.

perfbench/tracer.py wraps the public functions of hibikit by name and reads
some of their parameters by name. This runs a few CLI jobs under it in a
fresh interpreter, so that renaming a function or parameter it reads fails
here rather than in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

JOBS = [
    ["cone", "--boolean", "2"],
    ["certify", "--boolean", "2", "--lmax", "2"],
    ["weightpoly", "--boolean", "2", "--face", "apex"],
    ["weightpoly", "--boolean", "2", "--face", "full"],
    ["permutahedron", "--boolean", "2", "--w", "0,1,1,3"],
    ["subdivide", "--boolean", "2", "--face", "apex", "--check", "3"],
    ["subdivide", "--boolean", "2", "--w", "0,1,1,3"],
]

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from hibikit.cli import main
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "summary": tracer.summary()}))
"""


def test_traced_jobs_run_and_count():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), json.dumps(JOBS)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(JOBS), proc.stderr
    counts = report["summary"]["counts"]
    for name in ("faces.found", "facets.found"):
        assert counts[name] > 0, name
    # the tracer adds to hibi.degree_basis per call of hibi.initial_ideal_dim
    # and hibi.intersection_dim, and neither function is in src any more
    assert counts["hibi.degree_basis"] == 0
    # the tracer counts the faces as the length of enumerate_faces' list:
    # B2's two faces, once for cone and once for certify
    assert counts["faces.found"] == 4
    # the apex subdivision, with its tight pair, reads the adjacency graph
    calls = report["summary"]["calls"]
    for name in ("subdivision.adjacency_graph", "subdivision.regular_subdivision"):
        assert calls[name] >= 1, name
