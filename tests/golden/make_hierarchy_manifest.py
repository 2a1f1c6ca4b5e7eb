"""Regenerate ``hierarchy_manifest.json``, the golden digests of ``evoalg hierarchy``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_hierarchy_manifest.py

Each scenario is run through ``evoalg.cli.main``, to files or with
``--stdout``; the manifest keeps the scenario, the flag, the exit code, the
stderr text (the output directory shown as ``<out>``) and the sha256 of
``hierarchy.json`` and ``hierarchy.txt``, or of stdout.
``tests/test_golden.py`` reruns every entry and compares.  Regenerate only
when a report is meant to change, and list each changed entry in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from evoalg import cli

try:
    from .make_build_manifest import EDGE_VERTEX_WEIGHTS, POTTS, _path, _scenario, _vertices
except ImportError:  # run as a script
    from make_build_manifest import EDGE_VERTEX_WEIGHTS, POTTS, _path, _scenario, _vertices

MANIFEST = Path(__file__).with_name("hierarchy_manifest.json")
REPORTS = ("hierarchy.json", "hierarchy.txt")
PATH6_ESCAPED = _scenario(6, _path(_vertices(6)), ['q"', "\\"], POTTS)

SCENARIOS = {
    # the shape of the heredity workload: 7,168 flows, and counts null on a disconnected graph
    "two_paths3_potts": (_scenario(6, _path(_vertices(3)) + _path(_vertices(6)[3:]), ["a", "b"], POTTS), False),
    # labels that JSON escapes, to files and to stdout
    "path6_k2_escaped_labels": (PATH6_ESCAPED, False),
    "path6_k2_escaped_labels_stdout": (PATH6_ESCAPED, True),
    # one edge plus one vertex, k=3, with weights and labels that JSON escapes
    "edge_vertex_k3_escaped_labels": (_scenario(3, [["v0", "v1"]], ['q"', "\\", "∑"], {"weights": EDGE_VERTEX_WEIGHTS}), False),
    # one generator: a single level and no flows
    "one_vertex_one_state": (_scenario(1, [], ["∑"], {"weights": {"(∑)": 1.0}}), False),
    # 65,536 generators, the dimension budget
    "path8_k2_budget_edge": (_scenario(8, _path(_vertices(8)), ["a", "b"], POTTS), False),
    # 262,144 generators: over the dimension budget, exit 3
    "path9_k2_over_dimension_budget": (_scenario(9, _path(_vertices(9)), ["a", "b"], POTTS), False),
    # an edge naming a vertex the graph does not list: exit 2
    "edge_to_unknown_vertex": (_scenario(2, [["v0", "v7"]], ["a", "b"], POTTS), False),
}


def run(scenario: dict, to_stdout: bool, workdir: Path) -> dict:
    """Run one ``hierarchy`` scenario and return its manifest entry."""
    path = workdir / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["hierarchy", "--scenario", str(path), "--out", str(out), *["--stdout"] * to_stdout])
    if to_stdout:
        digests = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    else:
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).exists() else None
            for name in REPORTS
        }
    return {"exit": code, "stderr": stderr.getvalue().replace(str(out), "<out>"), "sha256": digests}


def main() -> int:
    manifest = {}
    for name, (scenario, to_stdout) in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            manifest[name] = {"scenario": scenario, "stdout": to_stdout, **run(scenario, to_stdout, Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
