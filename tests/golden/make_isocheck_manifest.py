"""Regenerate ``isocheck_manifest.json``, the golden digests of ``evoalg isocheck``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_isocheck_manifest.py

Each pair of scenarios is run through ``evoalg.cli.main``, to a file or
with ``--stdout``; the manifest keeps both scenarios, the flag, the exit
code, the stderr text (the working directory shown as ``<dir>``) and the
sha256 of ``isocheck.json``, or of stdout.  ``tests/test_golden.py``
reruns every entry and compares.  Regenerate only when a report is meant
to change, and list each changed entry in CHANGES.md.
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
    from .make_build_manifest import EDGE_VERTEX_WEIGHTS, POTTS, _path, _scenario, _vertices, _weights
except ImportError:  # run as a script
    from make_build_manifest import EDGE_VERTEX_WEIGHTS, POTTS, _path, _scenario, _vertices, _weights

MANIFEST = Path(__file__).with_name("isocheck_manifest.json")
ODD = ['q"', "\\", "∑"]
PATH4 = _path(_vertices(4))
PATH4_POTTS = _scenario(4, PATH4, ODD, POTTS)
PATH4_COLD = _scenario(4, PATH4, ODD, {"hamiltonian": {"model": "potts", "J": -0.6, "beta": 2.5}})
EDGE_VERTEX_POTTS = _scenario(3, [["v0", "v1"]], ODD, POTTS)

SCENARIOS = {
    # one scenario against itself, to a file and to stdout
    "equal_path4_k3": ((PATH4_POTTS, PATH4_POTTS), False),
    "equal_path4_k3_stdout": ((PATH4_POTTS, PATH4_POTTS), True),
    # two Potts measures on one graph: ferromagnetic against cold antiferromagnetic
    "path4_k3_hot_and_cold": ((PATH4_POTTS, PATH4_COLD), False),
    # a weights table against a Hamiltonian on one graph
    "edge_vertex_k3_weights_and_potts": (
        (_scenario(3, [["v0", "v1"]], ODD, {"weights": EDGE_VERTEX_WEIGHTS}), EDGE_VERTEX_POTTS), False
    ),
    # the same vertices with another edge: exit 2
    "different_graphs": ((EDGE_VERTEX_POTTS, _scenario(3, [["v1", "v2"]], ODD, POTTS)), False),
    # the same graph and state count under other labels: exit 2
    "different_state_spaces": (
        (_scenario(2, [["v0", "v1"]], ["a", "b"], POTTS),
         _scenario(2, [["v0", "v1"]], ['a"', "b"], {"weights": _weights(['a"', "b"], 2, 3)})), False
    ),
    # 262,144 generators: over the dimension budget, exit 3
    "path9_k2_over_dimension_budget": (
        (_scenario(9, _path(_vertices(9)), ["a", "b"], POTTS),) * 2, False
    ),
}


def run(pair, to_stdout: bool, workdir: Path) -> dict:
    """Run one ``isocheck`` on a pair of scenarios and return its manifest entry."""
    paths = [workdir / "a.json", workdir / "b.json"]
    for path, scenario in zip(paths, pair):
        path.write_text(json.dumps(scenario))
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["isocheck", "--scenario", str(paths[0]), "--scenario-b", str(paths[1]), "--out", str(out)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--stdout"] * to_stdout)
    if to_stdout:
        digests = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    else:
        report = out / "isocheck.json"
        digests = {"isocheck.json": hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None}
    return {"exit": code, "stderr": stderr.getvalue().replace(str(workdir), "<dir>"), "sha256": digests}


def main() -> int:
    manifest = {}
    for name, (pair, to_stdout) in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            manifest[name] = {"scenarios": list(pair), "stdout": to_stdout, **run(pair, to_stdout, Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
