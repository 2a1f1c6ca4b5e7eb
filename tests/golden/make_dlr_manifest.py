"""Regenerate ``dlr_manifest.json``, the golden digests of ``evoalg dlr``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_dlr_manifest.py

Each scenario is run through ``evoalg.cli.main`` with its ``--domain``, to a
file or with ``--stdout``; the manifest keeps the scenario, the domain, the
flag, the exit code, the stderr text (the working directory shown as
``<dir>``) and the sha256 of ``dlr.json``, or of stdout.
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

MANIFEST = Path(__file__).with_name("dlr_manifest.json")
ODD = ['q"', "\\", "∑"]
# vertex labels that JSON escapes, and none with a comma, which --domain splits on
CHAIN_VERTICES = ["α", 'b"', "c\\", "d", "e"]
CHAIN = {
    "schema_version": 1,
    "graph": {"vertices": CHAIN_VERTICES, "edges": [*_path(CHAIN_VERTICES), ["α", "c\\"]]},
    "states": {"states": ODD},
    "measure": {"hamiltonian": {"beta": 1.3, "pair_coupling": [
        {"edge": ["α", 'b"'], "matrix": [[-1, 0.5, 0], [0.5, -1, 0.2], [0, 0.2, -0.7]]},
        {"edge": ['b"', "c\\"], "matrix": [[0.3, -0.2, 0.1], [-0.2, 0.4, 0], [0.1, 0, -0.9]]},
        {"edge": ["c\\", "d"], "matrix": [[-0.5, 0, 0], [0, -0.5, 0], [0, 0, -0.5]]},
        {"edge": ["d", "e"], "matrix": [[0.9, -0.1, 0.2], [-0.1, 0.6, -0.3], [0.2, -0.3, 0.1]]},
        {"edge": ["α", "c\\"], "matrix": [[-0.4, 0.1, 0], [0.1, 0.2, 0.3], [0, 0.3, -0.6]]},
    ], "site_field": [{"vertex": 'b"', "values": [0.2, -0.1, 0.4]}, {"vertex": "d", "values": [-0.3, 0.5, 0]}]}},
}

SCENARIOS = {
    # one vertex, to a file and to stdout
    "chain5_k3_one_vertex": (CHAIN, 'b"', False),
    "chain5_k3_one_vertex_stdout": (CHAIN, 'b"', True),
    # two vertices, given out of order and one of them twice
    "chain5_k3_two_vertices": (CHAIN, "d,α,d", False),
    # the whole vertex set: no outer neighbours, both sides are the marginal
    "chain5_k3_whole_vertex_set": (CHAIN, ",".join(CHAIN_VERTICES), False),
    # the shape of the gibbs workload: a Potts chain of ten vertices
    "path10_k2_potts": (_scenario(10, _path(_vertices(10)), ["a", "b"], POTTS), "v4,v5", False),
    # at the enumeration budget's edge: 2^19 = 524,288 and 3^12 = 531,441 cells
    "path19_k2_potts": (_scenario(19, _path(_vertices(19)), ["a", "b"], POTTS), "v9,v10", False),
    "path12_k3_potts": (_scenario(12, _path(_vertices(12)), ["a", "b", "c"], POTTS), "v5,v6", False),
    # a vertex the graph does not list: exit 2
    "unknown_vertex": (CHAIN, "α,z", False),
    # a weights measure has no Hamiltonian: exit 2
    "weights_measure": (_scenario(3, [["v0", "v1"]], ODD, {"weights": EDGE_VERTEX_WEIGHTS}), "v0", False),
    # 2^20 cells: over the enumeration budget, exit 3
    "path20_k2_over_enumeration_budget": (_scenario(20, _path(_vertices(20)), ["a", "b"], POTTS), "v0", False),
}


def run(scenario: dict, domain: str, to_stdout: bool, workdir: Path) -> dict:
    """Run one ``dlr`` scenario and return its manifest entry."""
    path = workdir / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["dlr", "--scenario", str(path), "--domain", domain, "--out", str(out)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--stdout"] * to_stdout)
    if to_stdout:
        digests = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    else:
        report = out / "dlr.json"
        digests = {"dlr.json": hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None}
    return {"exit": code, "stderr": stderr.getvalue().replace(str(workdir), "<dir>"), "sha256": digests}


def main() -> int:
    manifest = {}
    for name, (scenario, domain, to_stdout) in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            entry = run(scenario, domain, to_stdout, Path(tmp))
            manifest[name] = {"scenario": scenario, "domain": domain, "stdout": to_stdout, **entry}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
