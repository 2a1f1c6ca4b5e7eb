"""Regenerate ``build_manifest.json``, the golden digests of ``evoalg build``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_build_manifest.py

Each scenario is run through ``evoalg.cli.main``; the manifest keeps the
scenario itself, the exit code, the stderr text (the output directory
shown as ``<out>``) and the sha256 of ``matrix.csv``, ``matrix.json`` and
``build_summary.json``.  ``tests/test_golden.py`` reruns every entry and
compares.  Regenerate only when a report is meant to change, and list
each changed entry in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

from evoalg import cli

MANIFEST = Path(__file__).with_name("build_manifest.json")
REPORTS = ("matrix.csv", "matrix.json", "build_summary.json")


def _vertices(n: int) -> list:
    return [f"v{i}" for i in range(n)]


def _path(names) -> list:
    return [[a, b] for a, b in zip(names, names[1:])]


def _weights(states, n: int, step: int) -> dict:
    """A weight for every cell, ``1 + (step * i mod k**n) / k**n``: distinct when ``step`` is coprime to ``k``."""
    size = len(states) ** n
    return {
        "(" + ",".join(cell) + ")": 1 + step * i % size / size
        for i, cell in enumerate(product(states, repeat=n))
    }


def _scenario(n: int, edges, states, measure) -> dict:
    return {
        "schema_version": 1,
        "graph": {"vertices": _vertices(n), "edges": edges},
        "states": {"states": states},
        "measure": measure,
    }


def _edge_measure(hamiltonian: dict) -> dict:
    """One edge, two states and the given Hamiltonian."""
    return _scenario(2, [["v0", "v1"]], ["a", "b"], {"hamiltonian": hamiltonian})


POTTS = {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 0.7}}
EDGE_VERTEX_WEIGHTS = _weights(['q"', "\\", "∑"], 3, 10)

SCENARIOS = {
    # the shape of the heredity workload: 16,192 nonzeros over four 4,096-entry chunks
    "path6_k2_weights": _scenario(6, _path(_vertices(6)), ["a", "A"], {"weights": _weights(["a", "A"], 6, 37)}),
    # one edge plus one vertex, k=3, with labels that JSON escapes
    "edge_vertex_k3_escaped_labels": _scenario(
        3, [["v0", "v1"]], ['q"', "\\", "∑"], {"weights": EDGE_VERTEX_WEIGHTS}
    ),
    # level-6 rows of 4,096 entries, each alone in its chunk
    "edgeless6_k2": _scenario(6, [], ["a", "b"], {"weights": _weights(["a", "b"], 6, 21)}),
    # two 3-vertex paths: levels 0-2 mixed inside chunks
    "two_paths3_potts": _scenario(6, _path(_vertices(3)) + _path(_vertices(6)[3:]), ["a", "b"], POTTS),
    # 65,536 generators, the dimension budget
    "path8_k2_budget_edge": _scenario(8, _path(_vertices(8)), ["a", "b"], POTTS),
    # 10^8 nonzeros: over the nonzero budget, exit 3
    "edgeless8_k2_over_nonzero_budget": _scenario(8, [], ["a", "b"], POTTS),
    # a weights table missing a cell: exit 2
    "weights_missing_a_cell": _scenario(
        3, [["v0", "v1"]], ['q"', "\\", "∑"],
        {"weights": {c: w for c, w in EDGE_VERTEX_WEIGHTS.items() if c != '(∑,∑,∑)'}},
    ),
    # measure numbers that are not floats: exit 2, the field named
    "potts_beta_past_float_range": _edge_measure({**POTTS["hamiltonian"], "beta": 10**400}),
    "potts_beta_boolean": _edge_measure({**POTTS["hamiltonian"], "beta": True}),
    "potts_J_string": _edge_measure({**POTTS["hamiltonian"], "J": "2"}),
    "coupling_matrix_entry_past_float_range": _edge_measure(
        {"beta": 0.7, "pair_coupling": [{"edge": ["v0", "v1"], "matrix": [[0, 10**400], [1, 0]]}]}
    ),
}


def run(scenario: dict, workdir: Path) -> dict:
    """Run one ``build`` scenario and return its manifest entry."""
    path = workdir / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = workdir / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(["build", "--scenario", str(path), "--out", str(out)])
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).exists() else None
        for name in REPORTS
    }
    return {"exit": code, "stderr": stderr.getvalue().replace(str(out), "<out>"), "sha256": digests}


def main() -> int:
    manifest = {}
    for name, scenario in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            manifest[name] = {"scenario": scenario, **run(scenario, Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
