"""Regenerate ``limits_manifest.json``, the golden digests of ``evoalg limits``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_limits_manifest.py

Each scenario is run through ``evoalg.cli.main``; the manifest keeps the
scenario itself, the exit code, the stderr text and the sha256 of
``limits.json`` and ``limits.csv``.  ``tests/test_golden.py`` reruns every
entry and compares.  Regenerate only when a report is meant to change, and
list each changed entry in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from evoalg import cli

MANIFEST = Path(__file__).with_name("limits_manifest.json")
REPORTS = ("limits.json", "limits.csv")

SCENARIOS = {
    # the Byte-identical reports scenario of the CI workflow
    "ci_2d_q3_low_temp": {
        "dimension": 2, "states": 3, "radii": [0, 1], "J": -1.0, "beta": 1.7,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 2, "pattern": [[[0, 0], 1]]}],
                   "psi": [{"tail": 1}, {"tail": 1}]}],
        "low_temp": {"betas": [0.5, 20.0, 57.0]},
    },
    # the shape of the gibbs workload's 1-D command
    "gibbs_1d_radii_0_7": {
        "dimension": 1, "states": 2, "radii": list(range(8)), "J": 1.07, "beta": 1.93,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 2, "pattern": [[0, 1]]}],
                   "psi": [{"tail": 2, "pattern": [[0, 1]]}, {"tail": 1}]},
                  {"phi": [{"tail": 2}, {"tail": 2, "pattern": [[0, 1]]}],
                   "psi": [{"tail": 2}, {"tail": 2}]}],
        "low_temp": {"betas": [0.41, 2.2, 4.7]},
    },
    # the shape of the gibbs workload's 2-D command
    "gibbs_2d_q3_radii_0_1": {
        "dimension": 2, "states": 3, "radii": [0, 1], "J": 0.93, "beta": 1.61,
        "pairs": [{"phi": [{"tail": 3}, {"tail": 1, "pattern": [[[0, 0], 2]]}],
                   "psi": [{"tail": 1, "pattern": [[[0, 0], 2]]}, {"tail": 3}]}],
    },
    # an antiferromagnetic 2-D pair with an off-centre pattern
    "pattern_2d_negative_J": {
        "dimension": 2, "states": 2, "radii": [1], "J": -0.8, "beta": 1.2,
        "pairs": [{"phi": [{"tail": 1, "pattern": [[[1, 0], 2], [[0, -1], 2]]}, {"tail": 2}],
                   "psi": [{"tail": 2}, {"tail": 1, "pattern": [[[1, 0], 2], [[0, -1], 2]]}]},
                  {"phi": [{"tail": 1, "pattern": [[[1, 1], 2]]}, {"tail": 1}],
                   "psi": [{"tail": 1}, {"tail": 1}]}],
    },
    # a patterned pair at the edge of the box-site budget: 1 + 999999 sites
    "budget_edge_1d_radii_0_499999": {
        "dimension": 1, "states": 2, "radii": [0, 499999], "J": 1.0, "beta": 0.7,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 1, "pattern": [[0, 2]]}],
                   "psi": [{"tail": 1}, {"tail": 1}]}],
    },
    # the pattern fills the radius-0 box, so both cells of phi agree there
    "pattern_fills_radius_0_box": {
        "dimension": 1, "states": 2, "radii": [0, 1], "J": 0.9, "beta": 1.3,
        "pairs": [{"phi": [{"tail": 1, "pattern": [[0, 2]]}, {"tail": 2}],
                   "psi": [{"tail": 2}, {"tail": 2}]},
                  {"phi": [{"tail": 1, "pattern": [[0, 2]]}, {"tail": 2}],
                   "psi": [{"tail": 1, "pattern": [[0, 2]]}, {"tail": 1}]}],
    },
    # overlapping phi and psi patterns on a corner and an edge of the radius-1 box;
    # one psi cell spells a phi cell with a redundant pattern site
    "overlap_2d_corner_and_edge": {
        "dimension": 2, "states": 3, "radii": [1, 2], "J": 0.6, "beta": 1.1,
        "pairs": [{"phi": [{"tail": 1, "pattern": [[[1, 1], 2], [[0, 1], 3]]},
                           {"tail": 2, "pattern": [[[1, 1], 2], [[-1, 0], 1]]}],
                   "psi": [{"tail": 2, "pattern": [[[-1, 0], 1], [[1, 1], 2], [[0, 0], 2]]},
                           {"tail": 1, "pattern": [[[1, 1], 2], [[0, 1], 3]]}]},
                  {"phi": [{"tail": 1, "pattern": [[[1, 1], 2], [[0, 1], 3]]},
                           {"tail": 2, "pattern": [[[1, 1], 2], [[-1, 0], 1]]}],
                   "psi": [{"tail": 1, "pattern": [[[1, 1], 2], [[0, 1], 3]]},
                           {"tail": 1, "pattern": [[[0, 1], 3], [[1, 1], 2]]}]},
                  {"phi": [{"tail": 3, "pattern": [[[-1, -1], 1], [[1, -1], 2]]},
                           {"tail": 3, "pattern": [[[-1, -1], 2]]}],
                   "psi": [{"tail": 3, "pattern": [[[-1, -1], 2]]},
                           {"tail": 3, "pattern": [[[-1, -1], 2]]}]}],
    },
    # psi cells that are not children of phi
    "psi_outside_children": {
        "dimension": 1, "states": 3, "radii": [1, 2], "J": 1.4, "beta": 0.8,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 2, "pattern": [[0, 3]]}],
                   "psi": [{"tail": 3}, {"tail": 1}]},
                  {"phi": [{"tail": 1}, {"tail": 2, "pattern": [[0, 3]]}],
                   "psi": [{"tail": 1, "pattern": [[1, 2]]}, {"tail": 1}]},
                  {"phi": [{"tail": 1}, {"tail": 1}],
                   "psi": [{"tail": 1}, {"tail": 1, "pattern": [[-1, 2]]}]}],
    },
    # an antiferromagnetic 1-D chain over gapped radii, three states
    "low_temp_1d_q3_gapped_radii_negative_J": {
        "dimension": 1, "states": 3, "radii": [0, 3, 10, 31], "J": -0.7, "beta": 1.3,
        "pairs": [{"phi": [{"tail": 3}, {"tail": 1, "pattern": [[0, 2]]}],
                   "psi": [{"tail": 1, "pattern": [[0, 2]]}, {"tail": 3}]}],
        "low_temp": {"betas": [0.5, 3.0, 9.5]},
    },
    # the largest radius underflows at the largest beta, after every smaller box has passed: exit 2
    "low_temp_1d_q2_largest_radius_underflows": {
        "dimension": 1, "states": 2, "radii": [0, 5, 80], "J": 1.0, "beta": 1.0,
        "low_temp": {"betas": [0.41, 4.7]},
    },
    # a 2-D pair whose patterns reach radius 2: the smallest box holds them on its rim, the later ones hold a ring more
    "support_2_2d_q2_radii_2_3_4_6": {
        "dimension": 2, "states": 2, "radii": [2, 3, 4, 6], "J": 0.75, "beta": 1.4,
        "pairs": [{"phi": [{"tail": 1, "pattern": [[[2, -1], 2], [[0, 1], 2]]}, {"tail": 1}],
                   "psi": [{"tail": 1}, {"tail": 1, "pattern": [[[2, -1], 2], [[0, 1], 2]]}]},
                  {"phi": [{"tail": 2, "pattern": [[[-1, 2], 1]]}, {"tail": 1, "pattern": [[[1, 1], 2]]}],
                   "psi": [{"tail": 1, "pattern": [[[1, 1], 2]]}, {"tail": 1, "pattern": [[[1, 1], 2]]}]}],
    },
    # a 1-D antiferromagnetic pair whose pattern reaches radius 3, on radii from that support to far past it
    "support_3_1d_q3_negative_J_radii_3_4_9_20": {
        "dimension": 1, "states": 3, "radii": [3, 4, 9, 20], "J": -0.85, "beta": 1.2,
        "pairs": [{"phi": [{"tail": 2, "pattern": [[-3, 1], [1, 3]]}, {"tail": 3}],
                   "psi": [{"tail": 3}, {"tail": 2, "pattern": [[-3, 1], [1, 3]]}]},
                  {"phi": [{"tail": 1, "pattern": [[3, 2]]}, {"tail": 1}],
                   "psi": [{"tail": 1, "pattern": [[3, 2]]}, {"tail": 1, "pattern": [[3, 2]]}]}],
    },
    # 2-D low_temp masses over three temperatures, infinite temperature among them
    "low_temp_2d_q2_betas_0_to_3_1": {
        "dimension": 2, "states": 2, "radii": [0, 1, 2], "J": 0.9, "beta": 1.0,
        "low_temp": {"betas": [0.0, 0.8, 3.1]},
    },
    # a pattern site outside the smallest box
    "pattern_outside_smallest_radius": {
        "dimension": 1, "states": 2, "radii": [0, 2], "J": 1.0, "beta": 1.0,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 1, "pattern": [[1, 2]]}],
                   "psi": [{"tail": 1}, {"tail": 1}]}],
    },
    # a pattern state above the state count
    "pattern_state_above_states": {
        "dimension": 2, "states": 2, "radii": [1], "J": 1.0, "beta": 1.0,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 1, "pattern": [[[0, 0], 3]]}],
                   "psi": [{"tail": 1}, {"tail": 1}]}],
    },
    # phi's off-box site is reported before psi's bad state
    "phi_site_before_psi_state": {
        "dimension": 1, "states": 2, "radii": [1], "J": 1.0, "beta": 1.0,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 1, "pattern": [[5, 2]]}],
                   "psi": [{"tail": 3}, {"tail": 1}]}],
    },
    # a 4,000-digit pattern site outside the box: echoed cut to 60 characters, in 1-D and 2-D
    "pattern_site_4000_digits_1d": {
        "dimension": 1, "states": 2, "radii": [0, 1], "J": 1.0, "beta": 1.0,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 1, "pattern": [[10**3999, 2]]}],
                   "psi": [{"tail": 1}, {"tail": 1}]}],
    },
    "pattern_site_4000_digits_2d": {
        "dimension": 2, "states": 2, "radii": [0, 1], "J": 1.0, "beta": 1.0,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 1, "pattern": [[[0, -10**3999], 2]]}],
                   "psi": [{"tail": 1}, {"tail": 1}]}],
    },
    # a 1-D pattern site of 2,000 coordinates: echoed as its first three and its coordinate count
    "pattern_site_2000_coordinates_1d": {
        "dimension": 1, "states": 2, "radii": [0, 1], "J": 1.0, "beta": 1.0,
        "pairs": [{"phi": [{"tail": 1}, {"tail": 1, "pattern": [[[0] * 2000, 2]]}],
                   "psi": [{"tail": 1}, {"tail": 1}]}],
    },
}


def run(limits: dict, workdir: Path) -> dict:
    """Run one ``limits`` scenario and return its manifest entry."""
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps({"schema_version": 1, "limits": limits}))
    out = workdir / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(["limits", "--scenario", str(scenario), "--out", str(out)])
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).exists() else None
        for name in REPORTS
    }
    return {"exit": code, "stderr": stderr.getvalue(), "sha256": digests}


def main() -> int:
    manifest = {}
    for name, limits in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            manifest[name] = {"limits": limits, **run(limits, Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
