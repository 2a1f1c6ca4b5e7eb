"""Batch front-end: scenario files in, reports and matrix exports out.

Subcommands: build | hierarchy | isocheck | limits | dlr.  Scenarios are
versioned JSON files; reports are JSON with sorted keys and round-trip
float formatting, so identical scenarios produce byte-identical output.
Diagnostics go to stderr.  Exit codes: 0 success, 2 validation error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .algebra import NONZERO_BUDGET, build_algebra, nonzero_count, write_matrix
# matrix_entries, export_matrix_csv and export_matrix_json stay importable here: bench/tracing.py wraps them by these names
from .algebra import export_matrix_csv, export_matrix_json, matrix_entries  # noqa: F401
from .cells import state_space_from_json
from .errors import BudgetError, ValidationError, shown
from .graphs import graph_from_json
from .limits import (
    TailCell,
    VolumeScheme,
    coefficient_sequence,
    low_temp_limit_algebras,
)
# dlr_check stays importable here: bench/tracing.py wraps it by this name
from .measures import dlr_check, dlr_table, measure_from_json  # noqa: F401
from .structure import build_hierarchy, iso_check, structure_counts

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    graph: object
    labels: tuple
    space: object
    measure: object
    hamiltonian: object


def _read_scenario(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"scenario: cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad syntax, bad UTF-8 or an integer past the digit limit
        raise ValidationError(f"scenario: invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("scenario: top-level JSON object required")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError("scenario.schema_version: expected 1")
    return raw


def _number(value, name: str, kind=float):
    # no strings or booleans, and no fractions where an integer is due
    if isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool):
        with suppress(OverflowError):
            return kind(value)
    raise ValidationError(f"scenario.limits.{name}: expected {'an integer' if kind is int else 'a number'}, got {shown(value)}")


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"scenario.limits.{name}: list required, got {shown(value)}")
    return value


def load_scenario(path) -> Scenario:
    raw = _read_scenario(path)
    for key in ("graph", "states", "measure"):
        if key not in raw:
            raise ValidationError(f"scenario.{key}: missing")
    graph, labels = graph_from_json(raw["graph"])
    space = state_space_from_json(raw["states"])
    measure, hamiltonian = measure_from_json(raw["measure"], graph, space, labels)
    return Scenario(graph, labels, space, measure, hamiltonian)


def _dump_json(payload, path, to_stdout: bool):
    with nullcontext(sys.stdout) if to_stdout else open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_list(fh, seq, indent: str, text):
    """Write ``seq`` as an indented JSON list, ``text(part)`` laying out 1,024 items at a time."""
    for i in range(0, len(seq), 1024):
        fh.write(("," if i else "[") + "\n" + text(seq[i : i + 1024]))
    fh.write(f"\n{indent}]" if seq else "[]")


def _write_hierarchy(payload, fh):
    """Write ``json.dump(payload, fh, sort_keys=True, indent=1)`` and a newline, in batches.

    A batch of flows fills one ``%d`` template, and each label passes once
    through the encoder ``json.dump`` uses.  There is always a level 0.
    """
    counts = payload["counts"]
    counts = "null" if counts is None else "{\n" + ",\n".join(f'  "{k}": {counts[k]}' for k in sorted(counts)) + "\n }"
    fh.write(f'{{\n "counts": {counts},\n "flows": ')
    flow = "  [\n   [\n    %d,\n    %d\n   ],\n   [\n    %d,\n    %d\n   ]\n  ]"
    flat = chain.from_iterable
    _write_list(fh, payload["flows"], " ", lambda part: ",\n".join([flow] * len(part)) % tuple(flat(flat(part))))
    fh.write(f',\n "level_count": {payload["level_count"]},\n "levels": [')
    for i, blocks in enumerate(payload["levels"]):
        fh.write(",\n  " if i else "\n  ")
        _write_list(fh, blocks, "  ", lambda part: ",\n".join(
            "   [\n    " + ",\n    ".join(map(encode_basestring_ascii, b)) + "\n   ]" for b in part))
    fh.write(f'\n ],\n "schema_version": {payload["schema_version"]}\n}}\n')


def cmd_build(args) -> int:
    scenario = load_scenario(args.scenario)
    nonzeros = nonzero_count(scenario.graph, scenario.space.k)
    if nonzeros > NONZERO_BUDGET:
        raise BudgetError(f"{nonzeros} nonzeros exceed the nonzero budget of {NONZERO_BUDGET}")
    algebra = build_algebra(scenario.graph, scenario.space, scenario.measure)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(algebra, out / "matrix.csv", out / "matrix.json")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "vertices": scenario.graph.vertex_count,
        "states": scenario.space.k,
        "dimension": algebra.dimension,
        "nonzeros": nonzeros,
    }
    _dump_json(summary, out / "build_summary.json", args.stdout)
    print(f"matrix exported to {out}", file=sys.stderr)
    return 0


def _hierarchy_payload(scenario) -> dict:
    algebra = build_algebra(scenario.graph, scenario.space, scenario.measure)
    hierarchy = build_hierarchy(algebra)
    labels = algebra.pair_labels()
    levels = [
        [[labels[g] for g in block] for block in blocks]
        for blocks in hierarchy.levels
    ]
    try:
        counts_payload = asdict(structure_counts(algebra))
    except ValidationError:
        counts_payload = None
    return {
        "schema_version": SCHEMA_VERSION,
        "level_count": hierarchy.level_count,
        "levels": levels,
        "counts": counts_payload,
        "flows": hierarchy.flows,
    }


def _hierarchy_text(payload) -> str:
    lines = [f"{payload['level_count']} levels"]
    for lvl in range(len(payload["levels"]) - 1, -1, -1):
        blocks = payload["levels"][lvl]
        lines.append(f"level {lvl}: {len(blocks)} block(s)")
        for block in blocks:
            lines.append("  " + " ".join(block))
    return "\n".join(lines) + "\n"


def cmd_hierarchy(args) -> int:
    scenario = load_scenario(args.scenario)
    payload = _hierarchy_payload(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not args.stdout:
        (out / "hierarchy.txt").write_text(_hierarchy_text(payload))
    with nullcontext(sys.stdout) if args.stdout else open(out / "hierarchy.json", "w") as fh:
        _write_hierarchy(payload, fh)
    return 0


def cmd_isocheck(args) -> int:
    first = load_scenario(args.scenario)
    second = load_scenario(args.scenario_b)
    left = build_algebra(first.graph, first.space, first.measure)
    right = build_algebra(second.graph, second.space, second.measure)
    report = iso_check(left, right)
    payload = {"schema_version": SCHEMA_VERSION, **asdict(report)}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(payload, out / "isocheck.json", args.stdout)
    return 0


def _tail_cell_from_json(node) -> TailCell:
    if not isinstance(node, dict) or "tail" not in node:
        raise ValidationError("limits.pairs: each cell needs a tail state")
    pattern = _list(node.get("pattern", []), "pairs.pattern")
    if not all(isinstance(entry, (list, tuple)) and len(entry) == 2 for entry in pattern):
        raise ValidationError("limits.pairs.pattern: entries must be [site, state]")
    return TailCell(node["tail"], tuple(pattern))  # TailCell checks that sites and states are integers


def _tail_label(cell: TailCell) -> str:
    if not cell.pattern:
        return f"~{cell.tail}"
    inner = ",".join(
        (f"{c[0]}:{s}" if len(c) == 1 else f"{c}:{s}") for c, s in cell.pattern
    )
    return f"~{cell.tail}{{{inner}}}"


def _pair_label(pair) -> str:
    return f"({_tail_label(pair[0])},{_tail_label(pair[1])})"


def cmd_limits(args) -> int:
    spec = _read_scenario(args.scenario).get("limits")
    if not isinstance(spec, dict):
        raise ValidationError("scenario.limits: missing")
    for key in ("dimension", "states", "radii", "beta"):
        if key not in spec:
            raise ValidationError(f"scenario.limits.{key}: missing")
    scheme = VolumeScheme(
        _number(spec["dimension"], "dimension", int),
        tuple(_number(r, "radii", int) for r in _list(spec["radii"], "radii")),
        _number(spec["states"], "states", int),
        _number(spec.get("J", 1.0), "J"),
        _number(spec["beta"], "beta"),
    )
    sequences = []
    for entry in _list(spec.get("pairs", []), "pairs"):
        if not isinstance(entry, dict):
            raise ValidationError(f"scenario.limits.pairs: objects required, got {shown(entry)}")
        phi = tuple(_tail_cell_from_json(c) for c in _list(entry.get("phi", []), "pairs.phi"))
        psi = tuple(_tail_cell_from_json(c) for c in _list(entry.get("psi", []), "pairs.psi"))
        if len(phi) != 2 or len(psi) != 2:
            raise ValidationError("limits.pairs: phi and psi each need two cells")
        seq = coefficient_sequence(scheme, phi, psi)
        sequences.append((phi, psi, seq))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "dimension": scheme.dimension,
        "states": scheme.states,
        "coupling": scheme.coupling,
        "beta": scheme.beta,
        "radii": list(scheme.radii),
        "pairs": [
            {
                "phi": _pair_label(phi),
                "psi": _pair_label(psi),
                "values": list(seq.values),
                "limit_estimate": seq.limit_estimate,
                "converged": seq.converged,
            }
            for phi, psi, seq in sequences
        ],
    }
    if "low_temp" in spec:
        betas = spec["low_temp"].get("betas") if isinstance(spec["low_temp"], dict) else None
        if not isinstance(betas, list) or not betas:
            raise ValidationError("scenario.limits.low_temp.betas: nonempty list required")
        betas = [_number(b, "low_temp.betas") for b in betas]
        payload["low_temp"] = low_temp_limit_algebras(
            scheme.dimension, scheme.states, scheme.radii, betas, scheme.coupling
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["d,q,beta,radius,phi,psi,coefficient"]
    for phi, psi, seq in sequences:
        for radius, value in zip(seq.volumes, seq.values):
            rows.append(
                f"{scheme.dimension},{scheme.states},{scheme.beta!r},{radius},"
                f"{_pair_label(phi)},{_pair_label(psi)},{value!r}"
            )
    (out / "limits.csv").write_text("\n".join(rows) + "\n")
    _dump_json(payload, out / "limits.json", args.stdout)
    return 0


def cmd_dlr(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.hamiltonian is None:
        raise ValidationError("measure: dlr requires a hamiltonian-based measure")
    raw_domain = [v for v in (args.domain or "").split(",") if v != ""]
    if not raw_domain:
        raise ValidationError("domain: at least one vertex required")
    domain = []
    for name in raw_domain:
        if name not in scenario.labels:
            raise ValidationError(f"domain: unknown vertex {name!r}")
        domain.append(scenario.labels.index(name))
    domain = sorted(set(domain))
    k = scenario.space.k
    rows = []
    max_gap = 0.0
    table = dlr_table(scenario.hamiltonian, domain, scenario.measure)
    for states, result in zip(product(range(1, k + 1), repeat=len(domain)), table):
        max_gap = max(max_gap, result.gap)
        label = "(" + ",".join(scenario.space.label_of(s) for s in states) + ")"
        rows.append(
            {"assignment": label, "lhs": result.lhs, "rhs": result.rhs, "gap": result.gap}
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "domain": [scenario.labels[v] for v in domain],
        "rows": rows,
        "max_gap": max_gap,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(payload, out / "dlr.json", args.stdout)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evoalg",
        description="Evolution algebras from graphs, state spaces and Gibbs measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--stdout", action="store_true", help="write the JSON report to stdout")
        p.set_defaults(run=run)
        return p

    command("build", cmd_build, "build and export the coefficient matrix")
    command("hierarchy", cmd_hierarchy, "level decomposition and counts")
    iso = command("isocheck", cmd_isocheck, "compare two scenarios over one graph")
    iso.add_argument("--scenario-b", required=True, help="second scenario JSON file")
    command("limits", cmd_limits, "finite-volume coefficient trends")
    dlr = command("dlr", cmd_dlr, "consistency gaps for a domain")
    dlr.add_argument("--domain", required=True, help="comma-separated vertex labels")
    return parser


# built once: parse_args leaves the parser unchanged, and main runs once per command
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
