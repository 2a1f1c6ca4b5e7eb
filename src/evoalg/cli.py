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
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from .algebra import build_algebra, check_budgets, nonzero_count, write_joined, write_labels, write_matrix
# matrix_entries, export_matrix_csv and export_matrix_json stay importable here: bench/tracing.py wraps them by these names
from .algebra import export_matrix_csv, export_matrix_json, matrix_entries  # noqa: F401
from .cells import state_space_from_json
from .errors import BudgetError, ValidationError, cut, is_index, is_number, shown
from .graphs import graph_from_json
from .limits import TailCell, VolumeScheme, coefficient_sequence, low_temp_limit_algebras
# dlr_check stays importable here: bench/tracing.py wraps it by this name
from .measures import dlr_check, dlr_table, measure_from_json  # noqa: F401
from .structure import build_hierarchy, iso_check, structure_counts

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class Scenario:
    """A loaded scenario.  It holds a measure, so it equals and hashes as itself alone."""

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
    if not is_index(version := raw.get("schema_version")) or version != SCHEMA_VERSION:  # neither true nor 1.0
        raise ValidationError("scenario.schema_version: expected 1")
    return raw


def _number(value, name: str, kind=float):
    # no strings or booleans, and no fractions where an integer is due
    if is_index(value) if kind is int else is_number(value):
        with suppress(OverflowError):
            return kind(value)
    raise ValidationError(f"scenario.limits.{name}: expected {'an integer' if kind is int else 'a number'}, got {shown(value)}")


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"scenario.limits.{name}: list required, got {shown(value)}")
    return value


def load_scenario(path, budgets=None) -> Scenario:
    """The scenario at ``path``; ``budgets(graph, space)``, if given, runs before its measure is read."""
    raw = _read_scenario(path)
    for key in ("graph", "states", "measure"):
        if key not in raw:
            raise ValidationError(f"scenario.{key}: missing")
    graph, labels = graph_from_json(raw["graph"])
    space = state_space_from_json(raw["states"])
    if budgets:
        budgets(graph, space)
    measure, hamiltonian = measure_from_json(raw["measure"], graph, space, labels)
    return Scenario(graph, labels, space, measure, hamiltonian)


def _out(args) -> Path:
    """The ``--out`` directory, made.  Each command calls this once, after its work, so a rejected run makes none."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report(path, to_stdout: bool):
    """The report ``path`` opened for writing, or stdout under ``--stdout``."""
    return nullcontext(sys.stdout) if to_stdout else open(path, "w")


def _dump_json(payload: dict, path, to_stdout: bool):
    """Write ``payload`` and the schema version, keys sorted, to ``path`` or under ``--stdout`` to stdout."""
    text = json.dumps({**payload, "schema_version": SCHEMA_VERSION}, sort_keys=True, indent=1) + "\n"
    with _report(path, to_stdout) as fh:
        fh.write(text)  # one write, not json.dump's one per token


def _level_runs(hierarchy, leads: dict, block: str, other: str) -> list:
    """``write_labels`` runs of the generators in class order, level by level in the order of ``leads``: ``leads[c]``
    opens level ``c``, ``block`` each further block and ``other`` every further label."""
    order, bounds = hierarchy.members
    seps = np.full(len(order), other, dtype=object)
    seps[bounds[:-1]] = block
    starts = bounds[hierarchy.level_start].tolist()
    return [(lead, order[starts[c] : starts[c + 1]], seps[starts[c] : starts[c + 1]]) for c, lead in leads.items()]


def _write_hierarchy_text(fh, hierarchy, algebra):
    """Write ``hierarchy.txt``: the level count, then each level from the top, one line per block."""
    top, blocks = hierarchy.level_count - 1, np.diff(hierarchy.level_start).tolist()
    leads = {c: f"{top + 1} levels" * (c == top) + f"\nlevel {c}: {blocks[c]} block(s)\n  " for c in range(top, -1, -1)}
    write_labels(fh, algebra, _level_runs(hierarchy, leads, "\n  ", " "), False)
    fh.write("\n")


def _write_hierarchy(fh, hierarchy, algebra, counts):
    """Write ``hierarchy.json`` as ``json.dump(payload, fh, sort_keys=True, indent=1)`` and a newline would: ``counts``,
    the flows, the level count and the levels' generators by their labels.  Each flow and each level opens with the
    text that closes the one before; each class's coordinates are put together once and each cell label encoded once."""
    fh.write(json.dumps({"counts": counts}, sort_keys=True, indent=1)[:-2] + ',\n "flows": ')  # all but the closing "\n}"
    coord = np.array([f"{c},\n    " for c in range(hierarchy.level_count)], dtype=object)[hierarchy.row_level]
    coord += np.array(list(map(str, range(len(coord)))), dtype=object)[hierarchy.positions]
    flows = ("\n   ]\n  ],\n  [\n   [\n    ", coord[hierarchy.flow_source], "\n   ],\n   [\n    ", coord[hierarchy.flow_target])
    write_joined((fh,), flows, "[\n  [\n   [\n    ")
    fh.write(("\n   ]\n  ]\n ]" if len(flows[1]) else "[]") + f',\n "level_count": {hierarchy.level_count},\n "levels": ')
    leads = {c: "\n   ]\n  ],\n  [\n   [\n    " if c else "[\n  [\n   [\n    " for c in range(hierarchy.level_count)}
    write_labels(fh, algebra, _level_runs(hierarchy, leads, "\n   ],\n   [\n    ", ",\n    "), True)
    fh.write(f'\n   ]\n  ]\n ],\n "schema_version": {SCHEMA_VERSION}\n}}\n')


def cmd_build(args) -> int:
    scenario = load_scenario(args.scenario, partial(check_budgets, nonzeros=True))
    algebra = build_algebra(scenario.graph, scenario.space, scenario.measure)
    out = _out(args)
    write_matrix(algebra, out / "matrix.csv", out / "matrix.json")
    summary = {
        "vertices": scenario.graph.vertex_count,
        "states": scenario.space.k,
        "dimension": algebra.dimension,
        "nonzeros": nonzero_count(scenario.graph, scenario.space.k),
    }
    _dump_json(summary, out / "build_summary.json", args.stdout)
    print(f"matrix exported to {out}", file=sys.stderr)
    return 0


def cmd_hierarchy(args) -> int:
    scenario = load_scenario(args.scenario, check_budgets)
    algebra = build_algebra(scenario.graph, scenario.space, scenario.measure)
    hierarchy = build_hierarchy(algebra)
    try:
        counts = asdict(structure_counts(algebra))
    except ValidationError:
        counts = None
    out = _out(args)
    if not args.stdout:
        with open(out / "hierarchy.txt", "w") as fh:
            _write_hierarchy_text(fh, hierarchy, algebra)
    with _report(out / "hierarchy.json", args.stdout) as fh:
        _write_hierarchy(fh, hierarchy, algebra, counts)
    return 0


def cmd_isocheck(args) -> int:
    # the budgets of the algebras compared, though neither is built
    scenarios = [load_scenario(path, check_budgets) for path in (args.scenario, args.scenario_b)]
    _dump_json(asdict(iso_check(*scenarios)), _out(args) / "isocheck.json", args.stdout)
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
    inner = ",".join((f"{c[0]}:{s}" if len(c) == 1 else f"{c}:{s}") for c, s in cell.pattern)
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
        seq = coefficient_sequence(scheme, phi, psi)  # checks the cells before a label formats their coordinates
        sequences.append((_pair_label(phi), _pair_label(psi), seq))
    payload = {
        "dimension": scheme.dimension,
        "states": scheme.states,
        "coupling": scheme.coupling,
        "beta": scheme.beta,
        "radii": list(scheme.radii),
        "pairs": [
            {
                "phi": phi,
                "psi": psi,
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
        payload["low_temp"] = low_temp_limit_algebras(scheme.dimension, scheme.states, scheme.radii, betas, scheme.coupling)
    out = _out(args)
    head = f"{scheme.dimension},{scheme.states},{scheme.beta!r}"
    rows = ["d,q,beta,radius,phi,psi,coefficient"]
    for phi, psi, seq in sequences:
        rows.extend(f"{head},{radius},{phi},{psi},{value!r}" for radius, value in zip(seq.volumes, seq.values))
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
    index = {label: i for i, label in enumerate(scenario.labels)}
    unknown = [name for name in raw_domain if name not in index]
    if unknown:
        raise ValidationError(f"domain: unknown vertex {cut(unknown[0])!r}")
    domain = sorted({index[name] for name in raw_domain})
    table = dlr_table(scenario.hamiltonian, domain, scenario.measure)
    labels = product(scenario.space.labels, repeat=len(domain))
    rows = [{"assignment": f"({','.join(states)})", "lhs": r.lhs, "rhs": r.rhs, "gap": r.gap}
            for states, r in zip(labels, table)]
    payload = {
        "domain": [scenario.labels[v] for v in domain],
        "rows": rows,
        "max_gap": max(r.gap for r in table),
    }
    _dump_json(payload, _out(args) / "dlr.json", args.stdout)
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
        with np.errstate(all="ignore"):  # a nan or an overflow meets a named check; a numpy warning would come first
            return args.run(args)
    except (ValidationError, OSError) as exc:  # a scenario is read with a message of its own: an OSError is from --out
        print(f"error: {'out: ' if isinstance(exc, OSError) else ''}{exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
