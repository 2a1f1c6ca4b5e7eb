import contextlib
import copy
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import evoalg as ev
from evoalg.cli import main

from conftest import load_matrix_csv, load_matrix_json


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def edge_scenario(weights=None):
    measure = {"weights": weights} if weights else {
        "weights": {"(a,a)": 0.1, "(a,A)": 0.2, "(A,a)": 0.3, "(A,A)": 0.4}
    }
    return {
        "schema_version": 1,
        "graph": {"vertices": ["1", "2"], "edges": [["1", "2"]]},
        "states": {"states": ["a", "A"]},
        "measure": measure,
    }


def free_scenario():
    payload = edge_scenario()
    payload["graph"]["edges"] = []
    return payload


def potts_scenario(vertices, edges, beta=1.0):
    return {
        "schema_version": 1,
        "graph": {"vertices": vertices, "edges": edges},
        "states": {"states": ["a", "A"]},
        "measure": {"hamiltonian": {"model": "potts", "J": 1.0, "beta": beta}},
    }


def test_build_writes_matrix_and_summary(tmp_path):
    scenario = write(tmp_path / "s.json", edge_scenario())
    out = tmp_path / "out"
    assert main(["build", "--scenario", scenario, "--out", str(out)]) == 0
    summary = json.loads((out / "build_summary.json").read_text())
    assert summary["dimension"] == 16
    assert summary["nonzeros"] == 52
    entries = load_matrix_csv(out / "matrix.csv")
    assert entries == load_matrix_json(out / "matrix.json")
    assert len(entries) == 52


def test_build_reports_are_deterministic(tmp_path):
    scenario = write(tmp_path / "s.json", edge_scenario())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["build", "--scenario", scenario, "--out", str(out_a)]) == 0
    assert main(["build", "--scenario", scenario, "--out", str(out_b)]) == 0
    for name in ("build_summary.json", "matrix.json", "matrix.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_build_rejects_malformed_edge(tmp_path):
    payload = edge_scenario()
    payload["graph"]["edges"] = [["1", "x"]]
    scenario = write(tmp_path / "bad.json", payload)
    assert main(["build", "--scenario", scenario, "--out", str(tmp_path)]) == 2


def test_build_budget_exceeded(tmp_path):
    vertices = [str(i) for i in range(10)]
    edges = [[str(i), str(i + 1)] for i in range(9)]
    payload = {
        "schema_version": 1,
        "graph": {"vertices": vertices, "edges": edges},
        "states": {"states": ["x", "y", "z"]},
        "measure": {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 1.0}},
    }
    scenario = write(tmp_path / "big.json", payload)
    assert main(["build", "--scenario", scenario, "--out", str(tmp_path)]) == 3


def test_build_nonzero_budget_checked_before_enumeration(tmp_path, capsys):
    # edgeless, 8 vertices, 2 states: 65,536 generators fit the dimension
    # budget, but (2 + 4 * 2 * 1)^8 = 10^8 nonzeros do not
    payload = free_scenario()
    payload["graph"] = {"vertices": [str(i) for i in range(8)], "edges": []}
    payload["measure"] = {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 1.0}}
    scenario = write(tmp_path / "edgeless8.json", payload)
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main(["build", "--scenario", scenario, "--out", str(out)]) == 3
    assert time.perf_counter() - started < 2.0
    err = capsys.readouterr().err
    assert "100000000 nonzeros" in err and "budget of 10000000" in err
    assert not out.exists()


def long_path(n, states, measure):
    vertices = [f"v{i}" for i in range(n)]
    edges = [list(e) for e in zip(vertices, vertices[1:])]
    return {"schema_version": 1, "graph": {"vertices": vertices, "edges": edges}, "states": {"states": states},
            "measure": measure}


@pytest.mark.parametrize("command", ["build", "hierarchy", "isocheck", "dlr"])
@pytest.mark.parametrize("payload", [
    pytest.param(long_path(5000, list("abcdefghij"), {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 1.0}}),
                 id="potts-path-n5000-k10"),
    pytest.param(long_path(20000, ["a", "b"], {"weights": {"(" + ",".join("a" * 20000) + ")": 1.0}}),
                 id="weights-path-n20000-k2"),
])
def test_budgets_reject_counts_of_thousands_of_digits_in_one_short_line(tmp_path, capsys, command, payload):
    """``k^n`` of 5,000 digits is neither turned into text, past the interpreter's digit limit, nor allocated, past
    numpy's dimension limit: the rejection is one line that names no digit of it."""
    scenario = write(tmp_path / "s.json", payload)
    extra = {"isocheck": ["--scenario-b", scenario], "dlr": ["--domain", "v0"]}.get(command, [])
    assert main([command, "--scenario", scenario, *extra, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "budget exceeded: cell space: k^n = 10^20 or more cells exceed the enumeration budget of 1000000\n"


@pytest.mark.parametrize("command", ["build", "hierarchy"])
def test_one_state_edgeless_graph_of_thousands_of_vertices_is_quick(tmp_path, command):
    """One cell and one generator pass every budget: the contributions take one broadcast shape for all 5,000
    components, where one per component took about 30 s."""
    payload = long_path(5000, ["a"], {"weights": {"(" + ",".join("a" * 5000) + ")": 1.0}})
    payload["graph"]["edges"] = []
    scenario = write(tmp_path / "s.json", payload)
    start = time.perf_counter()
    assert main([command, "--scenario", scenario, "--out", str(tmp_path / "out")]) == 0
    assert time.perf_counter() - start < 5.0


OVER_BUDGET = {
    "cells": (long_path(20, ["a", "b"], {"weights": {"(a)": "not read"}}),
              "cell space: k^n = 1048576 cells exceed the enumeration budget of 1000000"),
    "generators": (long_path(9, ["a", "b"], {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 1.0}}),
                   "pair space: k^2n = 262144 generators exceed the dimension budget of 65536"),
    "nonzeros": ({**long_path(8, ["a", "b"], None), "graph": {"vertices": list("abcdefgh"), "edges": []}},
                 "heredity matrix: prod_b k^|b|(4k^|b|-3) = 100000000 nonzeros exceed the nonzero budget of 10000000"),
}


@pytest.mark.parametrize("command, budget", [
    *((command, budget) for command in ("build", "hierarchy", "isocheck") for budget in ("cells", "generators")),
    ("build", "nonzeros"),
])
def test_budgets_are_checked_before_the_measure_is_read(tmp_path, capsys, monkeypatch, command, budget):
    """``build``, ``hierarchy`` and ``isocheck`` check their budgets right after the graph and the states are read:
    cells, then nonzeros (``build`` only), then generators.  The measure of an over-budget scenario is never read."""
    def refuse(*args):
        raise AssertionError("the measure was read before the budgets were checked")

    monkeypatch.setattr(ev.cli, "measure_from_json", refuse)
    payload, line = OVER_BUDGET[budget]
    scenario = write(tmp_path / "s.json", payload)
    extra = ["--scenario-b", scenario] if command == "isocheck" else []
    assert main([command, "--scenario", scenario, *extra, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"budget exceeded: {line}\n"


def test_hierarchy_reports_level_structure(tmp_path):
    scenario = write(tmp_path / "edge.json", edge_scenario())
    out = tmp_path / "out"
    assert main(["hierarchy", "--scenario", scenario, "--out", str(out)]) == 0
    payload = json.loads((out / "hierarchy.json").read_text())
    assert payload["level_count"] == 2
    assert [len(level) for level in payload["levels"]] == [4, 6]
    assert payload["counts"] == {
        "dimension": 16,
        "one_dimensional": 4,
        "four_dimensional": 6,
    }
    text = (out / "hierarchy.txt").read_text()
    assert text.startswith("2 levels")


def test_hierarchy_on_split_components(tmp_path):
    scenario = write(tmp_path / "free.json", free_scenario())
    out = tmp_path / "out"
    assert main(["hierarchy", "--scenario", scenario, "--out", str(out)]) == 0
    payload = json.loads((out / "hierarchy.json").read_text())
    assert payload["level_count"] == 3
    assert payload["counts"] is None


def test_hierarchy_single_vertex(tmp_path):
    payload = {
        "schema_version": 1,
        "graph": {"vertices": ["v"], "edges": []},
        "states": {"states": ["a", "A"]},
        "measure": {"weights": {"(a)": 0.5, "(A)": 0.5}},
    }
    scenario = write(tmp_path / "one.json", payload)
    out = tmp_path / "out"
    assert main(["hierarchy", "--scenario", scenario, "--out", str(out)]) == 0
    report = json.loads((out / "hierarchy.json").read_text())
    assert report["level_count"] == 2
    assert [len(level) for level in report["levels"]] == [2, 1]


def test_isocheck_verdicts(tmp_path):
    first = write(tmp_path / "a.json", edge_scenario())
    second = write(
        tmp_path / "b.json",
        edge_scenario({"(a,a)": 0.4, "(a,A)": 0.3, "(A,a)": 0.2, "(A,A)": 0.1}),
    )
    out = tmp_path / "out"
    code = main(
        ["isocheck", "--scenario", first, "--scenario-b", second, "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "isocheck.json").read_text())
    assert payload["verdict"] == "isomorphic-per-theorem"
    assert payload["support_equal"] and payload["skeleton_equal"]


def test_isocheck_same_scenario_twice(tmp_path):
    first = write(tmp_path / "a.json", edge_scenario())
    out = tmp_path / "out"
    code = main(["isocheck", "--scenario", first, "--scenario-b", first, "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "isocheck.json").read_text())
    assert payload["verdict"] == "isomorphic-per-theorem"


def test_isocheck_rejects_different_graphs(tmp_path):
    first = write(tmp_path / "a.json", edge_scenario())
    second = write(tmp_path / "b.json", free_scenario())
    out = tmp_path / "out"
    code = main(["isocheck", "--scenario", first, "--scenario-b", second, "--out", str(out)])
    assert code == 2


def limits_scenario(radii=(1, 2), beta=5.0, pairs=None, low_temp=None):
    payload = {
        "schema_version": 1,
        "limits": {
            "dimension": 1,
            "states": 2,
            "radii": list(radii),
            "J": 1.0,
            "beta": beta,
            "pairs": pairs
            if pairs is not None
            else [
                {
                    "phi": [{"tail": 1}, {"tail": 1}],
                    "psi": [{"tail": 1}, {"tail": 1}],
                }
            ],
        },
    }
    if low_temp:
        payload["limits"]["low_temp"] = low_temp
    return payload


def test_limits_emits_csv_and_json(tmp_path):
    scenario = write(tmp_path / "l.json", limits_scenario())
    out = tmp_path / "out"
    assert main(["limits", "--scenario", scenario, "--out", str(out)]) == 0
    csv_lines = (out / "limits.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "d,q,beta,radius,phi,psi,coefficient"
    assert len(csv_lines) == 3
    payload = json.loads((out / "limits.json").read_text())
    assert payload["pairs"][0]["values"] == [1.0, 1.0]
    assert payload["pairs"][0]["converged"] is True


def test_limits_budget(tmp_path, capsys, monkeypatch):
    """Box sites summed over all radii are budgeted before any box graph is built."""
    def refuse(*args):
        raise AssertionError("a box graph was built")

    monkeypatch.setattr(ev.graphs, "Graph", refuse)
    scenario = write(tmp_path / "l.json", limits_scenario(radii=(0, 1, 499998)))
    assert main(["limits", "--scenario", scenario, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "= 1000001 box sites" in err and "budget of 1000000" in err
    assert not (tmp_path / "limits.json").exists()
    # exactly the budget: 1 + 999999 sites
    scenario = write(tmp_path / "l.json", limits_scenario(radii=(0, 499999), pairs=[]))
    assert main(["limits", "--scenario", scenario, "--out", str(tmp_path)]) == 0


def test_limits_pairs_on_long_chains_and_wide_squares(tmp_path):
    beta = 0.7
    flip = [{"phi": [{"tail": 1}, {"tail": 1, "pattern": [[0, 2]]}], "psi": [{"tail": 1}, {"tail": 1}]}]
    scenario = write(tmp_path / "l.json", limits_scenario(radii=(0, 10, 100, 1000), beta=beta, pairs=flip))
    out = tmp_path / "line"
    assert main(["limits", "--scenario", scenario, "--out", str(out)]) == 0
    values = json.loads((out / "limits.json").read_text())["pairs"][0]["values"]
    # a lone site has no edge; from r=1 on the flip breaks two equal edges
    assert values[0] == 0.25
    assert values[1:] == pytest.approx([(1 + math.exp(-2 * beta)) ** -2] * 3, abs=1e-12)
    flip[0]["phi"][1]["pattern"] = [[[0, 0], 2]]
    payload = limits_scenario(radii=(100,), beta=beta, pairs=flip)
    payload["limits"]["dimension"] = 2
    out = tmp_path / "square"
    assert main(["limits", "--scenario", write(tmp_path / "s.json", payload), "--out", str(out)]) == 0
    values = json.loads((out / "limits.json").read_text())["pairs"][0]["values"]
    assert values == pytest.approx([(1 + math.exp(-4 * beta)) ** -2], abs=1e-12)


def test_limits_low_temp_block(tmp_path):
    scenario = write(
        tmp_path / "l.json", limits_scenario(low_temp={"betas": [0.5, 2.0]})
    )
    out = tmp_path / "out"
    assert main(["limits", "--scenario", scenario, "--out", str(out)]) == 0
    payload = json.loads((out / "limits.json").read_text())
    assert payload["low_temp"]["distinct_generators"] is True
    assert len(payload["low_temp"]["candidates"]) == 2


def test_limits_cold_pairs_need_no_measure(tmp_path):
    # far below the measure's underflow floor, yet Z cancels from the coefficient
    pairs = [{"phi": [{"tail": 1}, {"tail": 2}], "psi": [{"tail": 1}, {"tail": 1}]}]
    scenario = write(tmp_path / "l.json", limits_scenario(beta=400.0, pairs=pairs))
    out = tmp_path / "out"
    assert main(["limits", "--scenario", scenario, "--out", str(out)]) == 0
    payload = json.loads((out / "limits.json").read_text())
    assert payload["pairs"][0]["values"] == [0.25, 0.25]


def test_limits_cold_low_temp_still_underflows(tmp_path, capsys):
    scenario = write(tmp_path / "l.json", limits_scenario(pairs=[], low_temp={"betas": [400.0]}))
    assert main(["limits", "--scenario", scenario, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: gibbs: normalized weights underflow; measure no longer strictly positive\n"
    )


@pytest.mark.parametrize("dimension", [1, 2])
def test_limits_transfer_table_budget(tmp_path, capsys, monkeypatch, dimension):
    """A million states at radius 0 cost coefficients nothing, but their q^2 transfer table is over budget."""
    def refuse(*args):
        raise AssertionError("the transfer table was allocated")

    monkeypatch.setattr(ev.limits, "state_axes", refuse)
    payload = limits_scenario(radii=(0,))
    payload["limits"].update(dimension=dimension, states=1000000)
    scenario = write(tmp_path / "l.json", payload)
    assert main(["limits", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    payload["limits"]["low_temp"] = {"betas": [1.0]}
    scenario = write(tmp_path / "cold.json", payload)
    capsys.readouterr()
    assert main(["limits", "--scenario", scenario, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == (
        "budget exceeded: low_temp: 1 betas * sum over 1 radii of columns * q^(2*width) "
        "= 1000000000000 entries exceed the enumeration budget of 1000000\n"
    )


def test_low_temp_report_size_budget(tmp_path, capsys, monkeypatch):
    """The sweeps of every box measure, which outnumber the printed masses, are counted before any is built."""
    # a thousand states at radius 0 under one beta: 10^6 entries, exactly the budget
    payload = limits_scenario(radii=(0,), low_temp={"betas": [1.0]})
    payload["limits"]["states"] = 1000
    out = tmp_path / "out"
    assert main(["limits", "--scenario", write(tmp_path / "l.json", payload), "--out", str(out)]) == 0
    assert len(json.loads((out / "limits.json").read_text())["low_temp"]["candidates"]) == 1000

    def refuse(*args):
        raise AssertionError("a box measure was built")

    monkeypatch.setattr(ev.limits, "BoxMeasure", refuse)
    payload["limits"]["low_temp"]["betas"] = [1.0, 2.0]
    capsys.readouterr()
    assert main(["limits", "--scenario", write(tmp_path / "l.json", payload), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: low_temp: 2 betas * sum over 1 radii of columns * q^(2*width) "
        "= 2000000 entries exceed the enumeration budget of 1000000\n"
    )
    assert not (tmp_path / "limits.json").exists()


def test_low_temp_square_boxes_up_to_radius_3(tmp_path, capsys):
    # per beta, 7 columns * 2^14 = 114688 entries at r=3 and 9 * 2^18 = 2359296 at r=4
    payload = limits_scenario(radii=(3,), beta=0.5, pairs=[], low_temp={"betas": [0.5]})
    payload["limits"]["dimension"] = 2
    out = tmp_path / "out"
    assert main(["limits", "--scenario", write(tmp_path / "l.json", payload), "--out", str(out)]) == 0
    masses = json.loads((out / "limits.json").read_text())["low_temp"]["candidates"][0]["masses"]
    assert 0 < masses[0][0] < 1
    payload["limits"]["radii"] = [4]
    capsys.readouterr()
    assert main(["limits", "--scenario", write(tmp_path / "l.json", payload), "--out", str(tmp_path)]) == 3
    assert "= 2359296 entries exceed the enumeration budget of 1000000" in capsys.readouterr().err


def test_dlr_gap_report(tmp_path):
    scenario = write(
        tmp_path / "p.json", potts_scenario(["1", "2", "3"], [["1", "2"], ["2", "3"]])
    )
    out = tmp_path / "out"
    assert main(["dlr", "--scenario", scenario, "--domain", "1,2", "--out", str(out)]) == 0
    payload = json.loads((out / "dlr.json").read_text())
    assert payload["max_gap"] < 1e-10
    assert len(payload["rows"]) == 4


def test_dlr_builds_the_gibbs_measure_once(tmp_path, monkeypatch):
    scenario = write(tmp_path / "p.json", potts_scenario(["1", "2", "3"], [["1", "2"], ["2", "3"]]))
    calls = []
    original = ev.measures.gibbs_measure
    monkeypatch.setattr(ev.measures, "gibbs_measure", lambda h: calls.append(h) or original(h))
    assert main(["dlr", "--scenario", scenario, "--domain", "2", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_dlr_full_volume_gap_zero(tmp_path):
    scenario = write(tmp_path / "p.json", potts_scenario(["1", "2"], [["1", "2"]]))
    out = tmp_path / "out"
    assert main(["dlr", "--scenario", scenario, "--domain", "1,2", "--out", str(out)]) == 0
    payload = json.loads((out / "dlr.json").read_text())
    assert payload["max_gap"] == 0.0


def test_dlr_reads_a_long_domain_in_linear_time(tmp_path):
    """``--domain`` labels map through one dict: found by a scan of the label tuple each, the last 5,000 vertices of a
    20,000-vertex one-state path take about 3.7 s."""
    payload = long_path(20000, ["a"], {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 1.0}})
    scenario = write(tmp_path / "s.json", payload)
    domain = payload["graph"]["vertices"][-5000:]
    start = time.perf_counter()
    assert main(["dlr", "--scenario", scenario, "--domain", ",".join(domain), "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 1.5
    report = json.loads((tmp_path / "dlr.json").read_text())
    assert report["domain"] == domain and len(report["rows"]) == 1


def test_dlr_empty_domain_rejected(tmp_path):
    scenario = write(tmp_path / "p.json", potts_scenario(["1", "2"], [["1", "2"]]))
    assert main(["dlr", "--scenario", scenario, "--domain", "", "--out", str(tmp_path)]) == 2


def test_dlr_requires_hamiltonian_measure(tmp_path):
    scenario = write(tmp_path / "w.json", edge_scenario())
    assert main(["dlr", "--scenario", scenario, "--domain", "1", "--out", str(tmp_path)]) == 2


def test_stdout_mode(tmp_path, capsys):
    scenario = write(tmp_path / "s.json", edge_scenario())
    out = tmp_path / "out"
    assert main(["hierarchy", "--scenario", scenario, "--out", str(out), "--stdout"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["level_count"] == 2
    assert not (out / "hierarchy.json").exists()


def test_main_reuses_its_parser_after_a_usage_error(tmp_path, capsys, monkeypatch):
    """A usage error leaves the one parser intact: the next report equals a lone call's."""
    scenario = write(tmp_path / "p.json", potts_scenario(["1", "2", "3"], [["1", "2"], ["2", "3"]]))
    env = dict(os.environ, PYTHONPATH=str(Path(ev.__file__).parents[1]))
    lone = tmp_path / "lone"
    subprocess.run(
        [sys.executable, "-m", "evoalg.cli", "hierarchy", "--scenario", scenario, "--out", str(lone)],
        check=True, env=env,
    )
    monkeypatch.setattr(ev.cli, "_parser", lambda: pytest.fail("main built a parser"))
    with pytest.raises(SystemExit) as exc:
        main(["hierarchy", "--scenario", scenario, "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    again = tmp_path / "again"
    assert main(["hierarchy", "--scenario", scenario, "--out", str(again)]) == 0
    for name in ("hierarchy.json", "hierarchy.txt"):
        assert (again / name).read_bytes() == (lone / name).read_bytes()


def test_unknown_scenario_file(tmp_path):
    assert main(["build", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_wrong_schema_version(tmp_path):
    payload = edge_scenario()
    payload["schema_version"] = 2
    scenario = write(tmp_path / "v2.json", payload)
    assert main(["build", "--scenario", scenario, "--out", str(tmp_path)]) == 2


def general_scenario(values):
    payload = potts_scenario(["1", "2"], [["1", "2"]])
    payload["measure"] = {
        "hamiltonian": {
            "beta": 1.0,
            "pair_coupling": [{"edge": ["1", "2"], "matrix": [[0, 1], [1, 0]]}],
            "site_field": [{"vertex": "1", "values": values}],
        }
    }
    return payload


def limits_with(**fields):
    payload = limits_scenario()
    payload["limits"].update(fields)
    return payload


def coupling_with(matrix):
    payload = general_scenario([0.5, 0.5])
    payload["measure"]["hamiltonian"]["pair_coupling"][0]["matrix"] = matrix
    return payload


def repeated(field, entry):
    """``general_scenario`` with ``entry`` appended to its Hamiltonian's ``field`` list."""
    payload = general_scenario([0.5, 0.5])
    payload["measure"]["hamiltonian"][field].append(entry)
    return payload


TAILS = [{"tail": 1}, {"tail": 1}]


MALFORMED = {
    "top-level array, build": ("build", [edge_scenario()], "scenario"),
    "top-level array, limits": ("limits", [limits_scenario()], "scenario"),
    "short site field": ("dlr", general_scenario([0.5]), "measure.hamiltonian.site_field"),
    "non-numeric weight": (
        "build",
        edge_scenario({"(a,a)": "heavy", "(a,A)": 1, "(A,a)": 1, "(A,A)": 1}),
        "measure.weights['(a,a)']",
    ),
    "non-numeric dimension": ("limits", limits_with(dimension="x"), "scenario.limits.dimension"),
    "scalar radii": ("limits", limits_with(radii=3), "scenario.limits.radii"),
    "non-numeric tail state": (
        "limits",
        limits_with(pairs=[{"phi": [{"tail": "x"}, {"tail": 1}], "psi": [{"tail": 1}, {"tail": 1}]}]),
        "scenario.limits.pairs.tail",
    ),
    "pair coupling entry not an object": (
        "dlr",
        {**general_scenario([0.5, 0.5]), "measure": {"hamiltonian": {"beta": 1.0, "pair_coupling": [3]}}},
        "measure.hamiltonian.pair_coupling",
    ),
    "non-numeric coupling matrix": (
        "dlr",
        coupling_with([["x", 1], [1, 0]]),
        "measure.hamiltonian.pair_coupling.matrix",
    ),
    "repeated edge": (
        "dlr",
        repeated("pair_coupling", {"edge": ["1", "2"], "matrix": [[0, 1], [1, 0]]}),
        "measure.hamiltonian.pair_coupling: duplicate edge [1, 2]",
    ),
    "repeated edge, reversed": (
        "dlr",
        repeated("pair_coupling", {"edge": ["2", "1"], "matrix": [[0, 1], [1, 0]]}),
        "measure.hamiltonian.pair_coupling: duplicate edge [2, 1]",
    ),
    "repeated site": (
        "dlr",
        repeated("site_field", {"vertex": "1", "values": [0.5, 0.5]}),
        "measure.hamiltonian.site_field: duplicate vertex '1'",
    ),
    "boolean schema_version": ("build", {**edge_scenario(), "schema_version": True}, "scenario.schema_version"),
    "float schema_version": ("build", {**edge_scenario(), "schema_version": 1.0}, "scenario.schema_version"),
    "pairs not a list": ("limits", limits_with(pairs=3), "scenario.limits.pairs"),
    "pairs entry not an object": ("limits", limits_with(pairs=[3]), "scenario.limits.pairs"),
    "phi not a list": (
        "limits",
        limits_with(pairs=[{"phi": 3, "psi": TAILS}]),
        "scenario.limits.pairs.phi",
    ),
    "pattern not a list": (
        "limits",
        limits_with(pairs=[{"phi": [{"tail": 1, "pattern": 5}, {"tail": 1}], "psi": TAILS}]),
        "scenario.limits.pairs.pattern",
    ),
    "non-numeric low_temp beta": (
        "limits",
        limits_with(low_temp={"betas": [0.5, "hot"]}),
        "scenario.limits.low_temp.betas",
    ),
    "negative beta, no pairs": ("limits", limits_with(beta=-1.0, pairs=[]), "scenario.limits.beta"),
    "infinite beta, no pairs": ("limits", limits_with(beta=1e999, pairs=[]), "scenario.limits.beta"),
    "infinite J, no pairs": ("limits", limits_with(J=1e999, pairs=[]), "scenario.limits.J"),
    "negative low_temp beta": (
        "limits",
        limits_with(pairs=[], low_temp={"betas": [-1.0, 2.0]}),
        "scenario.limits.low_temp.betas",
    ),
    "fractional states": ("limits", limits_with(states=2.7), "scenario.limits.states: expected an integer"),
    "string states": ("limits", limits_with(states="2"), "scenario.limits.states: expected an integer"),
    "boolean dimension": ("limits", limits_with(dimension=True), "scenario.limits.dimension: expected an integer"),
    "fractional radii": ("limits", limits_with(radii=[1.5, 2.9]), "scenario.limits.radii: expected an integer"),
    "string beta": ("limits", limits_with(beta="5"), "scenario.limits.beta: expected a number"),
    "fractional tail state": (
        "limits",
        limits_with(pairs=[{"phi": [{"tail": 1.8}, {"tail": 1}], "psi": TAILS}]),
        "scenario.limits.pairs.tail: expected an integer",
    ),
    "fractional pattern site": (
        "limits",
        limits_with(pairs=[{"phi": [{"tail": 1, "pattern": [[0.6, 2]]}, {"tail": 1}], "psi": TAILS}]),
        "scenario.limits.pairs.pattern: expected an integer",
    ),
    "tail state above q": (
        "limits",
        limits_with(pairs=[{"phi": [{"tail": 5}, {"tail": 1}], "psi": TAILS}]),
        "scenario.limits.pairs.tail: state must be in 1..2, got 5",
    ),
    "tail state zero": (
        "limits",
        limits_with(pairs=[{"phi": TAILS, "psi": [{"tail": 1}, {"tail": 0}]}]),
        "scenario.limits.pairs.tail: state must be in 1..2, got 0",
    ),
    "pattern state above q": (
        "limits",
        limits_with(pairs=[{"phi": [{"tail": 1, "pattern": [[0, 3]]}, {"tail": 1}], "psi": TAILS}]),
        "scenario.limits.pairs.pattern: state must be in 1..2, got 3",
    ),
}


@pytest.mark.parametrize("command, payload, field", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_scenario_exits_2_without_traceback(tmp_path, command, payload, field):
    scenario = write(tmp_path / "bad.json", payload)
    argv = [command, "--scenario", scenario, "--out", str(tmp_path / "out")]
    if command == "dlr":
        argv += ["--domain", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(ev.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "evoalg.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: {field}" in proc.stderr
    assert not (tmp_path / "out").exists()


# scenarios (a second one is --scenario-b), extra arguments and the exit code of a run that each command rejects at
# or near its last check, once the work that precedes its reports is done (the nonzero-budget test above covers an
# over-budget build)
REJECTED_LATE = {
    "build, missing weight": ("build", [edge_scenario({"(a,a)": 1, "(a,A)": 1, "(A,a)": 1})], [], 2),
    "hierarchy, repeated site": ("hierarchy", [repeated("site_field", {"vertex": "1", "values": [0, 1]})], [], 2),
    "isocheck, different graphs": ("isocheck", [edge_scenario(), free_scenario()], [], 2),
    "limits, bad low_temp beta": ("limits", [limits_with(low_temp={"betas": [0.5, "hot"]})], [], 2),
    "limits, low_temp budget": ("limits", [limits_with(states=1000, radii=[0], low_temp={"betas": [1.0, 2.0]})], [], 3),
    "dlr, unknown domain vertex": ("dlr", [potts_scenario(["1", "2"], [["1", "2"]])], ["--domain", "1,3"], 2),
}


@pytest.mark.parametrize("command, scenarios, extra, code", REJECTED_LATE.values(), ids=list(REJECTED_LATE))
def test_a_rejected_run_makes_no_out_directory(tmp_path, capsys, command, scenarios, extra, code):
    """``--out`` is made once a command's work is done, just before its reports are written: a rejected run leaves
    neither it nor its parents."""
    names = [write(tmp_path / f"s{i}.json", scenario) for i, scenario in enumerate(scenarios)]
    extra = extra + ["--scenario-b", *names[1:]] * (len(names) > 1)
    assert main([command, "--scenario", names[0], *extra, "--out", str(tmp_path / "out" / "nested")]) == code
    assert capsys.readouterr().err.startswith(("error: ", "budget exceeded: "))
    assert not (tmp_path / "out").exists()


@st.composite
def general_hamiltonians(draw):
    """A general Hamiltonian scenario and a nonempty ``--domain``: a graph of at least one edge on 2 to 5 vertices, 2
    or 3 states, and random couplings on every edge, asymmetric but for chance, and fields on some vertices.  Three
    states stop at 4 vertices: 5 would export a 14 MB matrix."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(2, 5 if k == 2 else 4))
    vertices = [f"v{i}" for i in range(n)]
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(vertices, 2))), min_size=1, unique=True))
    values = st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)
    hamiltonian = {
        "beta": draw(st.floats(0.0, 3.0)),
        "pair_coupling": [{"edge": list(e), "matrix": draw(st.lists(values, min_size=k, max_size=k))} for e in edges],
        "site_field": [{"vertex": v, "values": draw(values)}
                       for v in draw(st.lists(st.sampled_from(vertices), unique=True))],
    }
    payload = {"schema_version": 1, "graph": {"vertices": vertices, "edges": [list(e) for e in edges]},
               "states": {"states": ["a", "b", "c"][:k]}, "measure": {"hamiltonian": hamiltonian}}
    return payload, ",".join(draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True)))


@settings(max_examples=50, deadline=None)
@given(general_hamiltonians())
def test_a_reversed_edge_with_its_matrix_transposed_changes_no_report(case):
    """A coupling matrix's rows index the state of the vertex listed first, so listing every edge the other way round
    with its matrix transposed gives the same weights, bit for bit, and the same ``dlr.json`` and ``matrix.json``."""
    payload, domain = case
    flipped = copy.deepcopy(payload)
    for entry in flipped["measure"]["hamiltonian"]["pair_coupling"]:
        entry["edge"].reverse()
        entry["matrix"] = [list(column) for column in zip(*entry["matrix"])]
    with tempfile.TemporaryDirectory() as tmp:
        reports, weights = [], []
        for name, scenario in (("forward", payload), ("reversed", flipped)):
            path = write(Path(tmp) / f"{name}.json", scenario)
            weights.append([w.hex() for w in ev.cli.load_scenario(path).measure.weights.tolist()])
            out = Path(tmp) / name
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(["dlr", "--scenario", path, "--domain", domain, "--out", str(out)]) == 0
                assert main(["build", "--scenario", path, "--out", str(out)]) == 0
            reports.append([(out / report).read_bytes() for report in ("dlr.json", "matrix.json")])
        assert weights[0] == weights[1]
        assert reports[0] == reports[1]


def edges_with(edges):
    payload = edge_scenario()
    payload["graph"]["edges"] = edges
    return payload


BIG = {f"key{i}": i for i in range(2000)}
LONG_VALUES = {
    "4,000-digit beta": ("limits", limits_with(beta=10**3999), "scenario.limits.beta", "int"),
    "2,000-key radii": ("limits", limits_with(radii=BIG), "scenario.limits.radii", "dict"),
    "2,000-character states": ("limits", limits_with(states="9" * 2000), "scenario.limits.states", "str"),
    "2,000-character tail": (
        "limits",
        limits_with(pairs=[{"phi": [{"tail": "x" * 2000}, {"tail": 1}], "psi": TAILS}]),
        "scenario.limits.pairs.tail",
        "str",
    ),
    "4,000-digit tail": (
        "limits",
        limits_with(pairs=[{"phi": [{"tail": 10**3999}, {"tail": 1}], "psi": TAILS}]),
        "scenario.limits.pairs.tail",
        "int",
    ),
    "4,000-digit pattern state": (
        "limits",
        limits_with(pairs=[{"phi": [{"tail": 1, "pattern": [[0, 10**3999]]}, {"tail": 1}], "psi": TAILS}]),
        "scenario.limits.pairs.pattern",
        "int",
    ),
    "2,000-item pairs entry": ("limits", limits_with(pairs=[list(range(2000))]), "scenario.limits.pairs", "list"),
    "2,000-key edges": ("build", edges_with(BIG), "graph.edges", "dict"),
    "2,000-item site field": ("dlr", general_scenario(list(range(2000))), "measure.hamiltonian.site_field", "list"),
    "2,000-key pair coupling": (
        "dlr",
        {**general_scenario([0.5, 0.5]), "measure": {"hamiltonian": {"beta": 1.0, "pair_coupling": BIG}}},
        "measure.hamiltonian.pair_coupling",
        "dict",
    ),
}


@pytest.mark.parametrize("command, payload, field, kind", LONG_VALUES.values(), ids=list(LONG_VALUES))
def test_rejected_values_are_echoed_cut_short(tmp_path, capsys, command, payload, field, kind):
    scenario = write(tmp_path / "bad.json", payload)
    argv = [command, "--scenario", scenario, "--out", str(tmp_path / "out")]
    if command == "dlr":
        argv += ["--domain", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}")
    assert f"got {kind} " in err and err.endswith("…\n")
    assert len(err) < len(field) + 160


LONG = "x" * 5000
CUT = "x" * 60 + "…"
PADDED = "(a,a)" + " " * 5000  # the cell (a,a) once its key is stripped


def long_label_site_field():
    payload = general_scenario([0.5, 0.5])
    payload["measure"]["hamiltonian"]["site_field"][0]["vertex"] = LONG
    return payload


LONG_LABELS = {
    "malformed edge": ("build", edges_with([[LONG, LONG, LONG]]), "1", f"graph.edges: malformed edge ['{'x' * 58}…"),
    "unknown endpoint": ("build", edges_with([[LONG, "2"]]), "1", f"graph.edges: unknown endpoint in [{CUT}, 2]"),
    "loop edge": (
        "build",
        {**edges_with([[LONG, LONG]]), "graph": {"vertices": [LONG, "2"], "edges": [[LONG, LONG]]}},
        "1",
        f"graph.edges: loop edge [{CUT}, {CUT}]",
    ),
    "duplicate edge": (
        "build",
        {**edges_with([]), "graph": {"vertices": [LONG, "2"], "edges": [[LONG, "2"], ["2", LONG]]}},
        "1",
        f"graph.edges: duplicate edge [2, {CUT}]",
    ),
    "dlr domain": ("dlr", potts_scenario(["1", "2"], [["1", "2"]]), LONG, f"domain: unknown vertex '{CUT}'"),
    "site field vertex": ("dlr", long_label_site_field(), "1", f"measure.hamiltonian: unknown vertex '{CUT}'"),
    "weights key": ("build", edge_scenario({LONG: 1.0}), "1", f"measure.weights: key '{CUT}' must list 2 states"),
    "state label": ("build", edge_scenario({f"({LONG},a)": 1.0}), "1", f"states: unknown state label '{CUT}'"),
    "duplicate cell": (
        "build",
        edge_scenario({"(a,a)": 1.0, PADDED: 1.0}),
        "1",
        f"measure.weights: duplicate cell '{PADDED[:60]}…'",
    ),
    "weight value": (
        "build",
        edge_scenario({PADDED: "x"}),
        "1",
        f"measure.weights['{PADDED[:60]}…']: expected 1 number(s), got str 'x'",
    ),
}


@pytest.mark.parametrize("command, payload, domain, message", LONG_LABELS.values(), ids=list(LONG_LABELS))
def test_long_labels_are_echoed_cut_short(tmp_path, capsys, command, payload, domain, message):
    """A label of 5,000 characters is echoed as its first 60 and an ellipsis: one line, well under 400 characters."""
    scenario = write(tmp_path / "bad.json", payload)
    argv = [command, "--scenario", scenario, "--out", str(tmp_path / "out")]
    assert main(argv + ["--domain", domain] * (command == "dlr")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def potts_with(**fields):
    payload = potts_scenario(["1", "2"], [["1", "2"]])
    payload["measure"]["hamiltonian"].update(fields)
    return payload


# a scenario carrying one value in one numeric measure field, by the field's name in messages
MEASURE_NUMBERS = {
    "measure.hamiltonian.beta": lambda value: potts_with(beta=value),
    "measure.hamiltonian.J": lambda value: potts_with(J=value),
    "measure.weights['(a,a)']": lambda value: edge_scenario({"(a,a)": value, "(a,A)": 1, "(A,a)": 1, "(A,A)": 1}),
    "measure.hamiltonian.site_field": lambda value: general_scenario([value, 0.5]),
    "measure.hamiltonian.pair_coupling.matrix": lambda value: coupling_with([[0, value], [1, 0]]),
}
NOT_FLOATS = {
    "too large": (10**400, "number too large for a float"),
    "boolean": (True, "expected"),
    "string": ("2", "expected"),
}


@pytest.mark.parametrize("kind", sorted(NOT_FLOATS))
@pytest.mark.parametrize("field", sorted(MEASURE_NUMBERS))
def test_measure_numbers_must_be_floats(tmp_path, capsys, field, kind):
    value, message = NOT_FLOATS[kind]
    scenario = write(tmp_path / "bad.json", MEASURE_NUMBERS[field](value))
    for command in ("build", "isocheck"):
        assert main(command_argv(command, scenario, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: {message}") and len(err.encode()) < 200


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize(
    "fault, message",
    [("outside", "coordinate {} outside box of radius 0"), ("twice", "tail cell: duplicate pattern site {}")],
    ids=["outside", "twice"],
)
def test_rejected_sites_are_echoed_cut_short(tmp_path, capsys, dimension, fault, message):
    def rejection(site):
        site = site if dimension == 1 else [0, site]
        pattern = [[site, 2]] * (1 + (fault == "twice"))
        scenario = write(tmp_path / "s.json", limits_with(dimension=dimension, radii=[0, 1],
                                                           pairs=[{"phi": [{"tail": 1, "pattern": pattern}, TAILS[0]],
                                                                   "psi": TAILS}]))
        assert main(["limits", "--scenario", scenario, "--out", str(tmp_path / "out")]) == 2
        return capsys.readouterr().err

    form = "({},)" if dimension == 1 else "(0, {})"
    for site in (5, -10**58, 10**59):  # up to 60 characters, as written
        assert rejection(site) == f"error: {message.format(form.format(site))}\n"
    err = rejection(10**3999)
    assert err == f"error: {message.format(form.format('int 1' + '0' * 59 + '…'))}\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(b"\xff\xfe not UTF-8", id="undecodable bytes"),
        pytest.param(
            b'{"schema_version": 1, "limits": {"states": ' + b"9" * 5000 + b"}}",
            id="overlong integer",
            marks=pytest.mark.skipif(
                not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                reason="no limit on int <-> str conversion in this interpreter",
            ),
        ),
    ],
)
def test_unreadable_scenario_exits_2_without_traceback(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert main(["limits", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: scenario: invalid JSON in {path}")


FUZZ_BASES = {
    "build": edge_scenario(),
    "hierarchy": potts_scenario(["1", "2", "3"], [["1", "2"], ["2", "3"]]),
    "isocheck": edge_scenario(),
    "limits": limits_scenario(
        radii=(0, 1),
        pairs=[{"phi": [{"tail": 1, "pattern": [[0, 2]]}, {"tail": 2}], "psi": TAILS}],
        low_temp={"betas": [0.5, 2.0]},
    ),
    "dlr": coupling_with([[0, 1], [1, 0]]),
}

FUZZ_KEYS = st.sampled_from(
    ["edge", "matrix", "vertex", "values", "beta", "model", "J", "tail", "pattern", "phi", "psi"]
) | st.text(max_size=3)

# at most three items per list keeps every graph at n <= 3 vertices
FUZZ_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers()
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(FUZZ_KEYS, inner, max_size=3),
    max_leaves=6,
)


def json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


def get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def mutate(data, tree):
    """Replace, delete or duplicate one node of a JSON tree."""
    paths = list(json_paths(tree))
    path = data.draw(st.sampled_from(paths))
    action = data.draw(st.sampled_from(["replace", "delete", "copy"]))
    if action == "copy":
        value = copy.deepcopy(get(tree, data.draw(st.sampled_from(paths))))
    else:
        value = data.draw(FUZZ_VALUES)
    if not path:
        return value
    parent = get(tree, path[:-1])
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FUZZ_BASES)), st.data())
def test_mutated_scenarios_exit_0_2_or_3(command, data):
    trees = [copy.deepcopy(FUZZ_BASES[command]) for _ in range(2 if command == "isocheck" else 1)]
    target = data.draw(st.integers(0, len(trees) - 1))
    for _ in range(data.draw(st.integers(1, 3))):
        trees[target] = mutate(data, trees[target])
    with tempfile.TemporaryDirectory() as tmp:
        names = [write(Path(tmp) / f"s{i}.json", tree) for i, tree in enumerate(trees)]
        argv = [command, "--scenario", names[0], "--out", str(Path(tmp) / "out")]
        if command == "isocheck":
            argv += ["--scenario-b", names[1]]
        if command == "dlr":
            argv += ["--domain", "1"]
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3)


def command_argv(command, scenario, out):
    """``command`` on ``scenario`` with the extra arguments it needs, writing to ``out``."""
    extra = {"isocheck": ["--scenario-b", scenario], "dlr": ["--domain", "1"]}.get(command, [])
    return [command, "--scenario", scenario, *extra, "--out", str(out)]


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
@pytest.mark.parametrize("where", ["existing file", "below a file"])
def test_unusable_out_path_exits_2_without_traceback(tmp_path, capsys, command, where):
    scenario = write(tmp_path / "s.json", FUZZ_BASES[command])
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker if where == "existing file" else blocker / "sub"
    assert main(command_argv(command, scenario, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out: ") and str(out) in err and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
def test_commands_leave_numpy_ma_unimported(tmp_path, command):
    """A command in a fresh interpreter imports no ``numpy.ma`` that ``import numpy`` did not.  On numpy 2.x plain
    ``np.unique`` imports it, which took about 15 ms, as long as the rest of a small ``build``."""
    scenario = write(tmp_path / "s.json", FUZZ_BASES[command])
    code = (
        "import sys; from evoalg.cli import main; eager = 'numpy.ma' in sys.modules; "
        f"status = main({command_argv(command, scenario, tmp_path / 'out')!r}); "
        "print(status, 'numpy.ma' in sys.modules and not eager)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ev.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout.splitlines()[-1:] == ["0 False"], proc.stdout + proc.stderr


def test_report_path_taken_by_a_directory_exits_2(tmp_path, capsys):
    scenario = write(tmp_path / "s.json", edge_scenario())
    (tmp_path / "out" / "matrix.csv").mkdir(parents=True)
    assert main(command_argv("build", scenario, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out: ") and "matrix.csv" in err and "Traceback" not in err
