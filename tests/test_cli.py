import contextlib
import copy
import io
import json
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
    entries = ev.load_matrix_csv(out / "matrix.csv")
    assert entries == ev.load_matrix_json(out / "matrix.json")
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


def test_limits_budget(tmp_path, capsys):
    scenario = write(tmp_path / "l.json", limits_scenario(radii=(1, 10)))
    assert main(["limits", "--scenario", scenario, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "2097152 cells" in err and "budget of 1000000" in err


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
