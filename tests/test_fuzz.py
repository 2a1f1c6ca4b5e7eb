"""Mutated golden scenarios through ``cli.main``: each exits 0, 2 or 3, a failure says why on one line of under 400
characters, nothing raises and nothing warns.

The seeds are the exit-0 entries of the ``build``, ``hierarchy``, ``dlr`` and ``limits`` golden manifests.  Each
example replaces or deletes one or two leaves of a seed's scenario; replacements are booleans, null, strings (one of
5,000 characters), ``10**400``, NaN, ±inf, ±1e308, lists and objects.  The path n=8 seeds of ``build`` and
``hierarchy`` are left out for time: each run of one takes a tenth of a second or more, and a deleted edge turns it
into the edgeless n=8 scenario, whose ``hierarchy`` takes longer still.  No exit-0 seed is edgeless with n=8.  The ``dlr`` seeds at the
enumeration budget's edge, path n=19 with k=2 and path n=12 with k=3, are left out for time as well: each run
enumerates over half a million cells.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from evoalg import cli

GOLDEN = Path(__file__).with_name("golden")
DELETE = object()
REPLACEMENTS = [True, False, None, "", "x", "y" * 5000, 10**400, float("nan"), float("inf"), -float("inf"), 1e308,
                -1e308, [], [1, "a"], {}, {"a": 1}, DELETE]


def _seeds() -> list:
    """``(command, scenario, extra argv)`` of every exit-0 golden entry but the path n=8 builds and hierarchies and
    the budget-edge ``dlr`` paths."""
    seeds = []
    for command in ("build", "hierarchy", "dlr", "limits"):
        for entry in json.loads((GOLDEN / f"{command}_manifest.json").read_text()).values():
            scenario = entry["scenario"] if "scenario" in entry else {"schema_version": 1, "limits": entry["limits"]}
            if entry["exit"] or len(scenario.get("graph", {}).get("vertices", ())) in (8, 12, 19):
                continue
            extra = ["--domain", entry["domain"]] if "domain" in entry else []
            seeds.append((command, scenario, extra + ["--stdout"] * entry.get("stdout", False)))
    return seeds


SEEDS = _seeds()


def leaves(node, path=()):
    """The paths to every value of a JSON tree that is neither an object nor a list."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaves(value, (*path, key))
    else:
        yield path


def mutated(tree, path, value):
    """A copy of ``tree`` with the leaf at ``path`` replaced by ``value``, or removed for ``DELETE``."""
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


def test_seeds_cover_every_command():
    assert {command for command, _, _ in SEEDS} == {"build", "hierarchy", "dlr", "limits"}
    assert not any(command in ("build", "hierarchy") and len(s["graph"]["vertices"]) >= 8 for command, s, _ in SEEDS)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_golden_scenarios_exit_cleanly(data):
    command, scenario, extra = data.draw(st.sampled_from(SEEDS))
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(leaves(scenario))
        if paths:
            scenario = mutated(scenario, data.draw(st.sampled_from(paths)), data.draw(st.sampled_from(REPLACEMENTS)))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # a warning would reach stderr ahead of the message, so it fails here as a raise
        warnings.simplefilter("error")
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--scenario", str(path), "--out", str(Path(tmp) / "out"), *extra])
    assert code in (0, 2, 3)
    if code:
        err = stderr.getvalue()
        assert err.startswith(("error:", "budget exceeded:")), err
        # an echoed label or value is cut short, so a message stays one short line
        assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 400, err
