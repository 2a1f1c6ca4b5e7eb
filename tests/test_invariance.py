"""The structure theorem's invariances, checked on arrays and on report bytes.

* Components only: adding edges inside the components leaves every layout array and every entry as it was, and
  every byte that ``build`` and ``hierarchy`` write.
* Scale: ``from_weights`` normalizes, so scaling the raw weights by ``2**j`` changes no entry, and any other factor
  in [0.1, 10] moves an entry by at most ``2 * ENTRY_ULPS`` units of 2**-52, relative: each side is within
  ``ENTRY_ULPS`` of the same exact value.  A scenario's ``weights`` table scaled by ``2**j`` writes the same
  ``build`` and ``hierarchy`` bytes.
* Connected means one vertex: a connected graph's algebra is the one-vertex algebra on its ``k**n`` cells under the
  same weights, entry for entry.

Graphs have up to four vertices and two or three states, at most 4,096 generators; raw weights are ``exp(U(-6, 6))``.
Entries are compared through ``entry_chunks``: indices by value, coefficients by ``float.hex``.  Reports are written by
``cli.main`` into temporary directories, fewer examples than the array checks, so the module keeps within 5 s.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import evoalg as ev
from evoalg import cli

from conftest import ENTRY_ULPS

LAYOUT_ARRAYS = ("contrib", "gen_row", "row_level", "row_lo", "row_hi", "level_start")


def entries(algebra) -> tuple:
    """All entries as one ``(rows, cols, values)`` triple of arrays."""
    chunks = list(algebra.matrix.entry_chunks())
    return tuple(np.concatenate([chunk[i] for chunk in chunks]) for i in range(3))


def assert_same_entries(left, right):
    (rows, cols, values), (rows_b, cols_b, values_b) = entries(left), entries(right)
    assert np.array_equal(rows, rows_b) and np.array_equal(cols, cols_b)
    assert list(map(float.hex, values.tolist())) == list(map(float.hex, values_b.tolist()))


@st.composite
def instances(draw):
    """A graph of up to four vertices with random edges, two or three states and raw weights ``exp(U(-6, 6))``."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4 if k == 2 else 3))
    edges = frozenset(p for p in itertools.combinations(range(n), 2) if draw(st.booleans()))
    raw = np.exp(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-6.0, 6.0, size=k**n))
    return ev.Graph(n, edges), ev.StateSpace(k), raw


def with_edges_inside(graph, data):
    """``graph`` with a drawn subset of the pairs inside its components added as edges."""
    inside = [p for part in ev.components(graph) for p in itertools.combinations(sorted(part), 2)]
    return ev.Graph(graph.vertex_count, graph.edges | {p for p in inside if data.draw(st.booleans())})


def build(graph, space, raw):
    return ev.build_algebra(graph, space, ev.from_weights(raw, graph.vertex_count, space.k))


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_edges_inside_components_change_nothing(case, data):
    graph, space, raw = case
    denser = with_edges_inside(graph, data)
    assert ev.components(denser) == ev.components(graph)
    left, right = build(graph, space, raw), build(denser, space, raw)
    for name in LAYOUT_ARRAYS:
        a, b = getattr(left.matrix.layout, name), getattr(right.matrix.layout, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for a, b in itertools.zip_longest(left.matrix.layout.level_children, right.matrix.layout.level_children):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), "level_children"
    assert_same_entries(left, right)


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(-30, 30), st.floats(0.1, 10.0))
def test_scaled_weights_change_no_entry_past_rounding(case, j, factor):
    graph, space, raw = case
    algebra = build(graph, space, raw)
    assert_same_entries(algebra, build(graph, space, raw * 2.0**j))
    values, scaled = entries(algebra)[2], entries(build(graph, space, raw * factor))[2]
    worst = float(np.max(np.abs(scaled - values) / values))
    assert worst <= 2 * ENTRY_ULPS * 2.0**-52, f"{worst * 2**52:.2f} units of 2**-52 under a factor {factor}"


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_a_connected_graph_is_one_vertex_on_its_cells(case, data):
    graph, space, raw = case
    n, k = graph.vertex_count, space.k
    # a random spanning tree makes the graph connected; any further edge keeps it so
    tree = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    more = {p for p in itertools.combinations(range(n), 2) if data.draw(st.booleans())}
    graph = ev.Graph(n, frozenset(tree | more))
    assert len(ev.components(graph)) == 1
    assert_same_entries(build(graph, space, raw), build(ev.Graph(1), ev.StateSpace(k**n), raw))


def report_bytes(graph, space, raw) -> dict:
    """The bytes of every file that ``build`` and ``hierarchy`` write for the scenario of ``graph`` under the weights
    table ``raw``, run through ``cli.main`` in a temporary directory."""
    labels = [f"s{s}" for s in range(space.k)]
    # the cells in index order, vertex 0 the least significant, as EvolutionAlgebra.cell_labels gives them
    cells = ["(" + ",".join(reversed(states)) + ")" for states in itertools.product(labels, repeat=graph.vertex_count)]
    vertices = [f"v{v}" for v in range(graph.vertex_count)]
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps({
            "schema_version": 1,
            "graph": {"vertices": vertices, "edges": [[vertices[x], vertices[y]] for x, y in sorted(graph.edges)]},
            "states": {"states": labels},
            "measure": {"weights": dict(zip(cells, raw.tolist()))}}))
        with contextlib.redirect_stderr(io.StringIO()):
            for command in ("build", "hierarchy"):
                assert cli.main([command, "--scenario", str(scenario), "--out", tmp]) == 0
        return {path.name: path.read_bytes() for path in sorted(Path(tmp).iterdir()) if path != scenario}


@settings(max_examples=30, deadline=None)
@given(instances(), st.data())
def test_edges_inside_components_change_no_report_byte(case, data):
    graph, space, raw = case
    denser = with_edges_inside(graph, data)
    reports = report_bytes(graph, space, raw)
    assert sorted(reports) == ["build_summary.json", "hierarchy.json", "hierarchy.txt", "matrix.csv", "matrix.json"]
    assert report_bytes(denser, space, raw) == reports


@settings(max_examples=30, deadline=None)
@given(instances(), st.integers(-30, 30))
def test_scaled_weights_change_no_report_byte(case, j):
    graph, space, raw = case
    assert report_bytes(graph, space, raw * 2.0**j) == report_bytes(graph, space, raw)
