
import re

import numpy as np
import pytest

import evoalg as ev
from evoalg.algebra import AlgebraElement
from evoalg.cells import PairCell
from evoalg.errors import BudgetError, ValidationError

from conftest import (
    REFERENCE_P,
    all_small_instances,
    brute_row,
    display_cells,
    pair_children,
    random_positive_measure,
)


def phi(i, j, n=2, k=2):
    """Pair of the i-th and j-th cells in display order (1-based)."""
    cells = display_cells(n, k)
    return PairCell(cells[i - 1], cells[j - 1])


def test_uniform_measure_gives_quarter_rows(edge_graph, two_states):
    mu = ev.uniform_measure(2, 2)
    algebra = ev.build_algebra(edge_graph, two_states, mu)
    row = algebra.row(phi(1, 2))
    assert set(row) == {phi(1, 1).index, phi(1, 2).index, phi(2, 1).index, phi(2, 2).index}
    assert all(v == pytest.approx(0.25, abs=1e-15) for v in row.values())


def test_reference_row_closed_form(edge_algebra):
    row = edge_algebra.row(phi(1, 2))
    p1, p2 = REFERENCE_P[0], REFERENCE_P[1]
    s = (p1 + p2) ** 2
    assert row[phi(1, 1).index] == pytest.approx(p1 * p1 / s, abs=1e-15)
    assert row[phi(1, 2).index] == pytest.approx(p1 * p2 / s, abs=1e-15)
    assert row[phi(2, 1).index] == pytest.approx(p1 * p2 / s, abs=1e-15)
    assert row[phi(2, 2).index] == pytest.approx(p2 * p2 / s, abs=1e-15)


def test_rows_match_direct_mass_ratios(edge_algebra, free_algebra):
    for algebra in (edge_algebra, free_algebra):
        for index in range(algebra.dimension):
            generator = algebra.pair_from_index(index)
            expected = brute_row(algebra, generator)
            got = algebra.row(index)
            assert set(got) == set(expected)
            for j, v in expected.items():
                assert got[j] == pytest.approx(v, abs=1e-12)


def test_split_components_row_is_plain_product(free_algebra):
    row = free_algebra.row(phi(1, 4))
    assert len(row) == 16
    cells = display_cells(2, 2)
    masses = dict(zip((c.index for c in cells), REFERENCE_P))
    for a in cells:
        for b in cells:
            expected = masses[a.index] * masses[b.index]
            assert row[PairCell(a, b).index] == pytest.approx(expected, abs=1e-15)


def test_square_of_diagonal_generator_is_itself(edge_algebra):
    x = edge_algebra.generator(phi(3, 3))
    assert edge_algebra.square(x) == AlgebraElement({phi(3, 3).index: 1.0})


def test_square_of_zero(edge_algebra):
    assert edge_algebra.square(AlgebraElement()).is_zero()


def test_square_of_generator_sum(edge_algebra):
    x = edge_algebra.generator(phi(1, 2)) + edge_algebra.generator(phi(2, 1))
    squared = edge_algebra.square(x)
    # both rows coincide, so the result doubles one of them
    row = edge_algebra.row(phi(1, 2))
    expected = AlgebraElement({j: 2 * v for j, v in row.items()})
    assert squared.distance(expected) < 1e-14


def test_distinct_generators_multiply_to_zero(edge_algebra):
    x = edge_algebra.generator(phi(1, 2))
    y = edge_algebra.generator(phi(2, 1))
    assert edge_algebra.multiply(x, y).is_zero()


def test_product_with_itself_matches_square(edge_algebra):
    rng = np.random.default_rng(7)
    x = AlgebraElement({int(i): rng.uniform(-2, 2) for i in rng.choice(16, 5, replace=False)})
    assert edge_algebra.multiply(x, x).distance(edge_algebra.square(x)) < 1e-14


def test_single_surviving_diagonal_term(edge_algebra):
    x = edge_algebra.generator(phi(1, 1)) + edge_algebra.generator(phi(1, 2))
    y = edge_algebra.generator(phi(1, 2))
    product = edge_algebra.multiply(x, y)
    expected = edge_algebra.square(edge_algebra.generator(phi(1, 2)))
    assert product.distance(expected) < 1e-15


@pytest.mark.parametrize("index", [-1, -16, 16, 10**6])
def test_arithmetic_rejects_out_of_range_generators(edge_algebra, index):
    bad = AlgebraElement({index: 1.0, 5: 0.5})
    # the last two share only generator 5, so the bad key is held by one factor alone
    good = AlgebraElement({5: 2.0})
    calls = (
        edge_algebra.square,
        lambda z: edge_algebra.multiply(z, z),
        lambda z: edge_algebra.multiply(z, good),
        lambda z: edge_algebra.multiply(good, z),
    )
    for call in calls:
        with pytest.raises(ValidationError, match=rf"^pair index {index} out of range$"):
            call(bad)


@pytest.mark.parametrize(
    "coeffs",
    [{1.5: 1.0}, {True: 1.0}, {"3": 1.0}, {np.bool_(True): 1.0}, {None: 1.0},
     {0: float("nan")}, {0: float("inf")}, {0: -np.inf}, {0: "1.5"}, {0: None}, {0: 1j},
     {0: 10**400}],
    ids=repr,
)
def test_element_rejects_non_integer_keys_and_non_finite_coefficients(coeffs):
    with pytest.raises(ValidationError, match="^element: "):
        AlgebraElement(coeffs)


def test_element_accepts_numpy_numbers():
    x = AlgebraElement({np.int64(3): np.float32(0.5), np.uint8(4): np.float64(-2.0), 5: 1})
    assert x.coeffs == {3: 0.5, 4: -2.0, 5: 1.0}
    assert all(type(i) is int and type(v) is float for i, v in x.coeffs.items())


@pytest.mark.parametrize("raw", [2.7, True, "3", np.float64(2.0)], ids=repr)
def test_raw_pair_index_must_be_an_integer(edge_algebra, raw):
    calls = (
        edge_algebra.row,
        lambda g: ev.precedes(edge_algebra, g, 5),
        lambda g: ev.precedes(edge_algebra, 5, g),
        lambda g: ev.generated_subalgebra(edge_algebra, [g]),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="^pair index must be an integer or a pair cell, got "):
            call(raw)
    assert edge_algebra.row(np.int64(2)) == edge_algebra.row(2)
    assert ev.generated_subalgebra(edge_algebra, [np.int32(2)]) == ev.generated_subalgebra(edge_algebra, [2])


def test_row_accessor(edge_algebra, free_algebra):
    assert edge_algebra.row(phi(4, 4)) == {phi(4, 4).index: 1.0}
    assert len(edge_algebra.row(phi(1, 2))) == 4
    assert len(free_algebra.row(phi(1, 4))) == 16
    with pytest.raises(ValidationError):
        edge_algebra.row(16)


def test_rows_are_stochastic_on_random_instances():
    rng = np.random.default_rng(11)
    graphs = [
        ev.Graph(2, frozenset({(0, 1)})),
        ev.Graph(2),
        ev.Graph(3, frozenset({(0, 1)})),
        ev.Graph(3, frozenset({(0, 1), (1, 2), (0, 2)})),
    ]
    for graph in graphs:
        for k in (2, 3):
            space = ev.StateSpace(k)
            mu = random_positive_measure(rng, graph.vertex_count, k)
            algebra = ev.build_algebra(graph, space, mu)
            for index in range(algebra.dimension):
                assert abs(sum(algebra.row(index).values()) - 1.0) < 1e-12


def test_support_equals_pair_children():
    rng = np.random.default_rng(3)
    for graph, space in all_small_instances():
        parts = ev.components(graph)
        mu = random_positive_measure(rng, graph.vertex_count, space.k)
        algebra = ev.build_algebra(graph, space, mu)
        for index in range(algebra.dimension):
            generator = algebra.pair_from_index(index)
            kids = pair_children(generator, parts, space)
            assert set(algebra.row(index)) == {p.index for p in kids}


def test_elements_drop_vanishing_coefficients():
    assert AlgebraElement({0: 1e-20, 3: 0.0}).is_zero()
    kept = AlgebraElement({0: 1e-20, 3: 0.5})
    assert set(kept.coeffs) == {3}


def test_support_is_measure_independent(edge_graph, two_states):
    rng = np.random.default_rng(5)
    first = ev.build_algebra(edge_graph, two_states, random_positive_measure(rng, 2, 2))
    second = ev.build_algebra(edge_graph, two_states, random_positive_measure(rng, 2, 2))
    for index in range(first.dimension):
        assert set(first.row(index)) == set(second.row(index))


def test_commutativity_and_flexibility(edge_algebra):
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = AlgebraElement(
            {int(i): rng.uniform(-2, 2) for i in rng.choice(16, 4, replace=False)}
        )
        y = AlgebraElement(
            {int(i): rng.uniform(-2, 2) for i in rng.choice(16, 4, replace=False)}
        )
        assert edge_algebra.multiply(x, y).distance(edge_algebra.multiply(y, x)) == 0.0
        left = edge_algebra.multiply(x, edge_algebra.multiply(y, x))
        right = edge_algebra.multiply(edge_algebra.multiply(x, y), x)
        assert left.distance(right) < 1e-10


def test_non_associativity_witness(edge_algebra):
    x = edge_algebra.generator(phi(1, 2))
    z = edge_algebra.generator(phi(1, 1))
    left = edge_algebra.multiply(edge_algebra.multiply(x, x), z)
    right = edge_algebra.multiply(x, edge_algebra.multiply(x, z))
    assert left.distance(right) > 1e-6


def test_square_scales_quadratically(edge_algebra):
    rng = np.random.default_rng(17)
    x = AlgebraElement({int(i): rng.uniform(-1, 1) for i in range(16)})
    scaled = edge_algebra.square(2.5 * x)
    expected = AlgebraElement(
        {j: 2.5**2 * v for j, v in edge_algebra.square(x).coeffs.items()}
    )
    assert scaled.distance(expected) < 1e-12


def test_children_mass_square_matches_double_sum(free_algebra):
    mu = free_algebra.measure
    for index in range(free_algebra.dimension):
        cells = free_algebra.matrix.children(index)[0].tolist()
        linear = sum(float(mu.weights[c]) for c in cells) ** 2
        double = sum(
            float(mu.weights[a]) * float(mu.weights[b]) for a in cells for b in cells
        )
        assert linear == pytest.approx(double, abs=1e-12)


def test_budget_rejection():
    graph = ev.Graph(10)
    space = ev.StateSpace(3)
    mu = ev.uniform_measure(10, 3)
    with pytest.raises(BudgetError):
        ev.build_algebra(graph, space, mu)


def test_measure_mismatch_rejected(edge_graph, two_states):
    with pytest.raises(ValidationError):
        ev.build_algebra(edge_graph, two_states, ev.uniform_measure(3, 2))


def test_matrix_export_import_roundtrip(tmp_path, edge_algebra):
    csv_path = tmp_path / "m.csv"
    json_path = tmp_path / "m.json"
    ev.export_matrix_csv(edge_algebra, csv_path)
    ev.export_matrix_json(edge_algebra, json_path)
    entries = {(i, j): v for i, j, v in ev.matrix_entries(edge_algebra)}
    assert ev.load_matrix_csv(csv_path) == entries
    assert ev.load_matrix_json(json_path) == entries


MALFORMED_MATRIX_FILES = [
    ("list.json", "[[0, 0, 1.0]]", ": "),
    ("bare.json", '{"schema_version": 1, "dimension": 16}', ": "),
    ("flag.json", '{"schema_version": 1, "entries": [[true, 0, 1.0]]}', ": "),
    ("short.csv", "row,col,value\r\n0,0,1.0\r\n1,1\r\n", " line 3: "),
    ("fraction.csv", "row,col,value\r\n0,0.5,1.0\r\n", " line 2: "),
    ("latin.csv", b"row,col,value\r\n0,0,1.0\r\n\xff\xfe,0,1.0\r\n", " line 3: "),
    ("latin-header.csv", b"row,col,val\xffue\r\n0,0,1.0\r\n", ": unexpected header"),
    ("string-value.json", '{"schema_version": 1, "entries": [[0, 0, "0.5"]]}', ": "),
    ("true-value.json", '{"schema_version": 1, "entries": [[0, 0, true]]}', ": "),
    ("nan-string.json", '{"schema_version": 1, "entries": [[0, 0, "nan"]]}', ": "),
    ("negative-row.json", '{"schema_version": 1, "entries": [[-1, 0, 0.5]]}', ": "),
    ("negative-col.json", '{"schema_version": 1, "entries": [[0, -1, 0.5]]}', ": "),
    ("nan.json", '{"schema_version": 1, "entries": [[0, 0, NaN]]}', ": "),
    ("inf.json", '{"schema_version": 1, "entries": [[0, 0, 0.5], [0, 1, Infinity]]}', ": "),
    ("huge.json", '{"schema_version": 1, "entries": [[0, 0, 1' + "0" * 400 + ']]}', ": "),
    ("repeated.json", '{"schema_version": 1, "entries": [[0, 0, 0.5], [0, 1, 0.25], [0, 0, 0.5]]}', ": "),
    ("negative-row.csv", "row,col,value\r\n-1,0,0.5\r\n", " line 2: "),
    ("negative-col.csv", "row,col,value\r\n0,0,0.5\r\n0,-1,0.5\r\n", " line 3: "),
    ("nan.csv", "row,col,value\r\n0,0,nan\r\n", " line 2: "),
    ("inf.csv", "row,col,value\r\n0,0,0.5\r\n0,1,inf\r\n", " line 3: "),
    ("repeated.csv", "row,col,value\r\n0,0,0.5\r\n0,1,0.25\r\n0,0,0.5\r\n", " line 4: "),
    ("underscore.csv", "row,col,value\r\n1_0,0,0.5\r\n", " line 2: "),
    ("spaces.csv", "row,col,value\r\n 1 ,0,0.5\r\n", " line 2: "),
    ("plus.csv", "row,col,value\r\n0,+1,0.5\r\n", " line 2: "),
]


@pytest.mark.parametrize(
    "name, text, where", MALFORMED_MATRIX_FILES, ids=[name for name, _, _ in MALFORMED_MATRIX_FILES]
)
def test_matrix_loaders_name_the_malformed_file(tmp_path, name, text, where):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    kind = path.suffix[1:]
    load = {"json": ev.load_matrix_json, "csv": ev.load_matrix_csv}[kind]
    with pytest.raises(ValidationError, match="^" + re.escape(f"matrix {kind} {path}{where}")):
        load(path)


def test_nonzero_count_reference(edge_algebra):
    assert sum(1 for _ in ev.matrix_entries(edge_algebra)) == 52
