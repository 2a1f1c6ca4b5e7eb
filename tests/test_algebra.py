
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evoalg as ev
from evoalg.algebra import COEFF_DROP, DIMENSION_BUDGET, AlgebraElement
from evoalg.cells import PairCell
from evoalg.errors import BudgetError, ValidationError

from conftest import (
    ENTRY_ULPS,
    REFERENCE_P,
    all_small_instances,
    brute_row,
    display_cells,
    load_matrix_csv,
    load_matrix_json,
    pair_children,
    oracle_exact_algebra,
    oracle_row_classes,
    random_positive_measure,
    uniform_measure,
)


def phi(i, j, n=2, k=2):
    """Pair of the i-th and j-th cells in display order (1-based)."""
    cells = display_cells(n, k)
    return PairCell(cells[i - 1], cells[j - 1])


def test_entries_are_within_entry_ulps_of_exact_rationals():
    """Every entry of every graph on up to three vertices (k = 2, 3), a few on four and a six-vertex path, with raw
    weights over six decades, is within ``ENTRY_ULPS`` units of 2**-52 of its exact rational value, relative."""
    rng = np.random.default_rng(52)
    four = [frozenset(), frozenset({(0, 1), (2, 3)}), frozenset({(0, 1), (1, 2), (2, 3)}), frozenset({(0, 1), (0, 2)})]
    cases = [*all_small_instances(3, (2, 3)), *((ev.Graph(4, e), ev.StateSpace(2)) for e in four),
             (ev.Graph(6, frozenset((v, v + 1) for v in range(5))), ev.StateSpace(2))]
    bound = Fraction(ENTRY_ULPS, 2**52)
    for graph, space in cases:
        n, k = graph.vertex_count, space.k
        raw = 10 ** rng.uniform(-3, 3, size=k**n)
        exact = oracle_exact_algebra(graph, k, raw)
        entries = list(ev.matrix_entries(ev.build_algebra(graph, space, ev.from_weights(raw, n, k))))
        assert [(i, j) for i, j, _ in entries] == sorted(exact)
        worst = max(abs(Fraction(v) - exact[i, j]) / exact[i, j] for i, j, v in entries)
        assert worst <= bound, f"{float(worst * 2**52):.2f} units of 2**-52 on {graph}, k={k}"


def test_uniform_measure_gives_quarter_rows(edge_graph, two_states):
    mu = uniform_measure(2, 2)
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


@pytest.mark.parametrize("index", [-1, 16, 1.5, True], ids=["minus-1", "dimension", "float", "bool"])
def test_heredity_children_reject_bad_generators(edge_algebra, index):
    matrix = edge_algebra.matrix
    assert matrix.layout.dimension == 16
    for call in (matrix.children, matrix.row):
        with pytest.raises(ValidationError, match=rf"^row: pair index {index} out of range$"):
            call(index)


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


# Python and numpy integer keys, and coefficients on both sides of COEFF_DROP
RAW_ELEMENTS = st.dictionaries(
    st.one_of(st.integers(-3, 40), st.integers(-3, 40).map(np.int64), st.integers(0, 40).map(np.uint8)),
    st.one_of(st.floats(-2.0, 2.0), st.floats(-3 * COEFF_DROP, 3 * COEFF_DROP),
              st.sampled_from([COEFF_DROP, -COEFF_DROP, np.nextafter(COEFF_DROP, 0.0), np.float32(0.5)])),
    max_size=12,
)


def parent_coeffs(raw) -> dict:
    """The ``{int: float}`` dict an element kept of ``raw`` when it stored one."""
    return {int(i): float(v) for i, v in raw.items() if abs(v) >= COEFF_DROP}


@settings(max_examples=150, deadline=None)
@given(RAW_ELEMENTS)
def test_coeffs_view_behaves_like_the_kept_dict(raw):
    want, view = parent_coeffs(raw), AlgebraElement(raw).coeffs
    assert dict(view) == want
    assert list(view) == sorted(want) and list(view.items()) == sorted(want.items())
    assert all(type(i) is int and type(v) is float for i, v in view.items())
    assert len(view) == len(want) and view == want and want == view
    probes = range(min(want, default=0) - 2, max(want, default=0) + 3)
    other = {i: 0.0 for i in probes if i % 2}
    assert view.keys() & other.keys() == want.keys() & other.keys()
    for i in probes:
        assert (i in view) == (i in want) and view.get(i) == want.get(i)
        if i in want:
            assert view[i] == view[np.int64(i)] == want[i]
            with pytest.raises(KeyError):
                view[float(i)]
        else:
            with pytest.raises(KeyError):
                view[i]
    with pytest.raises(KeyError):
        view[str(min(want, default=0))]
    with pytest.raises(TypeError):
        view[0] = 1.0


@settings(max_examples=150, deadline=None)
@given(RAW_ELEMENTS, RAW_ELEMENTS, st.sampled_from([2.5, -1.0, 3, 1e-16, np.float64(0.1)]))
def test_linear_operations_match_dict_arithmetic(raw_x, raw_y, scalar):
    """Sums, differences, multiples, distances and reprs equal the dict arithmetic elements did: keys and bits."""
    x, y = AlgebraElement(raw_x), AlgebraElement(raw_y)
    a, b = parent_coeffs(raw_x), parent_coeffs(raw_y)
    total, difference = dict(a), dict(a)
    for i, v in b.items():
        total[i] = total.get(i, 0.0) + v
        difference[i] = difference.get(i, 0.0) + -1.0 * v
    for got, want in ((x + y, total), (x - y, difference), (scalar * x, {i: scalar * v for i, v in a.items()})):
        want = parent_coeffs(want)
        assert [(i, v.hex()) for i, v in got.coeffs.items()] == [(i, float(v).hex()) for i, v in sorted(want.items())]
    assert x.distance(y) == max((abs(a.get(i, 0.0) - b.get(i, 0.0)) for i in a.keys() | b.keys()), default=0.0)
    assert repr(x) == "AlgebraElement({" + ", ".join(f"{i}: {v:g}" for i, v in sorted(a.items())) + "})"
    assert (x == y) == (a == b) and x.is_zero() == (not a)


def test_element_operands_fail_cleanly(edge_algebra):
    """Adding a number, or multiplying by a non-number, raises Python's own ``TypeError``; a non-element argument of
    ``multiply``, ``square`` or ``distance`` raises a ``ValidationError`` that names it and its type."""
    x = AlgebraElement({3: 0.5})
    for operation in (lambda: x + 1, lambda: x - 1, lambda: None * x, lambda: "a" * x):
        with pytest.raises(TypeError, match="AlgebraElement") as raised:
            operation()
        assert "float" not in str(raised.value)
    with pytest.raises(ValidationError, match=r"^element: coefficient of 3 must be a finite real, got complex 0\.5j$"):
        1j * x
    calls = [
        (lambda: edge_algebra.multiply({1: 0.5}, x), "x must be an AlgebraElement, got dict"),
        (lambda: edge_algebra.multiply(x, [1]), "y must be an AlgebraElement, got list"),
        (lambda: edge_algebra.square({1: 0.5}), "x must be an AlgebraElement, got dict"),
        (lambda: x.distance(1), "other must be an AlgebraElement, got int"),
    ]
    for call, message in calls:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()


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
            kids = pair_children(generator, parts)
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
    mu = uniform_measure(10, 3)
    with pytest.raises(BudgetError):
        ev.build_algebra(graph, space, mu)


def test_measure_mismatch_rejected(edge_graph, two_states):
    with pytest.raises(ValidationError):
        ev.build_algebra(edge_graph, two_states, uniform_measure(3, 2))


def test_matrix_export_import_roundtrip(tmp_path, edge_algebra):
    csv_path = tmp_path / "m.csv"
    json_path = tmp_path / "m.json"
    ev.export_matrix_csv(edge_algebra, csv_path)
    ev.export_matrix_json(edge_algebra, json_path)
    entries = {(i, j): v for i, j, v in ev.matrix_entries(edge_algebra)}
    assert load_matrix_csv(csv_path) == entries
    assert load_matrix_json(json_path) == entries


def test_write_matrix_without_a_path_is_rejected_before_opening_a_file(edge_algebra, monkeypatch):
    opened = []
    monkeypatch.setattr(ev.algebra, "open", lambda *args, **kwargs: opened.append(args), raising=False)
    with pytest.raises(ValidationError, match="^write_matrix: csv_path or json_path required, got neither$"):
        ev.algebra.write_matrix(edge_algebra)
    assert opened == []


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
    load = {"json": load_matrix_json, "csv": load_matrix_csv}[kind]
    with pytest.raises(ValidationError, match="^" + re.escape(f"matrix {kind} {path}{where}")):
        load(path)


def test_nonzero_count_reference(edge_algebra):
    assert sum(1 for _ in ev.matrix_entries(edge_algebra)) == 52


PATH = tuple(zip(range(7), range(1, 8)))
TWO_PATHS = ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7))


@pytest.mark.parametrize(
    "edges, peak_limit, kept_limit",
    [(PATH, 3.0, 1.9), ((), 1.5, 1.4), (TWO_PATHS, 2.25, 1.6)],
    ids=["path", "edgeless", "two paths"],
)
def test_heredity_matrix_peak_at_the_budget_edge(edges, peak_limit, kept_limit):
    """Eight vertices, two states, 65,536 generators.  Row classes enumerated per component, with int32 cell, class
    and pair indices, peak at 2.39, 1.19 and 1.53 MiB (path, edgeless, two paths of four) and keep 1.50, 1.11 and
    1.29 MiB.  With int64 indices they peaked at 3.56, 1.75 and 2.92 MiB and kept 2.26, 1.67 and 1.93; the
    ``(k^n)^2`` outer arrays and the sort of all generator keys once peaked at 5.6 MiB (path) and 4.7 (edgeless).
    int32 holds every pair index while the dimension budget stays within ``2**31``."""
    assert DIMENSION_BUDGET <= 2**31
    graph, space, measure = ev.Graph(8, frozenset(edges)), ev.StateSpace(2), uniform_measure(8, 2)
    ev.HeredityMatrix(ev.RowClassLayout(graph, space), measure)
    tracemalloc.start()
    try:
        matrix = ev.HeredityMatrix(ev.RowClassLayout(graph, space), measure)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.layout.dimension == 65536
    assert peak < peak_limit * 2**20
    assert kept < kept_limit * 2**20


@pytest.mark.parametrize(
    "n, k, edges",
    [
        pytest.param(7, 2, PATH[:6], id="path n=7, k=2"),
        pytest.param(8, 2, PATH, id="path n=8, k=2"),
        pytest.param(7, 2, (), id="edgeless n=7, k=2"),
        pytest.param(8, 2, (), id="edgeless n=8, k=2"),
        pytest.param(3, 3, ((0, 2),), id="{0,2},{1}, k=3"),
        pytest.param(4, 3, ((0, 2), (1, 3)), id="{0,2},{1,3}, k=3"),
        pytest.param(4, 3, ((0, 3),), id="{0,3},{1},{2}, k=3"),
        pytest.param(3, 4, ((0, 2),), id="{0,2},{1}, k=4"),
        pytest.param(4, 4, ((1, 3),), id="{0},{1,3},{2}, k=4"),
        pytest.param(1, 1, (), id="n=1, k=1"),
        pytest.param(12, 1, PATH[:5], id="{0..5},{6}..{11}, k=1"),
        pytest.param(12, 1, (), id="edgeless n=12, k=1"),
    ],
)
def test_row_classes_match_unique_search(n, k, edges):
    """The layout, built with no measure, equals the ``np.unique`` search over all ``k^2n`` generator keys: every
    array in values and dtype.  A matrix over it normalizes the weights of the searched children, bit for bit."""
    measure = ev.from_weights(np.random.default_rng(n * 10 + k).uniform(0.1, 1.0, size=k**n), n, k)
    layout = ev.RowClassLayout(ev.Graph(n, frozenset(edges)), ev.StateSpace(k))
    oracle = oracle_row_classes(layout)
    weights = [measure.weights[kids] for kids in oracle["level_children"]]
    normalized = [w / w.sum(axis=1, keepdims=True) for w in weights]
    wanted = [*((layout, name, want) for name, want in oracle.items()),
              (ev.HeredityMatrix(layout, measure), "_weights", normalized)]
    for owner, name, want in wanted:
        got = getattr(owner, name)
        for g, w in zip(got, want) if isinstance(want, list) else [(got, want)]:
            assert (g.dtype, g.shape) == (w.dtype, w.shape), name
            assert g.tobytes() == w.tobytes(), name
        assert len(got) == len(want), name
