import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import evoalg as ev
from evoalg.errors import BudgetError, ValidationError

from conftest import (
    cell,
    cell_mass,
    conditional_prob_oracle,
    dlr_check_oracle,
    pair,
    pair_children,
    product_mass,
    reference_measure_for,
    uniform_measure,
)


def test_from_weights_uniform():
    mu = ev.from_weights([1, 1, 1, 1], 2, 2)
    assert np.allclose(mu.weights, 0.25)


def test_from_weights_names_an_overflowing_sum():
    """Finite positive weights whose sum overflows are rejected by name, without numpy's overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^measure: the sum of the raw weights overflows a float$"):
            ev.from_weights([1e308, 1e308, 1.0, 1.0], 2, 2)
        # a sum just below the float limit is no overflow, and keeps its bits
        mu = ev.from_weights([8e307, 9e307], 1, 2)
    assert mu.weights.tolist() == [8e307 / 1.7e308, 9e307 / 1.7e308]


def test_from_weights_normalizes():
    mu = ev.from_weights([1, 2, 3, 4], 2, 2)
    assert np.allclose(mu.weights, [0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize("raw", [[0, 1, 1, 1], [-1, 1, 1, 1], [1, float("nan"), 1, 1]])
def test_from_weights_rejects_nonpositive(raw):
    with pytest.raises(ValidationError):
        ev.from_weights(raw, 2, 2)


@pytest.fixture
def edge_potts(edge_graph):
    return ev.potts_hamiltonian(edge_graph, 2, 1.0, 1.0)


def test_potts_energy_matching_states(edge_potts):
    assert ev.hamiltonian_energy(edge_potts, cell((1, 1))) == -1.0


def test_potts_energy_mismatched_states(edge_potts):
    assert ev.hamiltonian_energy(edge_potts, cell((1, 2))) == 0.0


def test_zero_hamiltonian_energy(edge_graph):
    h = ev.Hamiltonian(edge_graph, 2, 1.0, {(0, 1): np.zeros((2, 2))})
    for idx in range(4):
        from evoalg.cells import Cell

        assert ev.hamiltonian_energy(h, Cell.from_index(idx, 2, 2)) == 0.0


@pytest.mark.parametrize("digits, k", [((1, 1), 2), ((0, 1, 2), 3)], ids=["two states", "three vertices"])
def test_mass_rejects_a_cell_of_another_space(digits, k):
    """On 3 states over 2 vertices, the 2-state cell (1, 1) has the index of the 3-state cell (0, 1), and the
    index of a 3-vertex cell lies past the weights."""
    mu = ev.from_weights(np.arange(1.0, 10.0), 2, 3)
    assert cell_mass(mu, ev.Cell((0, 1), 3)) == pytest.approx(4 / 45)
    with pytest.raises(ValidationError, match="mass: cell does not match the measure"):
        cell_mass(mu, ev.Cell(digits, k))


def test_gibbs_single_vertex_uniform():
    g = ev.Graph(1)
    h = ev.Hamiltonian(g, 2, 1.0)
    mu = ev.gibbs_measure(h)
    assert np.allclose(mu.weights, 0.5)


def test_gibbs_edge_potts_closed_form(edge_potts):
    mu = ev.gibbs_measure(edge_potts)
    e = math.e
    assert cell_mass(mu, cell((1, 1))) == pytest.approx(e / (2 * e + 2), abs=1e-14)
    assert cell_mass(mu, cell((2, 2))) == pytest.approx(e / (2 * e + 2), abs=1e-14)
    assert cell_mass(mu, cell((1, 2))) == pytest.approx(1 / (2 * e + 2), abs=1e-14)
    assert cell_mass(mu, cell((2, 1))) == pytest.approx(1 / (2 * e + 2), abs=1e-14)


def test_gibbs_high_temperature_is_nearly_uniform(edge_graph):
    h = ev.potts_hamiltonian(edge_graph, 2, 1.0, 1e-9)
    mu = ev.gibbs_measure(h)
    assert np.max(np.abs(mu.weights - 0.25)) < 1e-6


def test_gibbs_budget():
    g = ev.Graph(21)
    with pytest.raises(BudgetError, match=r"^cell space: k\^n = 2097152 cells exceed the enumeration budget of 1000000$"):
        ev.gibbs_measure(ev.Hamiltonian(g, 2, 1.0))


def test_gibbs_rejects_underflowing_measures(edge_graph):
    field = np.zeros((2, 2))
    field[0, 1] = 1.0
    h = ev.Hamiltonian(edge_graph, 2, 1000.0, {(0, 1): np.zeros((2, 2))}, field)
    with pytest.raises(ValidationError):
        ev.gibbs_measure(h)


def test_conditional_full_volume_matches_gibbs(edge_potts):
    mu = ev.gibbs_measure(edge_potts)
    value = ev.conditional_prob(edge_potts, {}, {0: 1, 1: 2})
    assert value == pytest.approx(cell_mass(mu, cell((1, 2))), abs=1e-14)


def test_conditional_single_site_closed_form(edge_potts):
    e = math.e
    assert ev.conditional_prob(edge_potts, {1: 1}, {0: 1}) == pytest.approx(
        e / (e + 1), abs=1e-14
    )


def test_conditional_zero_hamiltonian_uniform(edge_graph):
    h = ev.Hamiltonian(edge_graph, 2, 1.0, {(0, 1): np.zeros((2, 2))})
    assert ev.conditional_prob(h, {1: 2}, {0: 1}) == pytest.approx(0.5, abs=1e-14)


def test_conditional_values_sum_to_one():
    path3 = ev.Graph(3, frozenset({(0, 1), (1, 2)}))
    h = ev.potts_hamiltonian(path3, 2, 1.0, 1.3)
    import itertools

    for domain in ((0,), (1,), (0, 2), (0, 1)):
        outside = [v for v in range(3) if v not in domain]
        for boundary_states in itertools.product((1, 2), repeat=len(outside)):
            boundary = dict(zip(outside, boundary_states))
            total = sum(
                ev.conditional_prob(h, boundary, dict(zip(domain, states)))
                for states in itertools.product((1, 2), repeat=len(domain))
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_dlr_full_volume_is_exact(edge_potts):
    result = ev.dlr_check(edge_potts, {0: 1, 1: 2})
    assert result.gap == 0.0


def test_dlr_single_site(edge_potts):
    result = ev.dlr_check(edge_potts, {0: 1})
    assert result.gap < 1e-12


def test_dlr_zero_hamiltonian(edge_graph):
    h = ev.Hamiltonian(edge_graph, 2, 1.0, {(0, 1): np.zeros((2, 2))})
    result = ev.dlr_check(h, {0: 2})
    assert result.lhs == pytest.approx(0.5, abs=1e-14)
    assert result.rhs == pytest.approx(0.5, abs=1e-14)


def test_dlr_sweep_small_graphs():
    import itertools

    path3 = ev.Graph(3, frozenset({(0, 1), (1, 2)}))
    for beta in (0.5, 1.5):
        h = ev.potts_hamiltonian(path3, 2, 1.0, beta)
        for size in (1, 2, 3):
            for domain in itertools.combinations(range(3), size):
                for states in itertools.product((1, 2), repeat=size):
                    result = ev.dlr_check(h, dict(zip(domain, states)))
                    assert result.gap < 1e-10


# bounds the oracle's k^n cells times k^|D| conditional terms per row
ORACLE_WORK = 3**9


@st.composite
def dlr_instances(draw):
    """A random pair Hamiltonian and domain: any graph on up to 6 vertices.

    Domains of every size are drawn, except that with k=3 and 5 or 6
    vertices the partial domains are capped by ``ORACLE_WORK``.
    """
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 6))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    edges = frozenset(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ())
    unit = st.floats(-1.0, 1.0)
    coupling = {e: draw(st.lists(unit, min_size=k * k, max_size=k * k)) for e in sorted(edges)}
    coupling = {e: np.reshape(m, (k, k)) for e, m in coupling.items()}
    site = np.reshape(draw(st.lists(unit, min_size=n * k, max_size=n * k)), (n, k))
    h = ev.Hamiltonian(ev.Graph(n, edges), k, draw(st.floats(0.0, 5.0)), coupling, site)
    sizes = [s for s in range(1, n + 1) if s == n or k ** (n + s) <= ORACLE_WORK]
    order = draw(st.permutations(range(n)))
    return h, tuple(sorted(order[: draw(st.sampled_from(sizes))]))


@settings(max_examples=60, deadline=None)
@given(dlr_instances(), st.data())
def test_dlr_table_matches_cell_loop_oracle(instance, data):
    h, domain = instance
    table = ev.dlr_table(h, domain)
    assignments = list(itertools.product(range(1, h.k + 1), repeat=len(domain)))
    assert len(table) == len(assignments)
    assert all(row.gap <= 1e-12 for row in table)
    if len(domain) == h.n:
        assert all(row.gap == 0.0 and row.rhs == row.lhs for row in table)
    rows = data.draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=2, unique=True))
    for i in rows:
        expected = dlr_check_oracle(h, dict(zip(domain, assignments[i])))
        assert table[i].lhs == pytest.approx(expected.lhs, rel=1e-12, abs=0.0)
        assert table[i].rhs == pytest.approx(expected.rhs, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(dlr_instances(), st.data())
def test_conditional_prob_matches_assignment_loop_oracle(instance, data):
    h, domain = instance
    # the oracle loops over every assignment once per assignment
    assume(h.k ** (2 * len(domain)) <= ORACLE_WORK)
    outside = [v for v in range(h.n) if v not in domain]
    boundaries = st.lists(st.integers(1, h.k), min_size=len(outside), max_size=len(outside))
    for _ in range(3):
        boundary = dict(zip(outside, data.draw(boundaries)))
        for states in itertools.product(range(1, h.k + 1), repeat=len(domain)):
            assignment = dict(zip(domain, states))
            expected = conditional_prob_oracle(h, boundary, assignment)
            assert ev.conditional_prob(h, boundary, assignment) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_dlr_table_every_domain_of_a_small_graph():
    graph = ev.Graph(5, frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}))
    rng = np.random.default_rng(3)
    coupling = {e: rng.uniform(-1, 1, (2, 2)) for e in graph.edges}
    h = ev.Hamiltonian(graph, 2, 2.5, coupling, rng.uniform(-1, 1, (5, 2)))
    for size in range(1, 6):
        for domain in itertools.combinations(range(5), size):
            table = ev.dlr_table(h, domain)
            for row, states in zip(table, itertools.product((1, 2), repeat=size)):
                assignment = dict(zip(domain, states))
                expected = dlr_check_oracle(h, assignment)
                assert row == ev.dlr_check(h, assignment)
                assert row.lhs == pytest.approx(expected.lhs, rel=1e-12, abs=0.0)
                assert row.rhs == pytest.approx(expected.rhs, rel=1e-12, abs=0.0)


def test_dlr_table_domain_without_outer_neighbours():
    h = ev.potts_hamiltonian(ev.Graph(3, frozenset({(0, 1)})), 2, 1.0, 2.0)
    table = ev.dlr_table(h, (2,))
    assert [row.lhs for row in table] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert all(row.gap <= 1e-15 for row in table)


def test_dlr_table_reuses_a_given_measure(monkeypatch):
    h = ev.potts_hamiltonian(ev.Graph(4, frozenset({(0, 1), (1, 2), (2, 3)})), 2, 1.0, 1.5)
    mu = ev.gibbs_measure(h)
    expected = ev.dlr_table(h, (1, 2))
    calls = []
    monkeypatch.setattr(ev.measures, "gibbs_measure", lambda h: calls.append(h))
    assert ev.dlr_table(h, (1, 2), mu) == expected
    assert calls == []
    with pytest.raises(ValidationError):
        ev.dlr_table(h, (1,), uniform_measure(3, 2))


@pytest.mark.parametrize("vertex", [1.5, True, "1", np.float64(1.0)], ids=["float", "bool", "str", "numpy float"])
def test_dlr_table_rejects_non_integer_domain_vertices(edge_potts, vertex):
    """Each is named before the domain is sorted, as ``dlr_check`` and ``conditional_prob`` reject it; numpy
    integers are vertices."""
    assert ev.dlr_table(edge_potts, [np.int64(1)]) == ev.dlr_table(edge_potts, [1])
    named = rf"^dlr: domain vertex must be an integer, got {type(vertex).__name__} "
    for domain in ([vertex], [0, vertex]):
        with pytest.raises(ValidationError, match=named):
            ev.dlr_table(edge_potts, domain)
    with pytest.raises(ValidationError):
        ev.dlr_check(edge_potts, {vertex: 1})
    with pytest.raises(ValidationError):
        ev.conditional_prob(edge_potts, {0: 1}, {vertex: 1})


@pytest.mark.parametrize("vertex", [5, 2, -1])
def test_dlr_table_names_a_vertex_out_of_range(edge_potts, vertex):
    """In the form ``dlr_check`` names one: its type, its value and the range."""
    with pytest.raises(ValidationError) as exc:
        ev.dlr_table(edge_potts, [0, vertex])
    assert str(exc.value) == f"dlr: domain vertex int {vertex} is not in 0..1"


@pytest.mark.parametrize(
    "domain, assignment",
    [((), {}), ((5,), {5: 1}), ((0,), {0: 3}), ((0,), {0: 0}), ((0,), {0: True})],
)
def test_dlr_check_rejects(edge_potts, domain, assignment):
    """``domain`` lists the assignment's keys: ``dlr_check`` rejects the assignment, and so does ``conditional_prob``
    with the rest of the graph as its boundary."""
    boundary = {v: 1 for v in range(edge_potts.n) if v not in domain}
    with pytest.raises(ValidationError):
        ev.dlr_check(edge_potts, assignment)
    with pytest.raises(ValidationError):
        ev.conditional_prob(edge_potts, boundary, assignment)


@pytest.mark.parametrize("state", ["x", True, 1.7, 0, 3])
@pytest.mark.parametrize("where", ["boundary", "assignment"])
def test_conditional_prob_rejects_states_outside_1_to_k(edge_potts, where, state):
    """A state that is not an integer in ``1..k`` is named: not read as state 1, nor raised as ``int()``'s error."""
    states = {"boundary": {1: 1}, "assignment": {0: 1}}
    states[where] = dict.fromkeys(states[where], state)
    with pytest.raises(ValidationError, match=rf"^conditional: {where}: state {type(state).__name__} .* at vertex [01] "
                                              r"is not in 1\.\.2$"):
        ev.conditional_prob(edge_potts, states["boundary"], states["assignment"])


@pytest.mark.parametrize("vertex", [True, 1.0, -1, 2])
def test_conditional_prob_rejects_vertices_outside_the_graph(edge_potts, vertex):
    with pytest.raises(ValidationError, match=r"^conditional: assignment: vertex .* is not in 0\.\.1$"):
        ev.conditional_prob(edge_potts, {0: 1}, {vertex: 1})


def test_product_mass_of_everything_is_one():
    mu = reference_measure_for()
    from evoalg.cells import PairCell

    pairs = [PairCell.from_index(i, 2, 2) for i in range(16)]
    assert product_mass(mu, pairs) == pytest.approx(1.0, abs=1e-12)


def test_product_mass_of_children_square(edge_graph):
    mu = reference_measure_for()
    parts = ev.components(edge_graph)
    sigma = pair((1, 1), (1, 2))
    mass = product_mass(mu, pair_children(sigma, parts))
    assert mass == pytest.approx((0.1 + 0.2) ** 2, abs=1e-14)


def test_product_mass_single_pair():
    mu = reference_measure_for()
    assert product_mass(mu, [pair((1, 1), (2, 2))]) == pytest.approx(
        0.1 * 0.4, abs=1e-15
    )


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.0, 10.0),
    st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
)
def test_gibbs_is_normalized_and_positive(beta, diag):
    from hypothesis import assume

    # beta * spread beyond ~690 underflows binary64 and trips the hard
    # positivity floor by design, so stay inside the representable region
    assume(beta * (max(diag) - min(diag)) < 650)
    g = ev.Graph(2, frozenset({(0, 1)}))
    coupling = np.array(diag).reshape(2, 2)
    h = ev.Hamiltonian(g, 2, beta, {(0, 1): coupling})
    mu = ev.gibbs_measure(h)
    assert abs(float(mu.weights.sum()) - 1.0) <= 1e-12
    assert np.all(mu.weights > 0)


@settings(max_examples=25, deadline=None)
@given(st.floats(-30.0, 30.0))
def test_gibbs_gauge_invariance(shift):
    g = ev.Graph(2, frozenset({(0, 1)}))
    h = ev.potts_hamiltonian(g, 2, 1.0, 2.0)
    shifted = ev.Hamiltonian(
        g,
        2,
        2.0,
        dict(h.pair_coupling),
        np.array([[shift, shift], [0.0, 0.0]]),
    )
    base = ev.gibbs_measure(h)
    moved = ev.gibbs_measure(shifted)
    assert np.max(np.abs(base.weights - moved.weights)) < 1e-12


def test_hamiltonian_requires_full_coupling(edge_graph):
    with pytest.raises(ValidationError):
        ev.Hamiltonian(edge_graph, 2, 1.0, {})


def test_reversed_coupling_key_is_transposed(edge_graph):
    """A matrix's rows index the state of its key's first vertex: ``(1, 0)`` with ``M`` is ``(0, 1)`` with ``M``
    transposed, not ``(0, 1)`` with ``M``, whose weights on this edge are (0.297, 0.297, 0.109, 0.297)."""
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    reversed_key = ev.gibbs_measure(ev.Hamiltonian(edge_graph, 2, 1.0, {(1, 0): m}))
    forward = ev.gibbs_measure(ev.Hamiltonian(edge_graph, 2, 1.0, {(0, 1): m.T}))
    as_given = ev.gibbs_measure(ev.Hamiltonian(edge_graph, 2, 1.0, {(0, 1): m}))
    assert [w.hex() for w in reversed_key.weights.tolist()] == [w.hex() for w in forward.weights.tolist()]
    assert reversed_key.weights[1] < reversed_key.weights[2]
    assert as_given.weights.round(3).tolist() == [0.297, 0.297, 0.109, 0.297]


def test_second_coupling_on_an_edge_is_rejected(edge_graph):
    m = np.zeros((2, 2))
    with pytest.raises(ValidationError, match=r"^hamiltonian: duplicate coupling on edge \(0,1\)$"):
        ev.Hamiltonian(edge_graph, 2, 1.0, {(0, 1): m, (1, 0): m})


ZERO = {"edge": ["u", "v"], "matrix": [[0, 0], [0, 0]]}


@pytest.mark.parametrize(
    "coupling, fields, message",
    [
        ([ZERO, ZERO], [], "measure.hamiltonian.pair_coupling: duplicate edge [u, v]"),
        ([ZERO, {**ZERO, "edge": ["v", "u"]}], [], "measure.hamiltonian.pair_coupling: duplicate edge [v, u]"),
        ([ZERO], [{"vertex": "v", "values": [0.0, 0.5]}] * 2, "measure.hamiltonian.site_field: duplicate vertex 'v'"),
    ],
    ids=["edge, same order", "edge, reversed", "site"],
)
def test_measure_from_json_rejects_a_repeated_entry(edge_graph, two_states, coupling, fields, message):
    """A second entry for one edge or one vertex is named, not read over the first."""
    desc = {"hamiltonian": {"beta": 1.0, "pair_coupling": coupling, "site_field": fields}}
    with pytest.raises(ValidationError) as exc:
        ev.measure_from_json(desc, edge_graph, two_states, EDGE_LABELS)
    assert str(exc.value) == message


def test_missing_coupling_message_names_the_count_and_the_first_edge():
    """The message does not grow with the graph: a 300-vertex path names 298 of its 299 edges by their count."""
    path = ev.Graph(300, frozenset(zip(range(299), range(1, 300))))
    with pytest.raises(ValidationError) as exc:
        ev.Hamiltonian(path, 2, 1.0, {(5, 6): np.zeros((2, 2))})
    assert str(exc.value) == "hamiltonian: missing coupling for 298 edge(s), the first (0,1)"


def test_conditional_spec_validation(edge_potts):
    """The domain is the assignment's keys: it must be nonempty, and the boundary must hold exactly the rest."""
    with pytest.raises(ValidationError, match="domain must be nonempty"):
        ev.conditional_prob(edge_potts, {0: 1, 1: 1}, {})
    for boundary in ({}, {0: 1, 1: 1}):
        with pytest.raises(ValidationError, match="boundary must cover exactly the complement"):
            ev.conditional_prob(edge_potts, boundary, {0: 1})


# vertex labels of edge_graph
EDGE_LABELS = ("u", "v")


def test_measure_from_json_weights(edge_graph, two_states):
    mu, h = ev.measure_from_json(
        {"weights": {"(a,a)": 1, "(a,A)": 2, "(A,a)": 3, "(A,A)": 4}},
        edge_graph,
        two_states,
        EDGE_LABELS,
    )
    assert h is None
    assert cell_mass(mu, cell((2, 2))) == pytest.approx(0.4)


def test_measure_from_json_potts(edge_graph, two_states):
    mu, h = ev.measure_from_json(
        {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 1.0}},
        edge_graph,
        two_states,
        EDGE_LABELS,
    )
    assert h is not None
    assert cell_mass(mu, cell((1, 1))) == pytest.approx(math.e / (2 * math.e + 2))


def test_measure_from_json_general(edge_graph, two_states):
    desc = {
        "hamiltonian": {
            "beta": 1.0,
            "pair_coupling": [{"edge": ["u", "v"], "matrix": [[-1, 0], [0, -1]]}],
            "site_field": [{"vertex": "u", "values": [0.0, 0.5]}],
        }
    }
    mu, h = ev.measure_from_json(desc, edge_graph, two_states, EDGE_LABELS)
    assert ev.hamiltonian_energy(h, cell((2, 1))) == pytest.approx(0.5)


@pytest.mark.parametrize("first", [0.9, True])
def test_measure_from_json_reads_vertices_by_label_only(edge_graph, two_states, first):
    """An endpoint is a vertex label: ``0.9`` and ``True`` name no vertex, though ``int()`` would read them."""
    desc = {"hamiltonian": {"beta": 1.0, "pair_coupling": [{"edge": [first, "1"], "matrix": [[0, 0], [0, 0]]}]}}
    with pytest.raises(ValidationError, match=rf"^measure\.hamiltonian: unknown vertex '{first}'$"):
        ev.measure_from_json(desc, edge_graph, two_states, ("0", "1"))


def test_measure_from_json_rejects_partial_weights(edge_graph, two_states):
    with pytest.raises(ValidationError):
        ev.measure_from_json({"weights": {"(a,a)": 1}}, edge_graph, two_states, EDGE_LABELS)


@pytest.mark.parametrize(
    "table, message",
    [
        ({"(a,a,a)": 1}, "measure.weights: key '(a,a,a)' must list 2 states"),
        ({"a": 1}, "measure.weights: key 'a' must list 2 states"),
        ({"(a,a)": 1, "(a,b)": 2}, "states: unknown state label 'b'"),
        ({"(x,y)": 1}, "states: unknown state label 'x'"),
        ({"(a,a)": 1, " ( a , a ) ": 2}, "measure.weights: duplicate cell ' ( a , a ) '"),
        ({"(A,a)": 1, "A,a": 2}, "measure.weights: duplicate cell 'A,a'"),
    ],
    ids=["too-many-states", "too-few-states", "unknown-label", "first-unknown-label", "duplicate-spaced", "duplicate-unbracketed"],
)
def test_measure_from_json_weights_key_messages(edge_graph, two_states, table, message):
    with pytest.raises(ValidationError) as exc:
        ev.measure_from_json({"weights": table}, edge_graph, two_states, EDGE_LABELS)
    assert str(exc.value) == message


def test_measure_from_json_weights_keys_follow_the_cell_index():
    """Key ``(s_0,...,s_{n-1})`` weighs the cell whose index has ``s_0`` as its least significant digit."""
    labels = ['q"', "\\", "∑"]
    graph = ev.Graph(3, frozenset())
    space = ev.StateSpace(3, tuple(labels))
    table = {
        "(" + ",".join(labels[s - 1] for s in states) + ")": cell(states, 3).index + 1
        for states in itertools.product((3, 1, 2), repeat=3)
    }
    mu, _ = ev.measure_from_json({"weights": table}, graph, space, ("u", "v", "w"))
    assert mu.weights.tolist() == (np.arange(1, 28) / np.arange(1, 28).sum()).tolist()


def coupled_path(n, k):
    """A path of ``n`` labelled vertices and a general Hamiltonian descriptor with a coupling on every edge."""
    labels = tuple(f"v{i}" for i in range(n))
    graph = ev.Graph(n, frozenset(zip(range(n - 1), range(1, n))))
    pairs = [{"edge": [a, b], "matrix": np.full((k, k), 0.5).tolist()} for a, b in zip(labels, labels[1:])]
    return graph, labels, {"hamiltonian": {"beta": 1.0, "pair_coupling": pairs}}


@pytest.mark.parametrize("model", ["general", "potts", "weights"])
def test_measure_from_json_checks_the_cell_budget_before_reading_any_entry(monkeypatch, model):
    """An over-budget cell space is rejected before any number of the descriptor is read."""
    graph, labels, descriptor = coupled_path(5000, 2)
    if model == "potts":
        descriptor = {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 1.0}}
    elif model == "weights":
        descriptor = {"weights": {"(a)": 1.0}}

    def refuse(*args, **kwargs):
        raise AssertionError("an entry was read before the budget check")
    monkeypatch.setattr(ev.measures, "_floats", refuse)
    with pytest.raises(BudgetError, match=r"^cell space: k\^n = 10\^20 or more cells exceed"):
        ev.measure_from_json(descriptor, graph, ev.StateSpace(2), labels)


def test_measure_from_json_reads_a_long_one_state_path_in_linear_time():
    """Labels map through one dict and the state axes of one state share one axis: found by a scan of the label tuple
    each, the labels of a 20,000-vertex path with a coupling on every edge take about 14 s."""
    graph, labels, descriptor = coupled_path(20000, 1)
    start = time.perf_counter()
    mu, h = ev.measure_from_json(descriptor, graph, ev.StateSpace(1), labels)
    assert time.perf_counter() - start < 1.0
    assert mu.weights.tolist() == [1.0]
    assert len(h.pair_coupling) == 19999
