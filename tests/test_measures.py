import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evoalg as ev
from evoalg.errors import BudgetError, ValidationError

from conftest import cell, dlr_check_oracle, pair, reference_measure_for


def test_from_weights_uniform():
    mu = ev.from_weights([1, 1, 1, 1], 2, 2)
    assert np.allclose(mu.weights, 0.25)


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


def test_gibbs_single_vertex_uniform():
    g = ev.Graph(1)
    h = ev.Hamiltonian(g, 2, 1.0)
    mu = ev.gibbs_measure(h)
    assert np.allclose(mu.weights, 0.5)


def test_gibbs_edge_potts_closed_form(edge_potts):
    mu = ev.gibbs_measure(edge_potts)
    e = math.e
    assert mu.mass(cell((1, 1))) == pytest.approx(e / (2 * e + 2), abs=1e-14)
    assert mu.mass(cell((2, 2))) == pytest.approx(e / (2 * e + 2), abs=1e-14)
    assert mu.mass(cell((1, 2))) == pytest.approx(1 / (2 * e + 2), abs=1e-14)
    assert mu.mass(cell((2, 1))) == pytest.approx(1 / (2 * e + 2), abs=1e-14)


def test_gibbs_high_temperature_is_nearly_uniform(edge_graph):
    h = ev.potts_hamiltonian(edge_graph, 2, 1.0, 1e-9)
    mu = ev.gibbs_measure(h)
    assert np.max(np.abs(mu.weights - 0.25)) < 1e-6


def test_gibbs_budget():
    g = ev.Graph(21)
    with pytest.raises(BudgetError, match=r"^2097152 cells .* budget of 1000000$"):
        ev.gibbs_measure(ev.Hamiltonian(g, 2, 1.0))


def test_gibbs_rejects_underflowing_measures(edge_graph):
    field = np.zeros((2, 2))
    field[0, 1] = 1.0
    h = ev.Hamiltonian(edge_graph, 2, 1000.0, {(0, 1): np.zeros((2, 2))}, field)
    with pytest.raises(ValidationError):
        ev.gibbs_measure(h)


def test_conditional_full_volume_matches_gibbs(edge_potts):
    mu = ev.gibbs_measure(edge_potts)
    spec = ev.ConditionalSpec((0, 1), {})
    value = ev.conditional_prob(edge_potts, spec, {0: 1, 1: 2})
    assert value == pytest.approx(mu.mass(cell((1, 2))), abs=1e-14)


def test_conditional_single_site_closed_form(edge_potts):
    spec = ev.ConditionalSpec((0,), {1: 1})
    e = math.e
    assert ev.conditional_prob(edge_potts, spec, {0: 1}) == pytest.approx(
        e / (e + 1), abs=1e-14
    )


def test_conditional_zero_hamiltonian_uniform(edge_graph):
    h = ev.Hamiltonian(edge_graph, 2, 1.0, {(0, 1): np.zeros((2, 2))})
    spec = ev.ConditionalSpec((0,), {1: 2})
    assert ev.conditional_prob(h, spec, {0: 1}) == pytest.approx(0.5, abs=1e-14)


def test_conditional_values_sum_to_one():
    path3 = ev.Graph(3, frozenset({(0, 1), (1, 2)}))
    h = ev.potts_hamiltonian(path3, 2, 1.0, 1.3)
    import itertools

    for domain in ((0,), (1,), (0, 2), (0, 1)):
        outside = [v for v in range(3) if v not in domain]
        for boundary_states in itertools.product((1, 2), repeat=len(outside)):
            spec = ev.ConditionalSpec(domain, dict(zip(outside, boundary_states)))
            total = sum(
                ev.conditional_prob(h, spec, dict(zip(domain, states)))
                for states in itertools.product((1, 2), repeat=len(domain))
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_dlr_full_volume_is_exact(edge_potts):
    result = ev.dlr_check(edge_potts, (0, 1), {0: 1, 1: 2})
    assert result.gap == 0.0


def test_dlr_single_site(edge_potts):
    result = ev.dlr_check(edge_potts, (0,), {0: 1})
    assert result.gap < 1e-12


def test_dlr_zero_hamiltonian(edge_graph):
    h = ev.Hamiltonian(edge_graph, 2, 1.0, {(0, 1): np.zeros((2, 2))})
    result = ev.dlr_check(h, (0,), {0: 2})
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
                    result = ev.dlr_check(h, domain, dict(zip(domain, states)))
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
        expected = dlr_check_oracle(h, domain, dict(zip(domain, assignments[i])))
        assert table[i].lhs == pytest.approx(expected.lhs, rel=1e-12, abs=0.0)
        assert table[i].rhs == pytest.approx(expected.rhs, rel=1e-12, abs=0.0)


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
                expected = dlr_check_oracle(h, domain, assignment)
                assert row == ev.dlr_check(h, domain, assignment)
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
        ev.dlr_table(h, (1,), ev.uniform_measure(3, 2))


@pytest.mark.parametrize(
    "domain, assignment",
    [((), {}), ((5,), {5: 1}), ((0,), {1: 1}), ((0,), {0: 3}), ((0,), {0: 0})],
)
def test_dlr_check_rejects(edge_potts, domain, assignment):
    with pytest.raises(ValidationError):
        ev.dlr_check(edge_potts, domain, assignment)


def test_product_mass_of_everything_is_one():
    mu = reference_measure_for()
    from evoalg.cells import PairCell

    pairs = [PairCell.from_index(i, 2, 2) for i in range(16)]
    assert ev.product_mass(mu, pairs) == pytest.approx(1.0, abs=1e-12)


def test_product_mass_of_children_square(edge_graph, two_states):
    mu = reference_measure_for()
    parts = ev.components(edge_graph)
    sigma = pair((1, 1), (1, 2))
    mass = ev.product_mass(mu, ev.pair_children(sigma, parts, two_states))
    assert mass == pytest.approx((0.1 + 0.2) ** 2, abs=1e-14)


def test_product_mass_single_pair():
    mu = reference_measure_for()
    assert ev.product_mass(mu, [pair((1, 1), (2, 2))]) == pytest.approx(
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


def test_conditional_spec_validation(edge_potts):
    with pytest.raises(ValidationError):
        ev.ConditionalSpec((), {})
    spec = ev.ConditionalSpec((0,), {})
    with pytest.raises(ValidationError):
        ev.conditional_prob(edge_potts, spec, {0: 1})


def test_measure_from_json_weights(edge_graph, two_states):
    mu, h = ev.measure_from_json(
        {"weights": {"(a,a)": 1, "(a,A)": 2, "(A,a)": 3, "(A,A)": 4}},
        edge_graph,
        two_states,
    )
    assert h is None
    assert mu.mass(cell((2, 2))) == pytest.approx(0.4)


def test_measure_from_json_potts(edge_graph, two_states):
    mu, h = ev.measure_from_json(
        {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 1.0}},
        edge_graph,
        two_states,
    )
    assert h is not None
    assert mu.mass(cell((1, 1))) == pytest.approx(math.e / (2 * math.e + 2))


def test_measure_from_json_general(edge_graph, two_states):
    desc = {
        "hamiltonian": {
            "beta": 1.0,
            "pair_coupling": [{"edge": [0, 1], "matrix": [[-1, 0], [0, -1]]}],
            "site_field": [{"vertex": 0, "values": [0.0, 0.5]}],
        }
    }
    mu, h = ev.measure_from_json(desc, edge_graph, two_states)
    assert ev.hamiltonian_energy(h, cell((2, 1))) == pytest.approx(0.5)


def test_measure_from_json_rejects_partial_weights(edge_graph, two_states):
    with pytest.raises(ValidationError):
        ev.measure_from_json({"weights": {"(a,a)": 1}}, edge_graph, two_states)
