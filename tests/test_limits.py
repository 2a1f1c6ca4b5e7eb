import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evoalg as ev
from conftest import dense_box_measure, dense_coeff, dense_log_partition
from evoalg import limits
from evoalg.cells import Cell, PairCell
from evoalg.errors import BudgetError, ValidationError
from evoalg.limits import TailCell, VolumeScheme


def const(state):
    return TailCell(state)


def flipped(state, other, coord=0):
    return TailCell(state, ((coord, other),))


def brute_box_measure(radius, beta, coupling=1.0):
    """Independent Boltzmann weights on the one-dimensional box."""
    sites = 2 * radius + 1
    masses = {}
    total = 0.0
    for idx in range(2**sites):
        digits = [(idx >> v) & 1 for v in range(sites)]
        energy = -coupling * sum(
            1 for v in range(sites - 1) if digits[v] == digits[v + 1]
        )
        w = math.exp(-beta * energy)
        masses[tuple(digits)] = w
        total += w
    return {k: v / total for k, v in masses.items()}


def test_diagonal_pair_coefficient_is_one():
    scheme = VolumeScheme(1, (1, 2), 2, 1.0, 1.0)
    value = ev.finite_volume_coeff(scheme, 1, (const(1), const(1)), (const(1), const(1)))
    assert value == 1.0


def test_coefficient_matches_brute_force_enumeration():
    beta = 1.0
    scheme = VolumeScheme(1, (1,), 2, 1.0, beta)
    value = ev.finite_volume_coeff(scheme, 1, (const(1), const(2)), (const(1), const(1)))
    masses = brute_box_measure(1, beta)
    p1 = masses[(0, 0, 0)]
    p2 = masses[(1, 1, 1)]
    assert value == pytest.approx(p1**2 / (p1 + p2) ** 2, abs=1e-14)


def test_infinite_temperature_matches_uniform_values():
    hot = VolumeScheme(1, (1,), 2, 1.0, 0.0)
    value = ev.finite_volume_coeff(hot, 1, (const(1), const(2)), (const(1), const(2)))
    # the two constant cells carry equal mass, so the ratio is exactly 1/4
    assert value == pytest.approx(0.25, abs=1e-14)


def test_coefficient_outside_children_is_zero():
    scheme = VolumeScheme(1, (1,), 2, 1.0, 2.0)
    value = ev.finite_volume_coeff(scheme, 1, (const(1), const(1)), (const(2), const(2)))
    assert value == 0.0


def test_sequence_of_diagonal_pair_is_constant_one():
    scheme = VolumeScheme(1, (1, 2, 3), 2, 1.0, 5.0)
    seq = ev.coefficient_sequence(scheme, (const(1), const(1)), (const(1), const(1)))
    assert seq.values == (1.0, 1.0, 1.0)
    assert seq.converged and seq.limit_estimate == 1.0


def test_sequence_across_ground_states_vanishes():
    scheme = VolumeScheme(1, (1, 2, 3), 2, 1.0, 5.0)
    seq = ev.coefficient_sequence(scheme, (const(1), const(1)), (const(2), const(2)))
    assert seq.values == (0.0, 0.0, 0.0)
    assert seq.converged and seq.limit_estimate == 0.0


def test_sequence_for_single_flip_closed_form():
    beta = 2.0
    scheme = VolumeScheme(1, (1, 2, 3), 2, 1.0, beta)
    seq = ev.coefficient_sequence(
        scheme, (const(1), flipped(1, 2)), (const(1), const(1))
    )
    # flipping the origin breaks both of its edges on every one of these boxes
    expected = 1.0 / (1.0 + math.exp(-2 * beta)) ** 2
    for value in seq.values:
        assert value == pytest.approx(expected, abs=1e-12)
    assert seq.converged


def test_row_sum_over_pair_children_is_one():
    scheme = VolumeScheme(1, (1,), 2, 1.0, 1.5)
    box = scheme.box(1)
    space = ev.StateSpace(2)
    phi = (const(1), const(2))
    restricted = PairCell(phi[0].restrict(box, 2), phi[1].restrict(box, 2))
    kids = ev.children_set(restricted, ev.components(box.graph), space)
    total = 0.0
    for a in kids:
        for b in kids:
            psi = (
                TailCell(1, tuple(zip(box.sites, a.states))),
                TailCell(1, tuple(zip(box.sites, b.states))),
            )
            total += ev.finite_volume_coeff(scheme, 1, phi, psi)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_state_swap_symmetry():
    scheme = VolumeScheme(1, (1, 2), 2, 1.0, 3.0)
    forward = ev.finite_volume_coeff(scheme, 2, (const(1), const(2)), (const(1), const(1)))
    swapped = ev.finite_volume_coeff(scheme, 2, (const(2), const(1)), (const(2), const(2)))
    assert forward == pytest.approx(swapped, abs=1e-12)


def test_coefficients_stay_in_unit_interval():
    scheme = VolumeScheme(1, (1, 2), 3, 1.0, 2.0)
    pairs = [
        (const(1), const(2)),
        (const(1), flipped(1, 3)),
        (const(2), const(2)),
    ]
    for phi in pairs:
        for psi in pairs:
            for radius in scheme.radii:
                value = ev.finite_volume_coeff(scheme, radius, phi, psi)
                assert 0.0 <= value <= 1.0


def test_ground_state_mass_grows_with_beta():
    masses = []
    for beta in (0.0, 0.5, 1.0, 2.0, 5.0):
        scheme = VolumeScheme(1, (2,), 2, 1.0, beta)
        mu = scheme.measure(2)
        masses.append(mu.mass(const(1).restrict(scheme.box(2), 2)))
    assert all(b >= a for a, b in zip(masses, masses[1:]))


def test_low_temp_report_masses_monotone_in_beta():
    report = ev.low_temp_limit_algebras(1, 2, [1, 2, 3], [0.5, 2.0, 5.0])
    assert report["distinct_generators"]
    for candidate in report["candidates"]:
        per_beta = candidate["masses"]
        for r in range(len(report["radii"])):
            column = [per_beta[b][r] for b in range(len(report["betas"]))]
            assert all(y >= x for x, y in zip(column, column[1:]))


def test_low_temp_three_states_has_three_candidates():
    report = ev.low_temp_limit_algebras(1, 3, [1, 2], [1.0, 4.0])
    assert len(report["candidates"]) == 3
    assert report["distinct_generators"]


def test_low_temp_infinite_temperature_is_symmetric():
    report = ev.low_temp_limit_algebras(1, 2, [1, 2], [0.0])
    first, second = report["candidates"]
    assert np.allclose(first["masses"], second["masses"])


def test_budget_rejected():
    with pytest.raises(BudgetError, match=r"2\^25 = 33554432 cells .* budget of 1000000$"):
        VolumeScheme(2, (1, 2), 2, 1.0, 1.0)
    with pytest.raises(BudgetError, match=r"2\^21 = 2097152 cells .* budget of 1000000$"):
        VolumeScheme(1, (10,), 2, 1.0, 1.0)
    # too many digits to print: the count is given as a power
    with pytest.raises(BudgetError, match=r"2\^200001 cells .* budget of 1000000$"):
        VolumeScheme(1, (100000,), 2, 1.0, 1.0)


def test_pattern_must_fit_in_box():
    scheme = VolumeScheme(1, (1,), 2, 1.0, 1.0)
    with pytest.raises(ValidationError):
        ev.finite_volume_coeff(scheme, 1, (const(1), flipped(1, 2, coord=5)), (const(1), const(1)))


def test_radius_must_belong_to_scheme():
    scheme = VolumeScheme(1, (1, 3), 2, 1.0, 1.0)
    with pytest.raises(ValidationError):
        ev.finite_volume_coeff(scheme, 2, (const(1), const(1)), (const(1), const(1)))


def test_scheme_validates_radii():
    with pytest.raises(ValidationError):
        VolumeScheme(1, (2, 2), 2, 1.0, 1.0)
    with pytest.raises(ValidationError):
        VolumeScheme(1, (), 2, 1.0, 1.0)


# every box within the enumeration budget: (dimension, states, radius)
BOXES = (
    [(1, 2, r) for r in range(10)]
    + [(1, 3, r) for r in range(6)]
    + [(d, q, r) for d in (2,) for q in (2, 3) for r in (0, 1)]
)
SMALL_BOXES = [b for b in BOXES if b[1] ** ((2 * b[2] + 1) ** b[0]) <= 3**9]
LARGE_BOXES = [b for b in BOXES if b not in SMALL_BOXES]
BETAS = st.floats(0.0, 8.0)
COUPLINGS = st.floats(-2.0, 2.0)


@functools.cache
def all_cells(n, q):
    return [Cell.from_index(i, n, q) for i in range(q**n)]


@pytest.mark.parametrize("dimension, q, radius", SMALL_BOXES)
@settings(max_examples=10, deadline=None)
@given(beta=BETAS, coupling=COUPLINGS)
def test_transfer_measure_matches_dense_on_every_cell(dimension, q, radius, beta, coupling):
    scheme = VolumeScheme(dimension, (radius,), q, coupling, beta)
    box = scheme.box(radius)
    mu = scheme.measure(radius)
    dense = dense_box_measure(box, q, coupling, beta)
    got = [mu.mass(c) for c in all_cells(box.site_count, q)]
    np.testing.assert_allclose(got, dense.weights, rtol=1e-12, atol=0)
    assert math.isclose(
        mu.log_partition, dense_log_partition(box, q, coupling, beta), rel_tol=1e-12, abs_tol=1e-12
    )


@pytest.mark.parametrize("dimension, q, radius", LARGE_BOXES)
@settings(max_examples=2, deadline=None)
@given(beta=BETAS, coupling=COUPLINGS, picks=st.lists(st.integers(0, 2**40), min_size=50, max_size=50))
def test_transfer_measure_matches_dense_on_large_boxes(dimension, q, radius, beta, coupling, picks):
    scheme = VolumeScheme(dimension, (radius,), q, coupling, beta)
    box = scheme.box(radius)
    mu = scheme.measure(radius)
    dense = dense_box_measure(box, q, coupling, beta)
    n = box.site_count
    # the lightest and the heaviest cells, and a spread of others
    indices = {int(np.argmin(dense.weights)), int(np.argmax(dense.weights))}
    indices |= {p % q**n for p in picks}
    for i in sorted(indices):
        cell = Cell.from_index(i, n, q)
        assert math.isclose(mu.mass(cell), dense.mass(cell), rel_tol=1e-12)
        assert math.isclose(mu.log_mass(cell), math.log(dense.mass(cell)), rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(
        mu.log_partition, dense_log_partition(box, q, coupling, beta), rel_tol=1e-12, abs_tol=1e-12
    )


@pytest.mark.parametrize(
    "dimension, q, radius, strength",
    [(1, 2, 2, s) for s in (2.0, 100.0, 170.0, 175.0, 200.0, -200.0)]
    + [(2, 2, 1, s) for s in (50.0, 65.0, -65.0)]
    + [(2, 3, 1, s) for s in (50.0, 65.0)],
)
def test_underflow_rejection_agrees_with_dense(dimension, q, radius, strength):
    beta, coupling = abs(strength), math.copysign(1.0, strength)
    scheme = VolumeScheme(dimension, (radius,), q, coupling, beta)
    try:
        dense_box_measure(scheme.box(radius), q, coupling, beta)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            scheme.measure(radius)
        assert str(got.value) == str(exc)
        assert str(exc).startswith("gibbs: normalized weights underflow")
    else:
        assert scheme.measure(radius).log_partition > 0


# sites off the centre of the box, one state each, per dimension
OFF_CENTRE = {
    1: [(1, 2), (-1, 2), (2, 1)],
    2: [((1, 1), 2), ((-1, 0), 2), ((0, -1), 1)],
}


@pytest.mark.parametrize("dimension, radius", [(1, 2), (2, 1)])
@pytest.mark.parametrize("q", [2, 3])
@settings(max_examples=15, deadline=None)
@given(
    beta=BETAS,
    coupling=COUPLINGS,
    marks=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
    tails=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    choice=st.tuples(st.booleans(), st.booleans()),
)
def test_off_centre_coefficient_matches_dense(dimension, radius, q, beta, coupling, marks, tails, choice):
    first, second = (min(t, q) for t in tails)
    pattern = tuple((OFF_CENTRE[dimension][m][0], min(OFF_CENTRE[dimension][m][1], q)) for m in marks)
    phi = (TailCell(first), TailCell(second, pattern))
    psi = (phi[choice[0]], phi[choice[1]])
    scheme = VolumeScheme(dimension, (0, radius), q, coupling, beta)
    expected = dense_coeff(scheme.box(radius), q, coupling, beta, phi, psi)
    assert math.isclose(ev.finite_volume_coeff(scheme, radius, phi, psi), expected, rel_tol=1e-12)


def test_coefficient_past_exp_overflow_is_finite():
    # flipping the origin breaks two edges, so |gap| = 800 > log(max float)
    scheme = VolumeScheme(1, (1, 2), 2, 1.0, 400.0)
    phi = (const(1), flipped(1, 2))
    psis = [(a, b) for a in phi for b in phi]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [ev.finite_volume_coeff(scheme, 2, phi, psi) for psi in psis]
    assert values == [1.0, 0.0, 0.0, 0.0]


def test_overflowing_strength_is_rejected():
    # beta and J each pass the scheme's checks, but beta*J is infinite
    scheme = VolumeScheme(1, (1,), 2, 1e200, 1e200)
    with pytest.raises(ValidationError, match="^measure: weights must be finite$"):
        ev.finite_volume_coeff(scheme, 1, (const(1), const(2)), (const(1), const(1)))


def test_coefficients_build_no_measure_and_search_no_children(monkeypatch):
    def refuse(*args):
        raise AssertionError("coefficients need no box measure and no children search")

    for name in ("BoxMeasure", "children_set", "components"):
        monkeypatch.setattr(limits, name, refuse)
    scheme = VolumeScheme(2, (0, 1), 3, 1.0, 0.7)
    phi = (const(1), TailCell(2, (((0, 0), 3),)))
    for psi in [(const(1), const(1)), phi, (phi[1], phi[1]), (const(3), const(1))]:
        seq = ev.coefficient_sequence(scheme, phi, psi)
        expected = [dense_coeff(scheme.box(r), 3, 1.0, 0.7, phi, psi) for r in scheme.radii]
        np.testing.assert_allclose(seq.values, expected, rtol=1e-12)


def test_coefficient_survives_tiny_masses():
    # antiferromagnetic and cold: each constant cell has mass near 1e-209, so
    # the square of their total underflows, yet the coefficient is 1/4
    scheme = VolumeScheme(2, (1,), 2, -10.0, 4.0)
    value = ev.finite_volume_coeff(scheme, 1, (const(1), const(2)), (const(1), const(1)))
    assert value == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("states", [10**30, 10**300])
def test_budget_message_for_huge_state_count(states):
    with pytest.raises(BudgetError, match=r"\^5 cells at radius 2 exceed the enumeration budget of 1000000$") as exc:
        VolumeScheme(1, (2,), states, 1.0, 1.0)
    # the state count itself plus a fixed amount of text; no expanded power
    assert str(exc.value) == (
        f"scheme: {states}^5 cells at radius 2 exceed the enumeration budget of 1000000"
    )
    assert len(str(exc.value)) < len(str(states)) + 80


def test_cell_must_match_box():
    scheme = VolumeScheme(1, (1, 2), 2, 1.0, 1.0)
    with pytest.raises(ValidationError, match="does not match the box"):
        scheme.measure(2).mass(const(1).restrict(scheme.box(1), 2))
