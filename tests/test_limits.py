import functools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evoalg as ev
from conftest import (
    cell_mass,
    dense_box_measure,
    dense_coeff,
    dense_log_partition,
    lattice_sites,
    oracle_coeff,
    oracle_equal_edges,
    oracle_restrict,
)
from evoalg import graphs, limits
from evoalg.cells import Cell, PairCell
from evoalg.errors import BudgetError, ValidationError, digit_count, shown, written
from evoalg.limits import BoxMeasure, TailCell, VolumeScheme


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
    phi = (const(1), const(2))
    restricted = PairCell(oracle_restrict(phi[0], box, 2), oracle_restrict(phi[1], box, 2))
    kids = ev.children_set(restricted, ev.components(box.graph))
    sites = lattice_sites(box)
    total = 0.0
    for a in kids:
        for b in kids:
            psi = (
                TailCell(1, tuple(zip(sites, a.states))),
                TailCell(1, tuple(zip(sites, b.states))),
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
        masses.append(math.exp(scheme.measure(2).constant_log_mass))
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


def test_budget_rejected(monkeypatch):
    def refuse(*args):
        raise AssertionError("a box graph was built")

    # the sites of every box, 1 + 999999, are exactly the budget
    VolumeScheme(1, (0, 499999), 2, 1.0, 1.0)
    monkeypatch.setattr(graphs, "Graph", refuse)
    with pytest.raises(BudgetError, match=r"^scheme: sum of \(2r\+1\)\^1 over 3 radii = 1000001 box sites "
                                          r"exceed the enumeration budget of 1000000$"):
        VolumeScheme(1, (0, 1, 499998), 2, 1.0, 1.0)
    with pytest.raises(BudgetError, match=r"\^2 over 2 radii = 1002002 box sites .* budget of 1000000$"):
        VolumeScheme(2, (0, 500), 2, 1.0, 1.0)
    # too many digits to print: the count is given as a bound
    with pytest.raises(BudgetError, match=r"^scheme: sum of \(2r\+1\)\^2 over 1 radii = 10\^20 or more box sites exceed"):
        VolumeScheme(2, (10**30,), 2, 1.0, 1.0)


def test_transfer_sweep_budget(monkeypatch):
    """A box measure's sweep adds columns * q^(2*width) entries; one past the budget builds no table."""
    # one column of a thousand states: exactly the budget
    assert limits.BoxMeasure(ev.LatticeBox(1, 0), 1000, 1.0, 0.1).log_partition == pytest.approx(math.log(1000))
    limits.BoxMeasure(ev.LatticeBox(2, 3), 2, 1.0, 0.5)  # 7 * 2^14 = 114688
    monkeypatch.setattr(limits, "state_axes", lambda *args: pytest.fail("the transfer table was allocated"))
    with pytest.raises(BudgetError, match=r"^transfer sweep: columns \* q\^\(2\*width\) = 1002001 entries "
                                          r"exceed the enumeration budget of 1000000$"):
        limits.BoxMeasure(ev.LatticeBox(1, 0), 1001, 1.0, 0.1)
    with pytest.raises(BudgetError, match=r"^transfer sweep: columns \* q\^\(2\*width\) = 2359296 entries "):
        limits.BoxMeasure(ev.LatticeBox(2, 4), 2, 1.0, 0.5)


def test_low_temp_budget_comes_before_any_scheme(monkeypatch):
    def refuse(*args):
        raise AssertionError("a transfer sweep was started")

    monkeypatch.setattr(limits, "_column_sweep", refuse)
    betas = [i / 100 for i in range(1001)]
    with pytest.raises(BudgetError, match=r"^low_temp: 1001 betas \* sum over 1 radii of columns \* q\^\(2\*width\) "
                                          r"= 1001000000 entries "):
        ev.low_temp_limit_algebras(1, 1000, [0], betas)
    # 4 * (1 + 3 + 249997) = 1000004 entries, the fewest past the budget: every count is a multiple of q^2
    with pytest.raises(BudgetError, match=r"= 1000004 entries exceed the enumeration budget of 1000000$"):
        ev.low_temp_limit_algebras(1, 2, [0, 1, 124998], [1.0])
    # 4 * (1 + 249999) and 1000^2 entries, exactly the budget, then a 2-D report within it
    for args in [(1, 2, [0, 124999], [1.0]), (1, 1000, [0], [1.0]), (2, 2, [0, 2], [0.5, 1.0])]:
        with pytest.raises(AssertionError, match="a transfer sweep"):
            ev.low_temp_limit_algebras(*args)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ev.LatticeBox(1.0, 2), "dimension"),
        (lambda: ev.LatticeBox(1, 2.0), "radius"),
        (lambda: ev.LatticeBox(1, True), "radius"),
        (lambda: ev.LatticeBox(1, 2).site_index((True,)), "coordinate"),
        (lambda: ev.LatticeBox(1, 2).site_index(1.0), "coordinate"),
        (lambda: ev.LatticeBox(2, 2).site_index("01"), "coordinate"),
        (lambda: TailCell(1.9), "pairs.tail"),
        (lambda: TailCell("1"), "pairs.tail"),
        (lambda: TailCell(1, {0: 2.5}), "pairs.pattern"),
        (lambda: TailCell(1, {0.5: 2}), "pairs.pattern"),
        (lambda: TailCell(1, {(0, False): 2}), "pairs.pattern"),
        (lambda: VolumeScheme(1, (1.5,), 2, 1.0, 1.0), "radii"),
        (lambda: VolumeScheme(1, (True,), 2, 1.0, 1.0), "radii"),
        (lambda: VolumeScheme(1, (1,), 2.5, 1.0, 1.0), "states"),
        (lambda: VolumeScheme(1, (1,), "2", 1.0, 1.0), "states"),
        (lambda: VolumeScheme(2.0, (1,), 2, 1.0, 1.0), "dimension"),
        (lambda: ev.low_temp_limit_algebras(1, 2.5, [1], [1.0]), "states"),
    ],
    ids=[
        "box-dimension-float", "box-radius-float", "box-radius-bool", "site-bool", "site-float",
        "site-string", "tail-float", "tail-string", "pattern-state-float", "pattern-site-float",
        "pattern-site-bool", "radii-float", "radii-bool", "states-float", "states-string",
        "scheme-dimension-float", "low-temp-states-float",
    ],
)
def test_lattice_inputs_must_be_integers(build, field):
    with pytest.raises(ValidationError, match=field):
        build()


@pytest.fixture
def int_digit_limit():
    """Set the interpreter's limit on the digits of an int turned into text, and restore it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no limit on int <-> str conversion in this interpreter")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_error_helpers_describe_integers_past_4300_digits_by_digit_count(int_digit_limit):
    """``str`` and ``repr`` reject an int of more than 4,300 digits; up to that the helpers print as before."""
    int_digit_limit(4300)
    for value, sign in ((10**5000, ""), (-(10**5000), ", negative")):
        assert shown(value) == f"int of 5001 digits{sign}"
        assert written(value) == shown(value)
    assert shown(10**4299) == written(10**4299) == "int 1" + "0" * 59 + "…"
    assert written(-(10**58)) == "-1" + "0" * 58
    assert written(10**60) == "int 1" + "0" * 59 + "…"
    values = [0, 9, 10, 99, 2**64, -(2**64), 10**4300 - 1, *(2**b - d for b in range(1, 400) for d in (0, 1))]
    assert [digit_count(v) for v in values] == [len(str(abs(v))) for v in values]
    assert [digit_count(v) for v in (10**4300, 10**5000 - 1, 2**20000)] == [4301, 5000, 6021]


def test_error_helpers_follow_the_interpreters_digit_limit(int_digit_limit):
    """A lower limit cuts over sooner, and without a limit a long integer prints its digits cut to 60 characters."""
    int_digit_limit(1000)
    assert shown(10**1000) == "int of 1001 digits"
    assert written(-(10**2000)) == "int of 2001 digits, negative"
    assert shown(10**999) == "int 1" + "0" * 59 + "…"
    with pytest.raises(ValidationError, match="got int of 2001 digits$"):
        TailCell(1, {0: 10**2000}).restrict(ev.LatticeBox(1, 1), 2)
    int_digit_limit(0)
    assert shown(10**5000) == written(10**5000) == "int 1" + "0" * 59 + "…"


@pytest.mark.parametrize("cell, field", [(TailCell(1, {0: 10**5000}), "pattern"), (TailCell(10**5000), "tail")])
def test_restrict_rejects_a_state_past_4300_digits(int_digit_limit, cell, field):
    int_digit_limit(4300)
    with pytest.raises(ValidationError) as info:
        cell.restrict(ev.LatticeBox(1, 1), 2)
    assert str(info.value) == f"scenario.limits.pairs.{field}: state must be in 1..2, got int of 5001 digits"


def test_rejected_numpy_integers_print_as_written():
    assert [written(v) for v in (np.int64(-7), np.uint64(2**64 - 1))] == ["-7", "18446744073709551615"]
    with pytest.raises(ValidationError, match=r"coordinate \(5000,\) outside box of radius 1$"):
        ev.LatticeBox(1, 1).site_index((np.int64(5000),))
    with pytest.raises(ValidationError, match="state must be in 1..2, got 9$"):
        TailCell(np.int64(2), {np.int16(1): np.int64(9)}).restrict(ev.LatticeBox(1, 1), 2)


def test_lattice_inputs_accept_numpy_integers():
    box = ev.LatticeBox(np.int64(2), np.int32(3))
    assert box.site_index((np.int64(-3), np.uint8(1))) == 4
    cell = TailCell(np.int64(2), {np.int16(1): np.int64(1)})
    assert (cell.tail, cell.pattern) == (2, (((1,), 1),))
    scheme = VolumeScheme(np.int64(1), (np.int64(0), np.int8(2)), np.int64(3), 1.0, 1.0)
    assert scheme.radii == (0, 2) and all(type(r) is int for r in scheme.radii)
    assert ev.finite_volume_coeff(scheme, 2, (cell, cell), (cell, cell)) == 1.0


def test_pattern_must_fit_in_box():
    scheme = VolumeScheme(1, (1,), 2, 1.0, 1.0)
    with pytest.raises(ValidationError):
        ev.finite_volume_coeff(scheme, 1, (const(1), flipped(1, 2, coord=5)), (const(1), const(1)))


def test_radius_must_belong_to_scheme():
    scheme = VolumeScheme(1, (1, 3), 2, 1.0, 1.0)
    with pytest.raises(ValidationError):
        ev.finite_volume_coeff(scheme, 2, (const(1), const(1)), (const(1), const(1)))


def test_boxes_and_measures_only_of_the_scheme_radii():
    """``box`` and ``measure`` reject a radius outside the scheme, as ``finite_volume_coeff`` does, a non-integer
    equal to a scheme radius included; a scheme radius gives the box the site budget counted, every time."""
    scheme = VolumeScheme(1, (1,), 2, 1.0, 1.0)
    for radius in (5, 0, 1.0, True, "1"):
        for read in (scheme.box, scheme.measure):
            with pytest.raises(ValidationError, match=f"^radius {radius} not part of the scheme$"):
                read(radius)
    assert scheme.box(1) is scheme.box(np.int64(1)) is scheme.boxes[1]
    assert scheme.box(1) == ev.LatticeBox(1, 1)
    assert scheme.measure(1).log_partition == BoxMeasure(ev.LatticeBox(1, 1), 2, 1.0, 1.0).log_partition
    with pytest.raises(ValidationError, match="^radius 1.0 not part of the scheme$"):
        ev.finite_volume_coeff(scheme, 1.0, (const(1), const(1)), (const(1), const(1)))


def test_scheme_equality_hash_and_repr_ignore_its_boxes():
    scheme, twin = VolumeScheme(1, (1, 2), 2, 1.0, 1.0), VolumeScheme(1, (1, 2), 2, 1.0, 1.0)
    assert scheme == twin and hash(scheme) == hash(twin) and scheme.boxes is not twin.boxes
    assert repr(scheme) == "VolumeScheme(dimension=1, radii=(1, 2), states=2, coupling=1.0, beta=1.0)"


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


def oracle_log_mass(mu, cell, radius):
    """A box cell's log mass, ``beta*J`` per equal edge of the whole box, less ``log Z``."""
    return mu.strength * oracle_equal_edges(cell, 2 * radius + 1) - mu.log_partition


def assert_constant_log_mass(mu, dense, n, q):
    """Every constant cell carries the dense constant-cell mass."""
    for state in range(q):
        mass = cell_mass(dense, Cell((state,) * n, q))
        assert math.isclose(math.exp(mu.constant_log_mass), mass, rel_tol=1e-12)
        assert math.isclose(mu.constant_log_mass, math.log(mass), rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("dimension, q, radius", SMALL_BOXES)
@settings(max_examples=10, deadline=None)
@given(beta=BETAS, coupling=COUPLINGS)
def test_transfer_measure_matches_dense_on_every_cell(dimension, q, radius, beta, coupling):
    scheme = VolumeScheme(dimension, (radius,), q, coupling, beta)
    box = scheme.box(radius)
    mu = scheme.measure(radius)
    dense = dense_box_measure(box, q, coupling, beta)
    got = [math.exp(oracle_log_mass(mu, c, radius)) for c in all_cells(box.site_count, q)]
    np.testing.assert_allclose(got, dense.weights, rtol=1e-12, atol=0)
    assert_constant_log_mass(mu, dense, box.site_count, q)
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
        log_mass = oracle_log_mass(mu, cell, radius)
        assert math.isclose(math.exp(log_mass), cell_mass(dense, cell), rel_tol=1e-12)
        assert math.isclose(log_mass, math.log(cell_mass(dense, cell)), rel_tol=1e-12, abs_tol=1e-12)
    assert_constant_log_mass(mu, dense, n, q)
    assert math.isclose(
        mu.log_partition, dense_log_partition(box, q, coupling, beta), rel_tol=1e-12, abs_tol=1e-12
    )


@pytest.mark.parametrize(
    "dimension, q, radius, strength",
    [(1, 2, 2, s) for s in (2.0, 100.0, 170.0, 175.0, 200.0, -200.0)]
    + [(2, 2, 1, s) for s in (50.0, 65.0, -50.0, -65.0)]
    + [(2, 3, 1, s) for s in (50.0, 65.0, -50.0, -65.0)]
    + [(1, 3, 2, s) for s in (170.0, 175.0, -170.0, -175.0)],
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


def measure_outcome(build):
    """What ``build()`` gives: the box measure's values in hex, or its error's type and text."""
    try:
        mu = build()
    except (BudgetError, ValidationError) as exc:
        return type(exc), str(exc)
    return mu.strength.hex(), mu.log_partition.hex(), mu.constant_log_mass.hex()


def fresh_outcome(radius, q, coupling, beta):
    return measure_outcome(lambda: limits.BoxMeasure(ev.LatticeBox(1, radius), q, coupling, beta))


def chain_outcome(scheme, radius):
    return measure_outcome(lambda: scheme.measure(radius))


CHAIN_RADII = (0, 1, 2, 5, 9, 17)
CHAIN_ORDERS = {
    "ascending": CHAIN_RADII,
    "descending": CHAIN_RADII[::-1],
    "mixed": (5, 0, 17, 2, 5, 9, 1, 17, 0),
}


@pytest.mark.parametrize("order", sorted(CHAIN_ORDERS))
@pytest.mark.parametrize("coupling", [0.83, -1.27])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_chain_measures_match_fresh_box_measures_bit_for_bit(q, coupling, order):
    """In 1-D every radius of a scheme reads the same values, to the bit, as a fresh box measure, in any order."""
    scheme = VolumeScheme(1, CHAIN_RADII, q, coupling, 1.9)
    for radius in CHAIN_ORDERS[order]:
        assert chain_outcome(scheme, radius) == fresh_outcome(radius, q, coupling, 1.9)


@pytest.mark.parametrize("order", sorted(CHAIN_ORDERS))
def test_chain_underflow_of_the_largest_radius_spares_the_smaller(order):
    # 2r * beta*J past -log(POSITIVITY_FLOOR) ~ 690.8 only at r = 80: 160 * 4.7 = 752
    radii, q, coupling, beta = (0, 5, 80), 2, 1.0, 4.7
    scheme = VolumeScheme(1, radii, q, coupling, beta)
    requests = {"ascending": radii, "descending": radii[::-1], "mixed": (80, 0, 80, 5, 80)}[order]
    for radius in requests:
        got = chain_outcome(scheme, radius)
        assert got == fresh_outcome(radius, q, coupling, beta)
        assert (got[0] is ValidationError) == (radius == 80)
    assert chain_outcome(scheme, 80)[1] == "gibbs: normalized weights underflow; measure no longer strictly positive"


@pytest.mark.parametrize("coupling", [1.0, -1.0])
def test_chain_budget_of_the_largest_radius_spares_the_smaller(coupling):
    # columns * q^2 = 250001 * 4 entries, one column past the budget at r = 125000
    radii, q, beta = (0, 3, 124999, 125000), 2, 1e-3
    scheme = VolumeScheme(1, radii, q, coupling, beta)
    for radius in (125000, 3, 125000, 0):
        got = chain_outcome(scheme, radius)
        assert got == fresh_outcome(radius, q, coupling, beta)
        assert (got[0] is BudgetError) == (radius == 125000)
    assert chain_outcome(scheme, 125000)[1] == (
        "transfer sweep: columns * q^(2*width) = 1000004 entries exceed the enumeration budget of 1000000"
    )


def test_chain_that_raised_mid_sweep_raises_the_same_again():
    # beta*J overflows, and with warnings as errors numpy's first invalid product raises inside the sweep
    scheme = VolumeScheme(1, (0, 1), 2, 1e200, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for radius in (1, 1, 0, 0):
            with pytest.raises(RuntimeWarning) as fresh:
                limits.BoxMeasure(ev.LatticeBox(1, radius), 2, 1e200, 1e200)
            with pytest.raises(RuntimeWarning) as got:
                scheme.measure(radius)
            assert str(got.value) == str(fresh.value)


@pytest.mark.parametrize("coupling", [1.0, -0.7, 0.3])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_long_chains_match_the_free_boundary_closed_form(q, coupling):
    """A chain's ``log Z = log q + E log(e^(beta J) + q - 1)``, ``E = box.edge_count``, far past dense enumeration."""
    radii, betas = (0, 1, 2, 5, 20, 50), (0.1, 0.9, 3.0)
    masses = ev.low_temp_limit_algebras(1, q, radii, betas, coupling)["candidates"][0]["masses"]
    for beta, row in zip(betas, masses):
        for radius, mass in zip(radii, row):
            box = ev.LatticeBox(1, radius)
            log_z = math.log(q) + box.edge_count * math.log(math.exp(beta * coupling) + q - 1)
            assert math.isclose(limits.BoxMeasure(box, q, coupling, beta).log_partition, log_z, rel_tol=1e-14)
            assert math.isclose(mass, math.exp(beta * coupling * box.edge_count - log_z) ** 2, rel_tol=1e-11)


def test_one_chain_sweep_serves_every_radius(monkeypatch):
    """1-D low_temp over radii 0..7 and three betas takes 14 transfer steps and 8 closing sums in all."""
    calls = []
    logsumexp = limits._logsumexp
    monkeypatch.setattr(limits, "_logsumexp", lambda x: calls.append(x.ndim) or logsumexp(x))
    ev.low_temp_limit_algebras(1, 3, range(8), [0.4, 1.1, 2.2], -0.6)
    assert (calls.count(3), calls.count(2), len(calls)) == (14, 8, 22)
    calls.clear()
    limits.BoxMeasure(ev.LatticeBox(1, 7), 3, -0.6, 2.2)
    assert (calls.count(2), calls.count(1)) == (14, 1)


@pytest.mark.parametrize("width, q", [(1, 3), (2, 3), (3, 2), (4, 3), (5, 2)])
def test_sweep_of_many_strengths_matches_each_strength_alone(width, q):
    """A vector of strengths yields, at every stop, each strength's own ``log Z`` to the bit."""
    strengths = [0.0, 0.37, -1.3, 2.9, -0.05]
    stops = [1, 2, 5, 9]
    alone = [list(limits._column_sweep(width, q, s, stops)) for s in strengths]
    together = list(limits._column_sweep(width, q, np.array(strengths), stops))
    assert [[v.hex() for v in row] for row in zip(*together)] == [[v.hex() for v in row] for row in alone]


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
    # coefficients do no work per state, so the scheme itself is within budget
    scheme = VolumeScheme(1, (2,), states, 1.0, 1.0)
    with pytest.raises(BudgetError) as exc:
        scheme.measure(2)
    assert str(exc.value) == (
        "transfer sweep: columns * q^(2*width) = 10^20 or more entries exceed the enumeration budget of 1000000"
    )
    with pytest.raises(BudgetError) as exc:
        ev.low_temp_limit_algebras(1, states, [2], [1.0])
    # a fixed amount of text; neither the state count nor a power of it is expanded
    assert str(exc.value) == (
        "low_temp: 1 betas * sum over 1 radii of columns * q^(2*width) = 10^20 or more entries "
        "exceed the enumeration budget of 1000000"
    )


@pytest.mark.parametrize(
    "phi, psi",
    [
        ((const(1), flipped(1, 2)), ()),
        ((const(1), flipped(1, 2)), (const(1),)),
        ((const(1), flipped(1, 2)), (const(1), const(1), const(1))),
        ((const(1), flipped(1, 2), const(2)), (const(1), const(1))),
        ((const(1), 1), (const(1), const(1))),
        ((const(1), flipped(1, 2)), (const(1), {"tail": 1})),
        (const(1), (const(1), const(1))),
        ("ab", (const(1), const(1))),
    ],
    ids=["psi-0", "psi-1", "psi-3", "phi-3", "phi-int", "psi-dict", "phi-tail-cell", "phi-string"],
)
def test_coefficient_needs_two_tail_cells_each(monkeypatch, phi, psi):
    scheme = VolumeScheme(1, (1,), 2, 1.0, 1.0)
    monkeypatch.setattr(limits, "LatticeBox", lambda *args: pytest.fail("a box was built"))
    for radius in (1, 2):  # before the radius is looked up
        with pytest.raises(ValidationError, match=r"^finite_volume_coeff: phi and psi must each be two tail cells$"):
            ev.finite_volume_coeff(scheme, radius, phi, psi)


def outcome(coeff, scheme, radius, phi, psi):
    """A coefficient as ``float.hex``, or the text of its rejection."""
    try:
        return float.hex(coeff(scheme, radius, phi, psi))
    except ValidationError as exc:
        return f"rejected: {exc}"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_coefficient_matches_full_box_oracle_bit_for_bit(data):
    dimension, radius, q = data.draw(st.sampled_from((1, 2))), data.draw(st.integers(0, 3)), data.draw(st.integers(2, 4))
    # faces and corners often, then the whole box; in one example of four also one step outside it
    reach = radius + data.draw(st.sampled_from((0, 0, 0, 1)))
    coord = st.one_of(st.sampled_from((-radius, radius)), st.integers(-reach, reach))
    site = st.tuples(*[coord] * dimension)
    state = st.integers(1, q)
    tails = data.draw(state), data.draw(state)
    if data.draw(st.booleans()):
        tails = tails[0], tails[0]
    phi = tuple(TailCell(t, data.draw(st.dictionaries(site, state, max_size=4))) for t in tails)

    def child():
        kind = data.draw(st.sampled_from(("phi", "padded", "fresh")))
        if kind == "fresh":
            return TailCell(data.draw(state), data.draw(st.dictionaries(site, state, max_size=3)))
        cell = data.draw(st.sampled_from(phi))
        if kind == "padded":  # the same cell on the box, with its tail state written at one more site
            return TailCell(cell.tail, {data.draw(site): cell.tail, **dict(cell.pattern)})
        return cell

    psi = (child(), child())
    scheme = VolumeScheme(dimension, (radius,), q, data.draw(COUPLINGS), data.draw(BETAS))
    expected = outcome(oracle_coeff, scheme, radius, phi, psi)
    assert outcome(ev.finite_volume_coeff, scheme, radius, phi, psi) == expected


def test_budget_edge_coefficient_allocates_nothing_per_site():
    # 1 + 999,999 box sites, exactly the budget; the full-box cells took tens of MiB
    scheme = VolumeScheme(1, (0, 499999), 2, 1.0, 0.7)
    phi = (const(1), flipped(1, 2))
    tracemalloc.start()
    try:
        value = ev.finite_volume_coeff(scheme, 499999, phi, (const(1), const(1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # flipping the origin breaks both of its edges
    assert value == pytest.approx((1 + math.exp(-1.4)) ** -2, rel=1e-12)
    assert peak < 2**20


def per_radius_outcome(scheme, phi, psi):
    """``finite_volume_coeff`` on every radius in ascending order, as ``float.hex``, up to its first rejection."""
    values = []
    for radius in scheme.radii:
        values.append(outcome(ev.finite_volume_coeff, scheme, radius, phi, psi))
        if values[-1].startswith("rejected"):
            return values[-1]
    return values


def sequence_outcome(scheme, phi, psi):
    """``coefficient_sequence`` values as ``float.hex``, or the text of its rejection."""
    try:
        return [float.hex(v) for v in ev.coefficient_sequence(scheme, phi, psi).values]
    except ValidationError as exc:
        return f"rejected: {exc}"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sequence_matches_every_radius_bit_for_bit(data):
    """Radii past ``r*`` repeat its value; the sequence matches the per-radius oracle, or its first rejection."""
    dimension, q = data.draw(st.sampled_from((1, 2))), data.draw(st.sampled_from((2, 3, 5)))
    support = data.draw(st.integers(0, 3))
    # now and then a state past q, so that a restriction rejects it
    state = st.integers(1, q + data.draw(st.sampled_from((0,) * 7 + (1,))))
    coord = st.one_of(st.sampled_from((-support, support)), st.integers(-support, support))
    site = st.tuples(*[coord] * dimension)
    if data.draw(st.booleans()):  # a pattern over every site within the support: it fills the box of that radius
        square = [tuple(c) for c in np.ndindex(*[2 * support + 1] * dimension)]
        fill = tuple((tuple(x - support for x in c), data.draw(state)) for c in square)
        other = TailCell(data.draw(state), data.draw(st.dictionaries(site, state, max_size=2)))
        phi = (TailCell(data.draw(state), fill), other)
    else:
        phi = tuple(TailCell(data.draw(state), data.draw(st.dictionaries(site, state, max_size=4))) for _ in range(2))

    def child():
        kind = data.draw(st.sampled_from(("phi", "phi", "phi", "fresh")))
        if kind == "fresh":
            return TailCell(data.draw(state), data.draw(st.dictionaries(site, state, max_size=3)))
        return data.draw(st.sampled_from(phi))

    psi = (child(), child())
    # the first radius at, below or just past the support, the rest anywhere above it
    first = max(0, support + data.draw(st.sampled_from((-1, 0, 0, 0, 1, 2))))
    rest = data.draw(st.lists(st.integers(first + 1, first + 8), max_size=5, unique=True))
    scheme = VolumeScheme(dimension, (first, *sorted(rest)), q, data.draw(COUPLINGS), data.draw(BETAS))
    assert sequence_outcome(scheme, phi, psi) == per_radius_outcome(scheme, phi, psi)


def low_temp_outcome(build):
    """``build()``'s masses as nested ``float.hex`` lists, or the text of its rejection."""
    try:
        return [[float.hex(m) for m in row] for row in build()]
    except ValidationError as exc:
        return f"rejected: {exc}"


def scheme_masses(dimension, q, radii, betas, coupling):
    """The constant-cell mass squared, read off a fresh scheme of every beta on its own."""
    for beta in betas:
        scheme = VolumeScheme(dimension, radii, q, coupling, beta)
        yield [math.exp(scheme.measure(r).constant_log_mass) ** 2 for r in radii]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_low_temp_masses_match_a_scheme_per_beta_bit_for_bit(data):
    """The shared sweep gives every beta the masses, or the first rejection, of that beta's own scheme."""
    dimension, q = data.draw(st.sampled_from((1, 2))), data.draw(st.sampled_from((2, 3, 5)))
    # 2-D boxes within the transfer budget; in 1-D, long enough chains underflow at large beta*J
    pool = range(40) if dimension == 1 else (0, 1, 2) if q == 2 else (0, 1)
    radii = sorted(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True)))
    betas = data.draw(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5, unique=True))
    betas = sorted({*betas, 0.0} if data.draw(st.booleans()) else betas)
    coupling = data.draw(COUPLINGS)

    def report():
        candidates = ev.low_temp_limit_algebras(dimension, q, radii, betas, coupling)["candidates"]
        assert all(c["masses"] == candidates[0]["masses"] for c in candidates)
        return candidates[0]["masses"]

    expected = low_temp_outcome(lambda: list(scheme_masses(dimension, q, radii, betas, coupling)))
    assert low_temp_outcome(report) == expected


def test_low_temp_builds_no_scheme_measure_or_box_graph(monkeypatch):
    cases = [(1, 2, (0, 3, 7), (0.0, 0.41, 4.7), 1.07), (2, 3, (0, 1), (0.5, 20.0, 57.0), -1.0)]
    expected = [list(scheme_masses(d, q, radii, betas, j)) for d, q, radii, betas, j in cases]

    def refuse(*args):
        raise AssertionError("low_temp needs no scheme, box measure or box graph")

    for name in ("VolumeScheme", "BoxMeasure"):
        monkeypatch.setattr(limits, name, refuse)
    monkeypatch.setattr(graphs, "Graph", refuse)
    for (dimension, q, radii, betas, coupling), masses in zip(cases, expected):
        report = ev.low_temp_limit_algebras(dimension, q, radii, betas, coupling)
        assert [c["masses"] for c in report["candidates"]] == [masses] * q


@pytest.mark.parametrize("betas, error", [
    ((0.5, 1e200), "gibbs: normalized weights underflow; measure no longer strictly positive"),
    ((1e200,), "measure: weights must be finite"),
])
@pytest.mark.parametrize("dimension", [1, 2])
def test_low_temp_rejects_the_first_failing_beta_then_radius(dimension, betas, error):
    """With J = 1e200, beta 0.5 underflows at radius 1; beta 1e200 overflows beta*J, so log Z is nan from radius 0."""
    args = dimension, 2, (0, 1), betas, 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the sweep of an infinite strength meets inf * 0
        expected = low_temp_outcome(lambda: list(scheme_masses(*args)))
        got = low_temp_outcome(lambda: ev.low_temp_limit_algebras(*args)["candidates"][0]["masses"])
    assert got == expected == f"rejected: {error}"
