"""Every dense enumeration from broadcast state axes against the digit-table oracle, bit for bit.

Gibbs weights, the local specification, the DLR rows, the heredity matrix's component contributions and the
transfer-sweep values are each computed once from ``cells.state_axes`` by the package and once from the
``(k**n, n)`` digit table by the oracles in ``conftest.py``; the floats must agree in every bit.
"""

import time
import tracemalloc

import numpy as np
import pytest

import evoalg as ev
from evoalg import limits, measures
from evoalg.cells import cellwise, state_axes

from conftest import (
    cell_digits,
    oracle_column_sweep,
    oracle_contributions,
    oracle_dlr_rows,
    oracle_gibbs_weights,
    oracle_local_specification,
)

BETAS = (0.0, 0.3, 1.7, 40.0)


def random_hamiltonian(rng):
    """A random graph with at most 9 vertices and 4 states, random couplings and site fields, and a drawn beta."""
    k = int(rng.integers(1, 5))
    n = int(rng.integers(1, 10 if k <= 2 else 7 if k == 3 else 6))
    edges = frozenset((x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < 0.4)
    graph = ev.Graph(n, edges)
    coupling = {e: rng.normal(0.0, 0.3, (k, k)) for e in edges}
    field = rng.normal(0.0, 0.3, (n, k)) * (rng.random() < 0.7)
    return ev.Hamiltonian(graph, k, float(rng.choice(BETAS)), coupling, field)


def same_bits(left, right):
    left, right = np.asarray(left), np.asarray(right)
    return left.shape == right.shape and left.dtype == right.dtype and left.tobytes() == right.tobytes()


def test_state_axes_ravel_in_canonical_order():
    for n, k in [(1, 3), (3, 2), (4, 3), (2, 4)]:
        axes = state_axes(n, k)
        assert [a.ndim for a in axes] == list(range(1, n + 1))
        assert np.array_equal(np.stack([cellwise(a, axes) for a in axes], axis=1), cell_digits(n, k))
    # one state: every vertex on one axis of length 1, however many vertices, in time linear in their count (built
    # from a tuple of one entry per vertex before it, the axes of 60,000 vertices take about 4 s)
    start = time.perf_counter()
    assert all(a.shape == (1,) for a in state_axes(60000, 1))
    assert time.perf_counter() - start < 1.0


def test_state_axes_check_the_enumeration_budget():
    with pytest.raises(ev.BudgetError, match=r"^cell space: k\^n = 1048576 cells exceed the enumeration budget of 1000000$"):
        state_axes(20, 2)
    assert len(state_axes(19, 2)) == 19


@pytest.mark.parametrize("seed", range(48))
def test_measures_match_the_digit_table(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        h = random_hamiltonian(rng)
        mu = ev.gibbs_measure(h)
        assert same_bits(mu.weights, oracle_gibbs_weights(h))
        domain = tuple(sorted(rng.choice(h.n, int(rng.integers(1, min(h.n, 3) + 1)), replace=False).tolist()))
        outer, cond = measures._local_specification(h, domain)
        expected_outer, expected_cond = oracle_local_specification(h, domain)
        assert outer == expected_outer and same_bits(cond, expected_cond)
        rows = ev.dlr_table(h, domain, mu)
        lhs, rhs = oracle_dlr_rows(h, domain, mu.weights)
        assert same_bits([r.lhs for r in rows], lhs) and same_bits([r.rhs for r in rows], rhs)
        assert same_bits([r.gap for r in rows], np.abs(lhs - rhs))


@pytest.mark.parametrize("seed", range(66))
def test_heredity_contributions_match_the_digit_table(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    n = int(rng.integers(1, {1: 10, 2: 9, 3: 6, 4: 5}[k]))
    graph = ev.Graph(n, frozenset((x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < 0.3))
    layout = ev.RowClassLayout(graph, ev.StateSpace(k))
    assert same_bits(layout.contrib, oracle_contributions(n, k, ev.components(graph)))


@pytest.mark.parametrize("seed", range(12))
def test_column_sweep_matches_the_digit_table(seed):
    rng = np.random.default_rng(seed)
    states = int(rng.integers(2, 5))
    width = int(rng.integers(1, {2: 6, 3: 4, 4: 3}[states]))
    strengths = rng.choice([0.0, 0.3, -1.7, 40.0], int(rng.integers(1, 4)))
    stops = np.cumsum(rng.integers(1, 4, int(rng.integers(1, 4)))).tolist()
    for s in (strengths, float(strengths[0])):
        got = list(limits._column_sweep(width, states, s, stops))
        assert same_bits(got, list(oracle_column_sweep(width, states, s, stops)))


def test_budget_edge_enumeration_peaks_low():
    """Gibbs weights and DLR rows of a 19-vertex k=2 Potts path, 524,288 cells: a digit table would be 76 MiB."""
    h = ev.potts_hamiltonian(ev.Graph(19, frozenset((v, v + 1) for v in range(18))), 2, 1.0, 0.7)
    tracemalloc.start()
    try:
        ev.dlr_table(h, (9, 10), ev.gibbs_measure(h))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
