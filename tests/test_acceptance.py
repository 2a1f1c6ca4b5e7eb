"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

import evoalg as ev
from evoalg.algebra import AlgebraElement
from evoalg.cells import PairCell
from evoalg.errors import ValidationError
from evoalg.limits import TailCell, VolumeScheme

from conftest import (
    REFERENCE_P,
    display_cells,
    oracle_iso,
    oracle_restrict,
    random_positive_measure,
    reference_measure_for,
)
from test_algebra import phi
from test_structure import remark_classes, symmetric_measure


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\ncriterion {num:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\ncriterion {num:2d} ({name}): PASS [{elapsed:.2f}s, budget {budget_seconds}s]")
    assert elapsed < budget_seconds


def build_reference(edges):
    graph = ev.Graph(2, frozenset(edges))
    space = ev.StateSpace(2, ("a", "A"))
    return ev.build_algebra(graph, space, reference_measure_for())


def test_criterion_01_single_edge_rows_closed_form():
    with criterion(1, "single-edge golden rows", 1.0):
        algebra = build_reference({(0, 1)})
        p = REFERENCE_P
        for i in range(1, 5):
            assert algebra.row(phi(i, i)) == {phi(i, i).index: 1.0}
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                s = (p[i - 1] + p[j - 1]) ** 2
                expected = {
                    phi(i, i).index: p[i - 1] ** 2 / s,
                    phi(i, j).index: p[i - 1] * p[j - 1] / s,
                    phi(j, i).index: p[i - 1] * p[j - 1] / s,
                    phi(j, j).index: p[j - 1] ** 2 / s,
                }
                row = algebra.row(phi(i, j))
                assert set(row) == set(expected)
                for key, value in expected.items():
                    assert abs(row[key] - value) < 1e-12


def test_criterion_02_edgeless_golden_rows_and_levels():
    with criterion(2, "edgeless golden rows and 3 levels", 1.0):
        algebra = build_reference(set())
        p = REFERENCE_P
        full_row_pairs = [phi(1, 4), phi(4, 1), phi(2, 3), phi(3, 2)]
        cells = display_cells(2, 2)
        for generator in full_row_pairs:
            row = algebra.row(generator)
            assert len(row) == 16
            for i, a in enumerate(cells):
                for j, b in enumerate(cells):
                    assert abs(row[PairCell(a, b).index] - p[i] * p[j]) < 1e-12
        hierarchy = ev.build_hierarchy(algebra)
        assert hierarchy.level_count == 3
        top = hierarchy.levels[2]
        assert len(top) == 1
        assert set(top[0]) == {g.index for g in full_row_pairs}


def test_criterion_03_structure_counts():
    with criterion(3, "structure counts on connected graphs", 30.0):
        cases = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]
        rng = np.random.default_rng(31)
        for n, k in cases:
            edges = frozenset((v, v + 1) for v in range(n - 1))
            graph = ev.Graph(n, edges)
            space = ev.StateSpace(k)
            mu = random_positive_measure(rng, n, k)
            algebra = ev.build_algebra(graph, space, mu)
            counts = ev.structure_counts(algebra)
            kn = k**n
            assert counts.dimension == k ** (2 * n)
            assert counts.one_dimensional == kn
            assert counts.four_dimensional == kn * (kn - 1) // 2
            closures = {
                ev.generated_subalgebra(algebra, [index]).basis
                for index in range(algebra.dimension)
            }
            assert {len(c) for c in closures} <= {1, 4}
            assert sum(1 for c in closures if len(c) == 1) == kn
            assert sum(1 for c in closures if len(c) == 4) == kn * (kn - 1) // 2


_SWEEP_CACHE = {}


def small_instances():
    """Every graph on up to 3 vertices, every edge subset, k in {2, 3}."""
    if "data" not in _SWEEP_CACHE:
        instances = []
        for n in (1, 2, 3):
            vertex_pairs = list(itertools.combinations(range(n), 2))
            for mask in range(2 ** len(vertex_pairs)):
                edges = frozenset(
                    p for i, p in enumerate(vertex_pairs) if mask >> i & 1
                )
                for k in (2, 3):
                    graph = ev.Graph(n, edges)
                    space = ev.StateSpace(k)
                    mu = ev.from_weights(np.arange(1.0, k**n + 1.0), n, k)
                    algebra = ev.build_algebra(graph, space, mu)
                    supports = [
                        frozenset(algebra.row(i))
                        for i in range(algebra.dimension)
                    ]
                    instances.append((algebra, supports))
        _SWEEP_CACHE["data"] = instances
    return _SWEEP_CACHE["data"]


def test_criterion_04_lemma_suite_exhaustive():
    with criterion(4, "children-set laws, exhaustive sweep", 60.0):
        instances = small_instances()
        assert len(instances) == 22
        for algebra, supports in instances:
            kn = algebra.kn
            for sigma in range(algebra.dimension):
                s_sigma = supports[sigma]
                assert sigma in s_sigma
                a, b = divmod(sigma, kn)
                assert (len(s_sigma) == 1) == (a == b)
                for tau in s_sigma:
                    assert supports[tau] <= s_sigma
                    if sigma in supports[tau]:
                        assert supports[tau] == s_sigma
                closure = ev.generated_subalgebra(algebra, [sigma]).basis
                assert closure == s_sigma


def test_criterion_05_measure_independence():
    with criterion(5, "zero pattern independent of the measure", 10.0):
        graphs = [
            ev.Graph(2, frozenset({(0, 1)})),
            ev.Graph(2),
            ev.Graph(3, frozenset({(0, 1), (1, 2)})),
            ev.Graph(3, frozenset({(0, 1), (1, 2), (0, 2)})),
            ev.Graph(3, frozenset({(0, 1)})),
        ]
        rng = np.random.default_rng(41)
        verdicts = []
        for graph in graphs:
            space = ev.StateSpace(2)
            for _ in range(10):
                left = ev.build_algebra(
                    graph, space, random_positive_measure(rng, graph.vertex_count, 2)
                )
                right = ev.build_algebra(
                    graph, space, random_positive_measure(rng, graph.vertex_count, 2)
                )
                report = ev.iso_check(left, right)
                assert report.support_equal
                assert report.skeleton_equal
                # the theorem itself: row keys and levels read off both matrices agree
                assert oracle_iso(left, right) == report
                verdicts.append(report.verdict)
        assert verdicts.count("isomorphic-per-theorem") == 50


def random_element(rng, dimension, max_support=6):
    size = int(rng.integers(1, max_support + 1))
    indices = rng.choice(dimension, size=size, replace=False)
    return AlgebraElement({int(i): float(rng.uniform(-2, 2)) for i in indices})


def test_criterion_06_algebra_axioms():
    with criterion(6, "axioms on random sparse elements", 5.0):
        algebra = build_reference({(0, 1)})
        rng = np.random.default_rng(43)
        elements = [random_element(rng, algebra.dimension) for _ in range(100)]
        for x, y in zip(elements, elements[1:] + elements[:1]):
            xy = algebra.multiply(x, y)
            yx = algebra.multiply(y, x)
            assert xy.distance(yx) == 0.0
            left = algebra.multiply(x, algebra.multiply(y, x))
            right = algebra.multiply(algebra.multiply(x, y), x)
            assert left.distance(right) < 1e-10
        x = algebra.generator(phi(1, 2))
        z = algebra.generator(phi(1, 1))
        witness_left = algebra.multiply(algebra.multiply(x, x), z)
        witness_right = algebra.multiply(x, algebra.multiply(x, z))
        assert witness_left.distance(witness_right) > 1e-6
        for i in range(0, algebra.dimension, 3):
            for j in range(1, algebra.dimension, 4):
                if i != j:
                    product = algebra.multiply(algebra.generator(i), algebra.generator(j))
                    assert product.is_zero()


def test_criterion_07_consistency_gaps():
    with criterion(7, "finite-volume consistency gaps", 5.0):
        path3 = ev.Graph(3, frozenset({(0, 1), (1, 2)}))
        grid22 = ev.Graph(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
        for graph in (path3, grid22):
            for beta in (0.5, 1.0, 2.0):
                h = ev.potts_hamiltonian(graph, 2, 1.0, beta)
                for size in (1, 2):
                    for domain in itertools.combinations(range(graph.vertex_count), size):
                        for states in itertools.product((1, 2), repeat=size):
                            result = ev.dlr_check(h, dict(zip(domain, states)))
                            assert result.gap < 1e-10


def test_criterion_08_low_temperature_trend():
    with criterion(8, "low-temperature coefficient trend", 60.0):
        scheme = VolumeScheme(1, (1, 2, 3, 4, 5, 6), 2, 1.0, 5.0)
        const1, const2 = TailCell(1), TailCell(2)
        nearly1 = TailCell(1, ((0, 2),))
        diag = ev.coefficient_sequence(scheme, (const1, const1), (const1, const1))
        assert abs(diag.values[-1] - 1.0) < 1e-3
        settled = ev.coefficient_sequence(scheme, (const1, nearly1), (const1, const1))
        assert abs(settled.values[-1] - 1.0) < 1e-3
        cross = ev.coefficient_sequence(scheme, (const1, const1), (const2, const2))
        assert cross.values[-1] < 1e-3
        mixed = ev.coefficient_sequence(scheme, (const1, nearly1), (const2, const2))
        assert mixed.values[-1] < 1e-3
        report = ev.low_temp_limit_algebras(1, 3, [1, 2], [1.0, 5.0])
        assert report["distinct_generators"]
        box = VolumeScheme(1, (2,), 3, 1.0, 5.0).box(2)
        candidates = {
            PairCell(oracle_restrict(TailCell(i), box, 3), oracle_restrict(TailCell(i), box, 3)).index
            for i in (1, 2, 3)
        }
        assert len(candidates) == 3


def test_criterion_09_symmetry_collapse():
    with criterion(9, "symmetry collapse of the edgeless algebra", 1.0):
        graph = ev.Graph(2)
        space = ev.StateSpace(2, ("a", "A"))
        p1, p2, p4 = 0.1, 0.25, 0.4
        algebra = ev.build_algebra(graph, space, symmetric_measure(p1, p2, p4))
        table = ev.collapse_by_symmetry(algebra, remark_classes())
        unit_rows = {0: {0: 1.0}, 1: {1: 1.0}, 5: {5: 1.0}}
        for cid, expected in unit_rows.items():
            got = table.rows[cid]
            assert set(got) == set(expected)
            for key, value in expected.items():
                assert abs(got[key] - value) < 1e-12
        s = (p2 + p4) ** 2
        expected3 = {0: p4**2 / s, 2: 2 * p2 * p4 / s, 5: p2**2 / s}
        t = (p1 + p2) ** 2
        expected4 = {1: p1**2 / t, 3: 2 * p1 * p2 / t, 5: p2**2 / t}
        expected5 = {
            0: p4**2,
            1: p1**2,
            2: 4 * p2 * p4,
            3: 4 * p1 * p2,
            4: 2 * p1 * p4,
            5: 4 * p2**2,
        }
        for cid, expected in ((2, expected3), (3, expected4), (4, expected5)):
            got = table.rows[cid]
            assert set(got) == set(expected)
            for key, value in expected.items():
                assert abs(got[key] - value) < 1e-12
        asymmetric = ev.build_algebra(graph, space, reference_measure_for())
        with pytest.raises(ValidationError):
            ev.collapse_by_symmetry(asymmetric, remark_classes())


def test_criterion_10_descent_chains():
    with criterion(10, "descent chains across the sweep", 60.0):
        for algebra, supports in small_instances():
            kn = algebra.kn
            for sigma in range(algebra.dimension):
                chain = ev.descent_chain(algebra, sigma)
                indices = [p.index for p in chain.elements]
                assert 1 <= len(indices) <= len(supports[sigma])
                assert indices[0] in supports[sigma]
                previous = supports[sigma]
                for i, tau in enumerate(indices):
                    assert tau in previous
                    current = supports[tau]
                    assert current <= previous
                    if i < len(indices) - 1:
                        assert len(current) > 2
                    previous = current
                last = indices[-1]
                a, b = divmod(last, kn)
                assert a == b
                assert supports[last] == frozenset({last})
