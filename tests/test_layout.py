"""One row-class layout per graph and state space, shared by the algebras of every measure on them.

``EvolutionAlgebra.with_measure`` makes another measure's algebra over the layout object of a built one.  The
algebras it makes equal fresh ``build_algebra`` ones bit for bit, it refuses a measure of another ``n`` or ``k``,
and it peaks below the layout it does not build again.  The layout's sizes follow the closed forms of the structure
theorem, read here off a layout built with no measure.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evoalg as ev
from evoalg.errors import ValidationError

from conftest import random_positive_measure


def hexes(values) -> list:
    return [float.hex(v) for v in np.asarray(values, dtype=float).tolist()]


def same_chunks(left, right) -> bool:
    """Whether two matrices give the same ``entry_chunks``: indices by value, coefficients by ``float.hex``."""
    pairs = list(itertools.zip_longest(left.entry_chunks(), right.entry_chunks()))
    return all(a is not None and b is not None and np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
               and hexes(a[2]) == hexes(b[2]) for a, b in pairs)


@st.composite
def graphs(draw, max_n=4, ks=(1, 2, 3), max_dimension=4096):
    """A graph with random edges and a state space, ``k**(2n)`` within ``max_dimension``."""
    k = draw(st.sampled_from(ks))
    n = draw(st.integers(1, max(m for m in range(1, max_n + 1) if k ** (2 * m) <= max_dimension)))
    edges = frozenset(p for p in itertools.combinations(range(n), 2) if draw(st.booleans()))
    return ev.Graph(n, edges), ev.StateSpace(k)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.integers(0, 2**32 - 1))
def test_an_algebra_over_a_shared_layout_equals_a_fresh_build(case, seed):
    """Two random measures on one graph: the second's algebra over the first's layout object holds the weights, the
    entries and the products of a fresh ``build_algebra``, by ``float.hex``."""
    graph, space = case
    n, k = graph.vertex_count, space.k
    rng = np.random.default_rng(seed)
    first, second = (random_positive_measure(rng, n, k) for _ in range(2))
    reference = ev.build_algebra(graph, space, first)
    shared, fresh = reference.with_measure(second), ev.build_algebra(graph, space, second)
    assert shared.matrix.layout is reference.matrix.layout
    assert shared.graph is graph and shared.space is space and shared.measure is second
    assert [hexes(w.ravel()) for w in shared.matrix._weights] == [hexes(w.ravel()) for w in fresh.matrix._weights]
    assert same_chunks(shared.matrix, fresh.matrix)
    gens = rng.choice(shared.dimension, size=min(shared.dimension, 12), replace=False)
    x = ev.AlgebraElement(dict(zip(gens.tolist(), rng.uniform(-1.0, 1.0, size=len(gens)).tolist())))
    y = ev.AlgebraElement(dict(zip(gens[::2].tolist(), rng.uniform(-1.0, 1.0, size=len(gens[::2])).tolist())))
    for got, want in ((shared.square(x), fresh.square(x)), (shared.multiply(x, y), fresh.multiply(x, y))):
        assert list(got.coeffs) == list(want.coeffs)
        assert hexes(list(got.coeffs.values())) == hexes(list(want.coeffs.values()))


@pytest.mark.parametrize("n, k", [(3, 2), (2, 3), (1, 4), (2, 1)])
def test_a_measure_of_another_n_or_k_is_refused_as_build_algebra_refuses_it(n, k):
    """Two vertices, two states, against measures of other ``n`` or ``k``, one of them with the same ``k**n`` cells."""
    graph, space = ev.Graph(2, frozenset({(0, 1)})), ev.StateSpace(2)
    algebra = ev.build_algebra(graph, space, ev.from_weights(np.ones(4), 2, 2))
    other = ev.from_weights(np.ones(k**n), n, k)
    with pytest.raises(ValidationError) as built:
        ev.build_algebra(graph, space, other)
    with pytest.raises(ValidationError) as shared:
        algebra.with_measure(other)
    assert str(shared.value) == str(built.value) == "measure does not match the graph and state space"


def test_a_second_measure_peaks_below_the_layout():
    """Path n=8, k=2, 65,536 generators: the algebra of a second measure over a built layout makes only the weights,
    and peaks below the layout's own build (`tracemalloc`: 0.81 against 2.39 MiB)."""
    graph, space = ev.Graph(8, frozenset((v, v + 1) for v in range(7))), ev.StateSpace(2)
    rng = np.random.default_rng(8)
    algebra = ev.build_algebra(graph, space, random_positive_measure(rng, 8, 2))
    second = random_positive_measure(rng, 8, 2)
    peaks = []
    for make in (lambda: ev.RowClassLayout(graph, space), lambda: algebra.with_measure(second)):
        tracemalloc.start()
        try:
            made = make()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert made.matrix.layout is algebra.matrix.layout
    assert peaks[1] < peaks[0], f"{peaks[1] / 2**20:.2f} MiB over the layout against {peaks[0] / 2**20:.2f} MiB"


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8, ks=(1, 2, 3, 4), max_dimension=65536))
def test_layout_sizes_follow_the_closed_forms(case):
    """With ``m = k**|b|`` cells on each component ``b``: ``prod_b (m + m(m-1)/2)`` row classes,
    ``prod_b (m + 2m(m-1))`` class entries (what the collapse reads), ``prod_b m(4m-3)`` nonzeros and
    ``prod_b (m + 3m(m-1)/2) - prod_b (m + m(m-1)/2)`` hierarchy flows."""
    graph, space = case
    m = [space.k ** len(b) for b in ev.components(graph)]
    classes = math.prod(c + c * (c - 1) // 2 for c in m)
    layout = ev.RowClassLayout(graph, space)
    assert len(layout.row_level) == classes
    assert int((4**layout.row_level).sum()) == math.prod(c + 2 * c * (c - 1) for c in m)
    assert int((4**layout.row_level[layout.gen_row]).sum()) == math.prod(c * (4 * c - 3) for c in m)
    assert math.prod(c * (4 * c - 3) for c in m) == ev.nonzero_count(graph, space.k)
    n = graph.vertex_count
    algebra = ev.build_algebra(graph, space, ev.from_weights(np.ones(space.k**n), n, space.k))
    flows = ev.build_hierarchy(algebra).flow_source
    assert len(flows) == math.prod(c + 3 * c * (c - 1) // 2 for c in m) - classes
