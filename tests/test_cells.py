
import pytest
from hypothesis import given, strategies as st

import evoalg as ev
from evoalg.cells import Cell, PairCell
from evoalg.errors import ValidationError

from conftest import all_small_instances, brute_children, cell, pair, pair_children, state_of


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_cell_index_roundtrip(n, k, data):
    index = data.draw(st.integers(0, k**n - 1))
    c = Cell.from_index(index, n, k)
    assert c.index == index
    assert Cell(c.digits, k).index == index


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_pair_index_roundtrip(n, k, data):
    index = data.draw(st.integers(0, k ** (2 * n) - 1))
    p = PairCell.from_index(index, n, k)
    assert p.index == index


def test_pair_order_matters():
    assert pair((1, 2), (2, 1)) != pair((2, 1), (1, 2))
    assert pair((1, 2), (2, 1)).index != pair((2, 1), (1, 2)).index


def test_children_of_diagonal_pair(edge_graph):
    parts = ev.components(edge_graph)
    theta = pair((1, 2), (1, 2))
    assert ev.children_set(theta, parts) == {cell((1, 2))}


def test_children_on_connected_graph(edge_graph):
    parts = ev.components(edge_graph)
    theta = pair((1, 1), (1, 2))
    kids = ev.children_set(theta, parts)
    assert kids == {cell((1, 1)), cell((1, 2))}
    assert kids == brute_children(theta, parts, 2)


def test_children_span_everything_when_components_split(free_graph):
    parts = ev.components(free_graph)
    theta = pair((1, 1), (2, 2))
    kids = ev.children_set(theta, parts)
    assert len(kids) == 4
    assert kids == brute_children(theta, parts, 2)


def test_pair_children_of_diagonal(edge_graph):
    parts = ev.components(edge_graph)
    sigma = pair((2, 1), (2, 1))
    assert pair_children(sigma, parts) == {sigma}


def test_pair_children_on_connected_graph(edge_graph):
    parts = ev.components(edge_graph)
    sigma = pair((1, 1), (1, 2))
    expected = {
        pair((1, 1), (1, 1)),
        pair((1, 1), (1, 2)),
        pair((1, 2), (1, 1)),
        pair((1, 2), (1, 2)),
    }
    assert pair_children(sigma, parts) == expected


def test_membership_and_size_law_exhaustive():
    for graph, space in all_small_instances(max_n=2):
        parts = ev.components(graph)
        n, k = graph.vertex_count, space.k
        for index in range(k ** (2 * n)):
            sigma = PairCell.from_index(index, n, k)
            kids = pair_children(sigma, parts)
            assert sigma in kids
            disagreements = sum(
                1
                for block in parts
                if any(sigma.first.digits[v] != sigma.second.digits[v] for v in block)
            )
            assert len(kids) == 4**disagreements


def test_nested_children_exhaustive():
    # downward closure and mutual-containment equality on tiny instances
    for graph, space in all_small_instances(max_n=2):
        parts = ev.components(graph)
        n, k = graph.vertex_count, space.k
        spaces = {}
        for index in range(k ** (2 * n)):
            sigma = PairCell.from_index(index, n, k)
            spaces[index] = pair_children(sigma, parts)
        for index, kids in spaces.items():
            for tau in kids:
                assert spaces[tau.index] <= kids
        for a, kids_a in spaces.items():
            for b, kids_b in spaces.items():
                in_each_other = (
                    PairCell.from_index(b, n, k) in kids_a
                    and PairCell.from_index(a, n, k) in kids_b
                )
                if in_each_other:
                    assert kids_a == kids_b


def test_singleton_children_iff_diagonal():
    for graph, space in all_small_instances(max_n=2):
        parts = ev.components(graph)
        n, k = graph.vertex_count, space.k
        for index in range(k ** (2 * n)):
            sigma = PairCell.from_index(index, n, k)
            singleton = len(pair_children(sigma, parts)) == 1
            assert singleton == (sigma.first == sigma.second)


def test_state_space_from_json():
    space = ev.state_space_from_json({"states": ["a", "A"]})
    assert space.k == 2
    assert space.label_of(2) == "A"
    assert state_of(space, "a") == 1
    with pytest.raises(ValidationError):
        ev.state_space_from_json({"states": []})
    with pytest.raises(ValidationError):
        state_of(space, "b")


def test_cell_labels(two_states):
    assert cell((1, 2)).label(two_states) == "(a,A)"
    assert pair((1, 2), (2, 1)).label(two_states) == "((a,A),(A,a))"
