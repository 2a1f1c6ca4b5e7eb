import functools

import pytest
from hypothesis import given, settings, strategies as st

import evoalg as ev
from conftest import lattice_sites, loop_lattice_box
from evoalg import graphs
from evoalg.errors import BudgetError, ValidationError


def test_single_edge_is_one_component():
    g = ev.Graph(2, frozenset({(0, 1)}))
    assert ev.components(g) == ((0, 1),)


def test_edgeless_pair_splits():
    g = ev.Graph(2)
    assert ev.components(g) == ((0,), (1,))


def test_singleton_graph():
    g = ev.Graph(1)
    assert ev.components(g) == ((0,),)


def test_components_ordered_by_smallest_label():
    g = ev.Graph(5, frozenset({(3, 4), (1, 2)}))
    assert ev.components(g) == ((0,), (1, 2), (3, 4))


def test_connected_graph_has_one_block():
    g = ev.Graph(3, frozenset({(0, 1), (1, 2)}))
    assert len(ev.components(g)) == 1


@given(st.integers(2, 6), st.data())
def test_partition_structure_is_relabeling_invariant(n, data):
    import itertools

    all_pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(all_pairs)))
    g = ev.Graph(n, frozenset(edges))
    perm = data.draw(st.permutations(range(n)))
    relabeled = ev.Graph(n, frozenset((perm[x], perm[y]) for x, y in edges))
    original = {frozenset(perm[v] for v in blk) for blk in ev.components(g)}
    mapped = {frozenset(blk) for blk in ev.components(relabeled)}
    assert original == mapped


def test_graph_rejects_loops_and_bad_endpoints():
    with pytest.raises(ValidationError):
        ev.Graph(2, frozenset({(1, 1)}))
    with pytest.raises(ValidationError):
        ev.Graph(2, frozenset({(0, 2)}))


@pytest.mark.parametrize(
    "d,n,vertices,edges",
    [(1, 0, 1, 0), (1, 1, 3, 2), (2, 1, 9, 12), (1, 3, 7, 6), (2, 0, 1, 0)],
)
def test_lattice_box_counts(d, n, vertices, edges):
    g = ev.LatticeBox(d, n).graph
    assert g.vertex_count == vertices
    assert len(g.edges) == edges


@pytest.mark.parametrize("d,n", [(1, 0), (1, 4), (2, 1), (2, 2)])
def test_lattice_box_connected(d, n):
    assert len(ev.components(ev.LatticeBox(d, n).graph)) == 1


def test_lattice_box_rejects_other_dimensions():
    with pytest.raises(ValidationError):
        ev.LatticeBox(3, 1)
    with pytest.raises(ValidationError):
        ev.LatticeBox(1, -1)


def test_wrong_length_site_is_echoed_cut_short():
    """Up to eight coordinates print as the tuple does; a longer site shows three and its coordinate count."""
    box = ev.LatticeBox(1, 1)
    for site, text in [((), "()"), ((0, 0), "(0, 0)"), (tuple(range(8)), str(tuple(range(8)))),
                       ((7, -(10**4000), 0, 0, 0, 0, 0, 0, 0), "(7, int -1" + "0" * 58 + "…, 0, … 9 coordinates)"),
                       ((0,) * 2000, "(0, 0, 0, … 2000 coordinates)")]:
        with pytest.raises(ValidationError) as info:
            box.site_index(site)
        assert str(info.value) == f"coordinate {text} does not match dimension 1"


def test_boxes_nest():
    small = set(lattice_sites(ev.LatticeBox(2, 1)))
    big = set(lattice_sites(ev.LatticeBox(2, 2)))
    assert small < big


def test_box_edges_are_unit_steps():
    box = ev.LatticeBox(2, 1)
    sites = lattice_sites(box)
    for x, y in box.graph.edges:
        cx, cy = sites[x], sites[y]
        assert sum(abs(a - b) for a, b in zip(cx, cy)) == 1


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", range(5))
def test_lattice_box_matches_loop_oracle(d, n):
    sites, index, graph = loop_lattice_box(d, n)
    box = ev.LatticeBox(d, n)
    assert box.site_count == len(sites)
    assert all(box.site_index(c) == i for c, i in index.items())
    assert lattice_sites(box) == sites
    assert box.graph == graph


@functools.cache
def cached_loop_box(dimension, radius):
    return loop_lattice_box(dimension, radius)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edges_meeting_are_the_loop_graph_edges_at_the_sites(data):
    """One neighbour rule: the edges with an end in any site set, the run width and the edge count of the loop box."""
    d, n = data.draw(st.sampled_from((1, 2))), data.draw(st.integers(0, 6))
    sites, _, graph = cached_loop_box(d, n)
    box = ev.LatticeBox(d, n)
    chosen = data.draw(st.sets(st.integers(0, len(sites) - 1), max_size=12))
    assert box.edges_meeting(chosen) == {e for e in graph.edges if chosen & set(e)}
    assert box.edge_count == len(graph.edges)
    assert box.width == sum(s[0] == sites[0][0] for s in sites)  # a run: the sites of one first coordinate


def test_lattice_box_is_built_only_when_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "Graph", refuse)
    box = ev.LatticeBox(2, 10**6)
    assert box.site_count == (2 * 10**6 + 1) ** 2
    assert box.site_index((-10**6, -10**6)) == 0
    assert box.site_index((10**6, 10**6)) == box.site_count - 1
    assert box.site_index((0, 1)) == 10**6 * (2 * 10**6 + 1) + 10**6 + 1
    assert (box.width, box.edge_count) == (2 * 10**6 + 1, 4 * 10**6 * (2 * 10**6 + 1))
    assert "graph" not in vars(box)


@pytest.mark.parametrize(
    "d, n, count",
    [(2, 10**6, "4000004000001"), (1, 500000, "1000001"), (2, 500, "1002001"), (2, 10**30, "10\\^20 or more")],
    ids=["2d-radius-10^6", "1d-one-site-over", "2d-just-over", "2d-radius-10^30"],
)
@pytest.mark.parametrize("read", ["graph"])
def test_lattice_box_budget_comes_before_any_site_or_edge(monkeypatch, d, n, count, read):
    def refuse(*args, **kwargs):
        raise AssertionError("the box was built")

    monkeypatch.setattr(graphs, "Graph", refuse)
    monkeypatch.setattr(graphs.LatticeBox, "edges_meeting", refuse)
    # range too, so a box read without the check fails at once instead of enumerating its sites
    monkeypatch.setattr(graphs, "range", refuse, raising=False)
    with pytest.raises(BudgetError, match=rf"^lattice box: \(2r\+1\)\^{d} = {count} sites "
                                          r"exceed the enumeration budget of 1000000$"):
        getattr(ev.LatticeBox(d, n), read)


def test_lattice_box_sites_within_budget_pass_the_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the box was built")

    monkeypatch.setattr(graphs.LatticeBox, "edges_meeting", refuse)
    # 999,999 sites, the largest box within the budget; the refusal shows the check passed
    with pytest.raises(AssertionError, match="the box was built"):
        ev.LatticeBox(1, 499999).graph


def test_graph_from_json_roundtrip():
    g, labels = ev.graph_from_json(
        {"vertices": ["u", "v", "w"], "edges": [["u", "v"], ["v", "w"]]}
    )
    assert labels == ("u", "v", "w")
    assert g.edges == frozenset({(0, 1), (1, 2)})


@pytest.mark.parametrize(
    "descriptor",
    [
        {"vertices": ["u", "v"], "edges": [["u", "u"]]},
        {"vertices": ["u", "v"], "edges": [["u", "v"], ["v", "u"]]},
        {"vertices": ["u", "v"], "edges": [["u", "x"]]},
        {"vertices": [], "edges": []},
        {"vertices": ["u", "u"], "edges": []},
    ],
)
def test_graph_from_json_rejects_bad_input(descriptor):
    with pytest.raises(ValidationError):
        ev.graph_from_json(descriptor)
