
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import evoalg as ev
from evoalg import structure
from evoalg.errors import BudgetError, ValidationError

from conftest import (
    block_of,
    display_cells,
    hierarchy_flows,
    measure_from_state_weights,
    oracle_collapse,
    pair_children,
    random_positive_measure,
    relabel_pairs,
    uniform_measure,
)

from test_algebra import phi


def test_generated_by_diagonal_is_itself(edge_algebra):
    sub = ev.generated_subalgebra(edge_algebra, [phi(2, 2)])
    assert sub.basis == frozenset({phi(2, 2).index})
    assert sub.dimension == 1


def test_generated_by_transit_pair(edge_algebra):
    sub = ev.generated_subalgebra(edge_algebra, [phi(1, 2)])
    expected = {phi(1, 1).index, phi(1, 2).index, phi(2, 1).index, phi(2, 2).index}
    assert sub.basis == frozenset(expected)
    assert sub.dimension == 4


def test_generated_spans_everything_on_split_components(free_algebra):
    sub = ev.generated_subalgebra(free_algebra, [phi(1, 4)])
    assert sub.dimension == 16


def test_precedes_is_reflexive(edge_algebra):
    for index in range(edge_algebra.dimension):
        assert ev.precedes(edge_algebra, index, index)


def test_precedes_examples(edge_algebra):
    assert ev.precedes(edge_algebra, phi(1, 1), phi(1, 2))
    assert not ev.precedes(edge_algebra, phi(3, 3), phi(1, 2))


def test_precedes_matches_children_membership(edge_algebra):
    parts = ev.components(edge_algebra.graph)
    for s in range(edge_algebra.dimension):
        sigma = edge_algebra.pair_from_index(s)
        kids = {p.index for p in pair_children(sigma, parts)}
        for t in range(edge_algebra.dimension):
            assert ev.precedes(edge_algebra, t, s) == (t in kids)


def test_descent_chain_of_diagonal(edge_algebra):
    chain = ev.descent_chain(edge_algebra, phi(2, 2))
    assert chain.elements == (phi(2, 2),)


def test_descent_chain_on_connected_graph(edge_algebra):
    chain = ev.descent_chain(edge_algebra, phi(1, 2))
    assert chain.elements == (phi(1, 1),)


def test_descent_chain_on_split_components(free_algebra):
    chain = ev.descent_chain(free_algebra, phi(1, 4))
    assert len(chain) == 2
    last = chain.elements[-1]
    assert last.first == last.second


def test_hierarchy_two_levels_on_connected_graph(edge_algebra):
    hierarchy = ev.build_hierarchy(edge_algebra)
    assert hierarchy.level_count == 2
    assert len(hierarchy.levels[0]) == 4
    assert len(hierarchy.levels[1]) == 6
    assert all(len(block) == 1 for block in hierarchy.levels[0])
    assert all(len(block) == 2 for block in hierarchy.levels[1])


def test_hierarchy_three_levels_on_split_components(free_algebra):
    hierarchy = ev.build_hierarchy(free_algebra)
    assert hierarchy.level_count == 3
    assert len(hierarchy.levels[1]) == 4
    top = hierarchy.levels[2]
    assert len(top) == 1
    expected = {phi(1, 4).index, phi(4, 1).index, phi(2, 3).index, phi(3, 2).index}
    assert set(top[0]) == expected


def test_hierarchy_trivial_instance():
    graph = ev.Graph(1)
    space = ev.StateSpace(1)
    algebra = ev.build_algebra(graph, space, uniform_measure(1, 1))
    hierarchy = ev.build_hierarchy(algebra)
    assert hierarchy.level_count == 1
    assert hierarchy.levels == (((0,),),)


def test_flows_point_strictly_down(edge_algebra, free_algebra):
    for algebra in (edge_algebra, free_algebra):
        hierarchy = ev.build_hierarchy(algebra)
        assert hierarchy_flows(hierarchy)
        for (src_lvl, _), (dst_lvl, _) in hierarchy_flows(hierarchy):
            assert dst_lvl < src_lvl


def test_each_transit_block_feeds_two_singletons(edge_algebra):
    hierarchy = ev.build_hierarchy(edge_algebra)
    for pos, block in enumerate(hierarchy.levels[1]):
        targets = [dst for src, dst in hierarchy_flows(hierarchy) if src == (1, pos)]
        assert len(targets) == 2
        i, j = divmod(block[0], edge_algebra.kn)
        expected = {
            block_of(hierarchy, i * edge_algebra.kn + i),
            block_of(hierarchy, j * edge_algebra.kn + j),
        }
        assert set(targets) == expected


@pytest.mark.parametrize("index", [-1, 16, 10**6])
def test_block_of_rejects_generator_out_of_range(edge_algebra, index):
    hierarchy = ev.build_hierarchy(edge_algebra)
    with pytest.raises(ValidationError, match=f"generator {index} not present"):
        block_of(hierarchy, index)


@pytest.mark.parametrize("index", [1.0, True, np.float64(1.0), "1", None])
def test_block_of_rejects_non_integer_generators(edge_algebra, index):
    hierarchy = ev.build_hierarchy(edge_algebra)
    assert block_of(hierarchy, np.int64(1)) == block_of(hierarchy, 1)
    with pytest.raises(ValidationError, match="generator must be an integer"):
        block_of(hierarchy, index)


def test_every_generator_in_exactly_one_block(free_algebra):
    hierarchy = ev.build_hierarchy(free_algebra)
    seen = [g for blocks in hierarchy.levels for block in blocks for g in block]
    assert sorted(seen) == list(range(free_algebra.dimension))


@pytest.mark.parametrize(
    "n,k,edges",
    [
        (1, 2, set()),
        (2, 2, {(0, 1)}),
        (1, 3, set()),
        (2, 3, {(0, 1)}),
        (3, 2, {(0, 1), (1, 2)}),
    ],
)
def test_structure_counts_formulas(n, k, edges):
    graph = ev.Graph(n, frozenset(edges))
    space = ev.StateSpace(k)
    rng = np.random.default_rng(n * 10 + k)
    algebra = ev.build_algebra(graph, space, random_positive_measure(rng, n, k))
    counts = ev.structure_counts(algebra)
    kn = k**n
    assert counts == ev.StructureCounts(kn * kn, kn, kn * (kn - 1) // 2)


def test_structure_counts_rejects_disconnected(free_algebra):
    with pytest.raises(ValidationError):
        ev.structure_counts(free_algebra)


def test_counts_match_generator_closures(edge_algebra):
    closures = {
        ev.generated_subalgebra(edge_algebra, [index]).basis
        for index in range(edge_algebra.dimension)
    }
    assert {len(c) for c in closures} == {1, 4}
    counts = ev.structure_counts(edge_algebra)
    assert sum(1 for c in closures if len(c) == 1) == counts.one_dimensional
    assert sum(1 for c in closures if len(c) == 4) == counts.four_dimensional


def test_iso_check_same_measure(edge_graph, two_states, reference_measure):
    left = ev.build_algebra(edge_graph, two_states, reference_measure)
    right = ev.build_algebra(edge_graph, two_states, reference_measure)
    report = ev.iso_check(left, right)
    assert report.support_equal and report.skeleton_equal
    assert report.verdict == "isomorphic-per-theorem"


def test_iso_check_random_measures(edge_graph, two_states):
    rng = np.random.default_rng(23)
    for _ in range(10):
        left = ev.build_algebra(edge_graph, two_states, random_positive_measure(rng, 2, 2))
        right = ev.build_algebra(edge_graph, two_states, random_positive_measure(rng, 2, 2))
        assert ev.iso_check(left, right).verdict == "isomorphic-per-theorem"


def test_iso_check_rejects_different_graphs(edge_algebra, free_algebra):
    with pytest.raises(ValidationError):
        ev.iso_check(edge_algebra, free_algebra)


def test_iso_check_rejects_different_state_spaces(edge_graph, reference_measure):
    left = ev.build_algebra(edge_graph, ev.StateSpace(2, ("a", "A")), reference_measure)
    right = ev.build_algebra(edge_graph, ev.StateSpace(2, ("x", "y")), reference_measure)
    with pytest.raises(ValidationError):
        ev.iso_check(left, right)


def remark_classes():
    """The six classes merging swapped pairs and the two middle cells."""
    return [
        [phi(4, 4)],
        [phi(1, 1)],
        [phi(2, 4), phi(4, 2), phi(3, 4), phi(4, 3)],
        [phi(1, 2), phi(2, 1), phi(1, 3), phi(3, 1)],
        [phi(1, 4), phi(4, 1)],
        [phi(2, 2), phi(3, 3), phi(2, 3), phi(3, 2)],
    ]


def symmetric_measure(p1=0.1, p2=0.25, p4=0.4):
    cells = display_cells(2, 2)
    weights = dict(zip((c.states for c in cells), (p1, p2, p2, p4)))
    return measure_from_state_weights(weights, 2, 2)


def test_collapse_reproduces_reduced_relations(free_graph, two_states):
    p1, p2, p4 = 0.1, 0.25, 0.4
    algebra = ev.build_algebra(free_graph, two_states, symmetric_measure(p1, p2, p4))
    table = ev.collapse_by_symmetry(algebra, remark_classes())
    assert table.rows[0] == {0: pytest.approx(1.0)}
    assert table.rows[1] == {1: pytest.approx(1.0)}
    assert table.rows[5] == {5: pytest.approx(1.0)}
    s = (p2 + p4) ** 2
    assert table.rows[2][0] == pytest.approx(p4**2 / s, abs=1e-12)
    assert table.rows[2][2] == pytest.approx(2 * p2 * p4 / s, abs=1e-12)
    assert table.rows[2][5] == pytest.approx(p2**2 / s, abs=1e-12)
    t = (p1 + p2) ** 2
    assert table.rows[3][1] == pytest.approx(p1**2 / t, abs=1e-12)
    assert table.rows[3][3] == pytest.approx(2 * p1 * p2 / t, abs=1e-12)
    assert table.rows[3][5] == pytest.approx(p2**2 / t, abs=1e-12)
    assert table.rows[4][0] == pytest.approx(p4**2, abs=1e-12)
    assert table.rows[4][1] == pytest.approx(p1**2, abs=1e-12)
    assert table.rows[4][2] == pytest.approx(4 * p2 * p4, abs=1e-12)
    assert table.rows[4][3] == pytest.approx(4 * p1 * p2, abs=1e-12)
    assert table.rows[4][4] == pytest.approx(2 * p1 * p4, abs=1e-12)
    assert table.rows[4][5] == pytest.approx(4 * p2**2, abs=1e-12)


def test_collapse_trivial_partition(edge_algebra):
    classes = [[index] for index in range(edge_algebra.dimension)]
    table = ev.collapse_by_symmetry(edge_algebra, classes)
    for index in range(edge_algebra.dimension):
        assert table.rows[index] == edge_algebra.row(index)


def test_collapse_rejected_without_symmetry(free_algebra):
    # reference weights break the symmetry the classes rely on
    with pytest.raises(ValidationError):
        ev.collapse_by_symmetry(free_algebra, remark_classes())


def test_collapse_requires_partition(edge_algebra):
    with pytest.raises(ValidationError):
        ev.collapse_by_symmetry(edge_algebra, [[0, 1]])
    with pytest.raises(ValidationError):
        classes = [[index] for index in range(edge_algebra.dimension)]
        ev.collapse_by_symmetry(edge_algebra, classes + [[0]])


def test_collapse_rejects_a_class_listing_a_generator_twice(edge_algebra):
    classes = [[0, 0]] + [[index] for index in range(1, edge_algebra.dimension)]
    with pytest.raises(ValidationError, match="list each generator once"):
        ev.collapse_by_symmetry(edge_algebra, classes)


def test_collapse_budget_comes_before_any_class_is_read(monkeypatch):
    """Edgeless n=9, k=2, built past the dimension budget: 6^9 = 10,077,696 row-class entries over 262,144
    generators, the smallest edgeless two-state algebra whose collapse the budget rejects."""
    graph, space, mu = ev.Graph(9), ev.StateSpace(2), uniform_measure(9, 2)
    algebra = ev.EvolutionAlgebra(graph, space, mu, ev.HeredityMatrix(ev.RowClassLayout(graph, space), mu))
    every = [range(algebra.dimension)]
    monkeypatch.setattr(ev.EvolutionAlgebra, "pair_index", lambda *args: pytest.fail("a class was read"))
    with pytest.raises(BudgetError, match=r"^collapse: prod_b k\^\|b\|\(2k\^\|b\|-1\) = 10077696 row-class entries "
                                          r"exceed the nonzero budget of 10000000$"):
        ev.collapse_by_symmetry(algebra, every)


def test_collapse_table_budget_comes_before_any_row_is_made(monkeypatch):
    """One generator a class makes the reduced table the whole matrix: 10^8 entries at edgeless n=8, k=2, whose
    1,679,616 row-class entries pass.  Here edgeless n=6, with the budget at 10^5: 46,656 row-class entries pass, and
    the table's 10^6 entries are rejected."""
    monkeypatch.setattr(structure, "NONZERO_BUDGET", 10**5)
    algebra = ev.build_algebra(ev.Graph(6), ev.StateSpace(2), uniform_measure(6, 2))
    singletons = [(g,) for g in range(algebra.dimension)]
    with pytest.raises(BudgetError, match=r"^collapse: reduced table = 1000000 entries exceed the nonzero budget "
                                          r"of 100000$"):
        ev.collapse_by_symmetry(algebra, singletons)


def row_class_partition(algebra):
    """The generators of each row class, ascending, classes in row-class order."""
    gen_row = algebra.matrix.layout.gen_row
    order = np.argsort(gen_row, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(gen_row[order])) + 1)


def test_edgeless_eight_collapses_by_row_class():
    """Edgeless n=8, k=2, the largest algebra ``build_algebra`` accepts: 6^8 = 1,679,616 row-class entries, within
    the budget, and 3^8 = 6,561 classes; a few rows are summed here from the generator's own row."""
    algebra = ev.build_algebra(ev.Graph(8), ev.StateSpace(2), random_positive_measure(np.random.default_rng(9), 8, 2))
    classes = row_class_partition(algebra)
    table = ev.collapse_by_symmetry(algebra, [c.tolist() for c in classes])
    assert len(table.rows) == 3**8
    class_of = algebra.matrix.layout.gen_row
    for cid in (0, 1, 255, 256, 3000, 6559, 6560):
        want = {}
        for j, v in algebra.row(int(classes[cid][0])).items():
            want[int(class_of[j])] = want.get(int(class_of[j]), 0.0) + v
        assert table.rows[cid] == dict(sorted(want.items()))


def test_path_of_eight_at_the_dimension_budget_still_collapses():
    """Path n=8, k=2: 65,536 generators and 256 * 1021 = 261,376 row entries, collapsed by row class."""
    path = ev.Graph(8, frozenset((v, v + 1) for v in range(7)))
    algebra = ev.build_algebra(path, ev.StateSpace(2), random_positive_measure(np.random.default_rng(8), 8, 2))
    classes = row_class_partition(algebra)
    table = ev.collapse_by_symmetry(algebra, [c.tolist() for c in classes])
    assert len(table.rows) == 256 + 256 * 255 // 2
    for cid, (members, row) in enumerate(zip(table.classes, table.rows)):
        assert members[0] == classes[cid][0]
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
        if len(members) == 1:  # a diagonal generator squares to itself
            assert row == {cid: 1.0}


def test_closure_equals_children_exhaustively():
    rng = np.random.default_rng(29)
    for edges in (set(), {(0, 1)}, {(0, 1), (1, 2)}):
        graph = ev.Graph(3, frozenset(edges))
        space = ev.StateSpace(2)
        parts = ev.components(graph)
        algebra = ev.build_algebra(graph, space, random_positive_measure(rng, 3, 2))
        for index in range(algebra.dimension):
            sigma = algebra.pair_from_index(index)
            kids = {p.index for p in pair_children(sigma, parts)}
            assert ev.generated_subalgebra(algebra, [index]).basis == frozenset(kids)


def test_descent_chain_nesting(free_algebra):
    parts = ev.components(free_algebra.graph)
    for index in range(free_algebra.dimension):
        chain = ev.descent_chain(free_algebra, index)
        sigma = free_algebra.pair_from_index(index)
        previous = pair_children(sigma, parts)
        assert len(chain) <= len(previous)
        for tau in chain.elements:
            current = pair_children(tau, parts)
            assert current <= previous
            previous = current
        assert len(previous) == 1


def orbit_classes(perms, dimension):
    """The orbits of the generators under the group the pair permutations ``perms`` generate, each ascending, by
    smallest member: every generator takes the smallest label among its images and preimages until none changes."""
    label = np.arange(dimension)
    steps = [p for perm in perms for p in (perm, np.argsort(perm))]
    while True:
        new = label
        for step in steps:
            new = np.minimum(new, new[step])
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return [c.tolist() for c in np.split(order, np.flatnonzero(np.diff(label[order])) + 1)]


def symmetry_perms(n, k, vertex_perm, state_perm):
    """The relabelings of ``vertex_perm`` and ``state_perm`` apart, and the swap of a pair's two cells."""
    kn = k**n
    return [relabel_pairs(n, k, vertex_perm, range(k)), relabel_pairs(n, k, range(n), state_perm),
            np.arange(kn * kn).reshape(kn, kn).T.ravel()]


@st.composite
def symmetric_scenarios(draw, max_n=4, max_dimension=4096):
    """``(n, k, edges, vertex_perm, state_perm)``: random edges closed under a random vertex permutation, which is then
    an automorphism of the graph, and a random state permutation; k=3 only within ``max_dimension`` generators."""
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from([2, 3] if 3 ** (2 * n) <= max_dimension else [2]))
    vertex_perm = draw(st.permutations(range(n)))
    edges = set()
    for x, y in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            while (x, y) not in edges:  # the edge's orbit under the vertex permutation
                edges.add((x, y))
                x, y = sorted((vertex_perm[x], vertex_perm[y]))
    return n, k, tuple(sorted(edges)), tuple(vertex_perm), tuple(draw(st.permutations(range(k))))


def symmetrized_weights(n, k, raw, vertex_perm, state_perm):
    """``raw`` averaged over each cell orbit of the group the two permutations generate: an invariant measure's
    weights, equal bit for bit within an orbit."""
    cells = [perm[:: k**n + 1] // k**n for perm in symmetry_perms(n, k, vertex_perm, state_perm)[:2]]
    orbits = orbit_classes(cells, k**n)
    weights = np.empty(k**n)
    for orbit in orbits:
        weights[orbit] = np.mean(raw[orbit])
    return weights


@st.composite
def collapse_cases(draw):
    """``((n, k, edges, raw), classes)``: a scenario of ``symmetric_scenarios``, raw weights that are random, drawn
    from two values or symmetrized, and a partition: the row classes, random unions of them, random splits of them
    or the orbits of the scenario's symmetries, listed in ascending or random order."""
    n, k, edges, vertex_perm, state_perm = draw(symmetric_scenarios())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = draw(st.sampled_from([
        rng.uniform(0.1, 1.0, size=k**n),
        rng.choice([1.0, 2.0], size=k**n),
        symmetrized_weights(n, k, rng.uniform(0.1, 1.0, size=k**n), vertex_perm, state_perm),
    ]))
    gen_row = ev.RowClassLayout(ev.Graph(n, frozenset(edges)), ev.StateSpace(k)).gen_row
    rows = gen_row.max() + 1
    label = draw(st.sampled_from([
        gen_row,
        rng.integers(0, draw(st.integers(1, 4)), size=rows)[gen_row],
        gen_row * 3 + rng.integers(0, draw(st.integers(1, 3)), size=len(gen_row)),
        None,
    ]))
    if label is None:
        classes = orbit_classes(symmetry_perms(n, k, vertex_perm, state_perm), k ** (2 * n))
    else:
        listed = rng.permutation(len(label)) if draw(st.booleans()) else np.arange(len(label))
        classes = {}
        for g in listed.tolist():
            classes.setdefault(int(label[g]), []).append(g)
        classes = list(classes.values())
    return (n, k, edges, tuple(raw.tolist())), classes


def collapse_outcome(collapse, case):
    """A collapse's classes, row keys and ``float.hex`` of every value, or its exception's type and message."""
    (n, k, edges, raw), classes = case
    algebra = ev.build_algebra(ev.Graph(n, frozenset(edges)), ev.StateSpace(k), ev.from_weights(np.array(raw), n, k))
    try:
        table = collapse(algebra, classes)
    except (ValidationError, BudgetError) as exc:
        return type(exc), str(exc)
    return table.classes, [[(j, v.hex()) for j, v in row.items()] for row in table.rows]


# one vertex, three states of weights 2, 1, 1, off-diagonal pairs in one class: the row classes {0,1} and {0,2}
# agree, and {1,2}, third in the pattern group, does not
@example(((1, 3, (), (2.0, 1.0, 1.0)), [[0, 4, 8], [1, 2, 3, 5, 6, 7]]))
@settings(max_examples=80, deadline=None)
@given(collapse_cases())
def test_collapse_matches_the_walk_over_every_member(case):
    assert collapse_outcome(ev.collapse_by_symmetry, case) == collapse_outcome(oracle_collapse, case)


@settings(max_examples=40, deadline=None)
@given(symmetric_scenarios(), st.integers(0, 2**32 - 1))
def test_orbits_of_a_symmetry_are_a_valid_collapse(scenario, seed):
    """Under a measure invariant under a graph automorphism and a state permutation, the orbits of the pair cells
    under the group they generate and the cell swap are accepted, with the table of the walk over every member."""
    n, k, edges, vertex_perm, state_perm = scenario
    raw = np.random.default_rng(seed).uniform(0.1, 1.0, size=k**n)
    weights = symmetrized_weights(n, k, raw, vertex_perm, state_perm)
    orbits = orbit_classes(symmetry_perms(n, k, vertex_perm, state_perm), k ** (2 * n))
    case = (n, k, edges, tuple(weights.tolist())), orbits
    got = collapse_outcome(ev.collapse_by_symmetry, case)
    assert got[0] == tuple(map(tuple, orbits))
    assert got == collapse_outcome(oracle_collapse, case)


def test_demo_two_vertex_swap_gives_seven_orbits():
    """Demo 02's graph (two vertices, no edge) under its vertex swap: seven orbits, accepted, and the demo's six
    classes, which merge the orbit of (aA,aA), (Aa,Aa) with that of (aA,Aa), (Aa,aA), accepted too."""
    weights = symmetric_measure().weights
    orbits = orbit_classes(symmetry_perms(2, 2, (1, 0), (0, 1)), 16)
    assert len(orbits) == 7
    for classes in (orbits, [[p.index for p in cls] for cls in remark_classes()]):
        case = (2, 2, (), tuple(weights.tolist())), classes
        got = collapse_outcome(ev.collapse_by_symmetry, case)
        assert got[0] == tuple(map(tuple, classes))
        assert got == collapse_outcome(oracle_collapse, case)
