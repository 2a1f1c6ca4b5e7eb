"""Shared fixtures: two-vertex reference algebras and brute-force oracles."""

import numpy as np
import pytest

import evoalg as ev
from evoalg.cells import Cell, PairCell

# masses assigned to the cells (1,1), (1,2), (2,1), (2,2) in that order
REFERENCE_P = (0.1, 0.2, 0.3, 0.4)


def cell(states, k=2):
    return Cell.from_states(states, k)


def pair(first_states, second_states, k=2):
    return PairCell(cell(first_states, k), cell(second_states, k))


def display_cells(n, k):
    """All cells ordered by their state tuples (vertex 0 first)."""
    cells = [Cell.from_index(i, n, k) for i in range(k**n)]
    return sorted(cells, key=lambda c: c.states)


def measure_from_state_weights(weights, n, k):
    """Build a measure from a {state-tuple: weight} table."""
    raw = np.zeros(k**n)
    for states, w in weights.items():
        raw[Cell.from_states(states, k).index] = w
    return ev.from_weights(raw, n, k)


def reference_measure_for(p=REFERENCE_P):
    cells = display_cells(2, 2)
    return measure_from_state_weights(
        {c.states: w for c, w in zip(cells, p)}, 2, 2
    )


def brute_children(theta, parts, k):
    """Children by filtering every cell against the componentwise rule."""
    n = theta.n
    out = set()
    for idx in range(k**n):
        candidate = Cell.from_index(idx, n, k)
        ok = True
        for block in parts:
            got = tuple(candidate.digits[v] for v in block)
            first = tuple(theta.first.digits[v] for v in block)
            second = tuple(theta.second.digits[v] for v in block)
            if got != first and got != second:
                ok = False
                break
        if ok:
            out.add(candidate)
    return out


def brute_row(algebra, generator):
    """Coefficient row via direct product-mass sums over brute children."""
    parts = ev.components(algebra.graph)
    mu = algebra.measure
    kids = brute_children(generator, parts, algebra.space.k)
    pairs = [(a, b) for a in kids for b in kids]
    denom = sum(mu.mass(a) * mu.mass(b) for a, b in pairs)
    return {
        PairCell(a, b).index: mu.mass(a) * mu.mass(b) / denom for a, b in pairs
    }


def random_positive_measure(rng, n, k):
    return ev.from_weights(rng.uniform(0.1, 1.0, size=k**n), n, k)


def all_small_instances(max_n=3, ks=(2, 3)):
    """Every graph on up to max_n vertices with every edge subset."""
    import itertools

    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            for k in ks:
                yield ev.Graph(n, edges), ev.StateSpace(k)


@pytest.fixture
def two_states():
    return ev.StateSpace(2, ("a", "A"))


@pytest.fixture
def edge_graph():
    return ev.Graph(2, frozenset({(0, 1)}))


@pytest.fixture
def free_graph():
    return ev.Graph(2)


@pytest.fixture
def reference_measure():
    return reference_measure_for()


@pytest.fixture
def edge_algebra(edge_graph, two_states, reference_measure):
    return ev.build_algebra(edge_graph, two_states, reference_measure)


@pytest.fixture
def free_algebra(free_graph, two_states, reference_measure):
    return ev.build_algebra(free_graph, two_states, reference_measure)


def dlr_check_oracle(h, domain, assignment):
    """Both sides of the consistency identity by a loop over every cell.

    The left side sums the Gibbs mass of the cells matching the assignment;
    the right side adds, cell by cell, that cell's mass times the
    conditional probability of the assignment given its whole complement.
    """
    domain = tuple(sorted(set(domain)))
    target = {v: int(assignment[v]) - 1 for v in domain}
    mu = ev.gibbs_measure(h)
    index = np.arange(h.k**h.n)
    digits = np.stack([index // h.k**v % h.k for v in range(h.n)], axis=1)
    match = np.ones(len(digits), dtype=bool)
    for v in domain:
        match &= digits[:, v] == target[v]
    lhs = float(mu.weights[match].sum())

    complement = [v for v in range(h.n) if v not in set(domain)]
    if not complement:
        return ev.DlrGap(lhs, lhs, 0.0)
    rhs = 0.0
    for idx in range(len(digits)):
        boundary = {v: int(digits[idx, v]) + 1 for v in complement}
        spec = ev.ConditionalSpec(domain, boundary)
        rhs += float(mu.weights[idx]) * ev.conditional_prob(h, spec, assignment)
    return ev.DlrGap(lhs, rhs, abs(lhs - rhs))


def dense_box_measure(box, q, coupling, beta):
    """The Potts measure of a lattice box by enumerating every cell."""
    return ev.gibbs_measure(ev.potts_hamiltonian(box.graph, q, coupling, beta))


def dense_coeff(box, q, coupling, beta, phi, psi):
    """A box coefficient from the searched children set and the dense measure."""
    parents = PairCell(phi[0].restrict(box, q), phi[1].restrict(box, q))
    kids = ev.children_set(parents, ev.components(box.graph), ev.StateSpace(q))
    children = [c.restrict(box, q) for c in psi]
    if any(c not in kids for c in children):
        return 0.0
    dense = dense_box_measure(box, q, coupling, beta)
    total = sum(dense.mass(c) for c in kids)
    return dense.mass(children[0]) * dense.mass(children[1]) / total**2


def dense_log_partition(box, q, coupling, beta):
    """``log`` of the unnormalized Boltzmann sum over every cell of the box."""
    n = box.site_count
    index = np.arange(q**n)
    digits = [(index // q**v % q).astype(np.int8) for v in range(n)]
    equal = np.zeros(len(index))
    for x, y in box.graph.edges:
        equal += digits[x] == digits[y]
    log_w = beta * coupling * equal
    top = log_w.max()
    return float(top + np.log(np.exp(log_w - top).sum()))


def pair_loop_rows(graph, space, measure):
    """Children tuple and normalized weights of every generator, pair by pair.

    The loop over all unordered cell pairs that built the heredity matrix
    before the signature kernel: children come from ``itertools.product``
    over the per-component options, and rows are shared by children set.
    """
    import itertools

    n, k = graph.vertex_count, space.k
    kn = k**n
    parts = ev.components(graph)
    place = [k**v for v in range(n)]
    contrib = [
        [sum((a // place[v]) % k * place[v] for v in blk) for blk in parts] for a in range(kn)
    ]
    weights_of = {}
    pair_children = {}
    for a in range(kn):
        for b in range(a, kn):
            options = [
                (sa,) if sa == sb else (sa, sb) for sa, sb in zip(contrib[a], contrib[b])
            ]
            children = tuple(sorted(sum(combo) for combo in itertools.product(*options)))
            if children not in weights_of:
                w = measure.weights[list(children)]
                weights_of[children] = w / w.sum()
            pair_children[(a, b)] = children
    children = [pair_children[(min(a, b), max(a, b))] for a in range(kn) for b in range(kn)]
    return children, weights_of


def oracle_entries(algebra):
    """Every nonzero ``(row, col, value)`` from the pair-loop rows, sorted."""
    children, weights_of = pair_loop_rows(algebra.graph, algebra.space, algebra.measure)
    kn = algebra.kn
    out = []
    for g, cells in enumerate(children):
        w = weights_of[cells]
        row = {
            a * kn + b: float(w[i] * w[j])
            for i, a in enumerate(cells)
            for j, b in enumerate(cells)
        }
        out.extend((g, j, row[j]) for j in sorted(row))
    return out


def oracle_hierarchy(algebra):
    """Blocks, levels and flows by searching children sets for strict subsets.

    A block's level is its longest flow distance to a diagonal singleton,
    found from the children sets of the pairs drawn from its own children.
    """
    children, _ = pair_loop_rows(algebra.graph, algebra.space, algebra.measure)
    kn = algebra.kn
    groups = {}
    for g in range(algebra.dimension):
        groups.setdefault(frozenset(children[g]), []).append(g)
    keys = sorted(groups, key=lambda s: (len(s), sorted(s)))
    level_of, subsets_of = {}, {}
    for key in keys:
        cells = sorted(key)
        below = set()
        for i, a in enumerate(cells):
            for b in cells[i:]:
                candidate = frozenset(children[a * kn + b])
                if candidate != key:
                    below.add(candidate)
        subsets_of[key] = below
        level_of[key] = 1 + max((level_of[o] for o in below), default=-1)
    leveled = [[] for _ in range(max(level_of.values()) + 1)]
    for key in keys:
        leveled[level_of[key]].append(tuple(sorted(groups[key])))
    levels = tuple(tuple(sorted(blocks)) for blocks in leveled)
    coord = {}
    for lvl, blocks in enumerate(levels):
        for pos, block in enumerate(blocks):
            for g in block:
                coord[g] = (lvl, pos)
    flows = set()
    for key in keys:
        src = coord[groups[key][0]]
        for other in subsets_of[key]:
            flows.add((src, coord[groups[other][0]]))
    return ev.Hierarchy(levels, tuple(sorted(flows)), coord)


def oracle_supports(algebra):
    """``(supports, children)`` of every generator, from the pair-loop rows.

    ``supports[g]`` is the sorted tuple of pair indices in the row of ``g``;
    generators with one children set share one tuple.
    """
    children, _ = pair_loop_rows(algebra.graph, algebra.space, algebra.measure)
    kn = algebra.kn
    by_set = {}
    supports = [
        by_set.setdefault(cells, tuple(sorted(a * kn + b for a in cells for b in cells)))
        for cells in children
    ]
    return supports, children


def oracle_closure(supports, start):
    """Least support-closed superset of ``start``, by breadth-first search."""
    todo = list(start)
    basis = set(todo)
    while todo:
        current = todo.pop()
        for j in supports[current]:
            if j not in basis:
                basis.add(j)
                todo.append(j)
    return frozenset(basis)


def oracle_subalgebra(supports, seed, memo):
    """The generated subalgebra by search, as ``generated_subalgebra`` did it.

    The search from a seed reaches the seed plus the closure of every seed
    generator's support; ``memo`` keeps those closures by support, so that a
    sweep over all generators repeats no search.
    """
    basis = set(seed)
    for g in seed:
        if supports[g] not in memo:
            memo[supports[g]] = oracle_closure(supports, supports[g])
        basis |= memo[supports[g]]
    return frozenset(basis)


def oracle_descent(children, kn, sigma):
    """Descent chain indices by comparing frozen children sets.

    Among the pairs drawn from the current children set, those whose
    children set is a strict subset are descendants; the lowest-indexed
    transit one is taken while any exists, then the lowest diagonal one.
    """
    current = sigma
    if len(children[current]) == 1:
        return (current,)
    chain = []
    while True:
        cells = children[current]
        cur_set = frozenset(cells)
        transit, diagonal = [], []
        for a in cells:
            for b in cells:
                candidate = a * kn + b
                if candidate == current:
                    continue
                cand_cells = frozenset(children[candidate])
                if not cand_cells < cur_set:
                    continue
                (diagonal if len(cand_cells) == 1 else transit).append(candidate)
        if transit:
            current = min(transit)
            chain.append(current)
        else:
            chain.append(min(diagonal))
            return tuple(chain)


def oracle_counts(supports, kn):
    """Structure counts by deduplicating support sets."""
    singles = {frozenset(supports[a * kn + a]) for a in range(kn)}
    if any(len(s) != 1 for s in singles):
        raise ev.ValidationError("structure_counts: diagonal generator with non-unit row")
    quads = {frozenset(supports[a * kn + b]) for a in range(kn) for b in range(a + 1, kn)}
    return ev.StructureCounts(kn * kn, len(singles), len(quads))


def oracle_combine(algebra, scaled):
    """``(sums, magnitudes)``: a dict accumulation of ``scale * row(g)`` over pair-loop rows.

    ``scaled`` lists ``(generator, scale)``; ``magnitudes`` sums the absolute
    values of the same terms, the size a rounding error is relative to.
    """
    children, weights_of = pair_loop_rows(algebra.graph, algebra.space, algebra.measure)
    kn = algebra.kn
    sums, magnitudes = {}, {}
    for g, scale in scaled:
        cells = children[g]
        w = weights_of[cells]
        for i, a in enumerate(cells):
            for j, b in enumerate(cells):
                term = scale * float(w[i] * w[j])
                sums[a * kn + b] = sums.get(a * kn + b, 0.0) + term
                magnitudes[a * kn + b] = magnitudes.get(a * kn + b, 0.0) + abs(term)
    return sums, magnitudes
