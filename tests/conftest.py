"""Shared fixtures: two-vertex reference algebras and brute-force oracles."""

import csv
import itertools
import json
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, settings

import evoalg as ev
from evoalg import limits
from evoalg.cells import Cell, PairCell, children_indices
from evoalg.errors import ValidationError, cut, is_index, shown
from evoalg.structure import COLLAPSE_TOL

# CI runs with --hypothesis-profile=ci: a failure prints the @reproduce_failure blob that replays it
settings.register_profile("ci", print_blob=True)
# tests/mutants.py runs with --hypothesis-profile=mutants: the same examples on every run, and no shrinking, which
# proves nothing more about a mutant and once took most of a minute of its time bound
settings.register_profile("mutants", derandomize=True, database=None, phases=[p for p in Phase if p != Phase.shrink])

# masses assigned to the cells (1,1), (1,2), (2,1), (2,2) in that order
REFERENCE_P = (0.1, 0.2, 0.3, 0.4)

# every heredity entry lies within this many units of 2**-52 of its exact value, relative (oracle_exact_algebra);
# the worst seen was 3.83 over 311,205 entries, n <= 4, k in {2, 3}, raw weights over six decades
ENTRY_ULPS = 8


def cell(states, k=2):
    return Cell.from_states(states, k)


def pair(first_states, second_states, k=2):
    return PairCell(cell(first_states, k), cell(second_states, k))


def display_cells(n, k):
    """All cells ordered by their state tuples (vertex 0 first)."""
    cells = [Cell.from_index(i, n, k) for i in range(k**n)]
    return sorted(cells, key=lambda c: c.states)


def state_of(space, label) -> int:
    """The state ``1..k`` that ``label`` names in ``space``; an unknown label is rejected by name."""
    try:
        return space.labels.index(str(label)) + 1
    except ValueError:
        raise ValidationError(f"states: unknown state label {cut(label)!r}") from None


def cell_mass(measure, cell) -> float:
    """The mass of one cell; a cell of another vertex or state count than the measure's is rejected, since its index
    could name another cell or lie past the weights."""
    if cell.n != measure.n or cell.k != measure.k:
        raise ValidationError("mass: cell does not match the measure")
    return float(measure.weights[cell.index])


def measure_from_state_weights(weights, n, k):
    """Build a measure from a {state-tuple: weight} table."""
    raw = np.zeros(k**n)
    for states, w in weights.items():
        raw[Cell.from_states(states, k).index] = w
    return ev.from_weights(raw, n, k)


def uniform_measure(n, k):
    """The measure giving each of the ``k**n`` cells mass ``1 / k**n``."""
    return ev.Measure(np.full(k**n, 1.0 / k**n), n, k)


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


def pair_children(sigma, parts):
    """All ordered pairs of children of ``sigma``; always contains ``sigma``."""
    kids = ev.children_set(sigma, parts)
    return {PairCell(a, b) for a in kids for b in kids}


def product_mass(mu, pairs):
    """Product-measure mass of a set of pair cells."""
    return float(sum(mu.weights[p.first.index] * mu.weights[p.second.index] for p in pairs))


def brute_row(algebra, generator):
    """Coefficient row via direct product-mass sums over brute children."""
    parts = ev.components(algebra.graph)
    mu = algebra.measure
    kids = brute_children(generator, parts, algebra.space.k)
    pairs = [(a, b) for a in kids for b in kids]
    denom = sum(cell_mass(mu, a) * cell_mass(mu, b) for a, b in pairs)
    return {
        PairCell(a, b).index: cell_mass(mu, a) * cell_mass(mu, b) / denom for a, b in pairs
    }


def random_positive_measure(rng, n, k):
    return ev.from_weights(rng.uniform(0.1, 1.0, size=k**n), n, k)


def all_small_instances(max_n=3, ks=(2, 3)):
    """Every graph on up to max_n vertices with every edge subset."""
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


def conditional_prob_oracle(h, boundary, assignment):
    """Conditional probability by a loop over every assignment of the domain, the keys of ``assignment``.

    Each assignment's energy sums the site fields on the domain and the
    couplings on every edge meeting it, with the boundary filled in
    outside; the target's Boltzmann weight is divided by their total.
    """
    domain = sorted(assignment)
    inside = set(domain)
    target = tuple(assignment[v] - 1 for v in domain)
    log_w, target_log = [], None
    for combo in itertools.product(range(h.k), repeat=len(domain)):
        digit = {v: s - 1 for v, s in boundary.items()}
        digit.update(zip(domain, combo))
        energy = sum(h.site_field[v][digit[v]] for v in domain)
        for (x, y), mat in h.pair_coupling.items():
            if x in inside or y in inside:
                energy += mat[digit[x], digit[y]]
        log_w.append(-h.beta * float(energy))
        if combo == target:
            target_log = log_w[-1]
    log_w = np.array(log_w)
    shift = log_w.max()
    return float(np.exp(target_log - shift) / np.exp(log_w - shift).sum())


def dlr_check_oracle(h, assignment):
    """Both sides of the consistency identity by a loop over every cell.

    The left side sums the Gibbs mass of the cells matching the assignment;
    the right side adds, cell by cell, that cell's mass times the
    conditional probability of the assignment given its whole complement.
    """
    domain = tuple(sorted(assignment))
    target = {v: assignment[v] - 1 for v in domain}
    mu = ev.gibbs_measure(h)
    digits = cell_digits(h.n, h.k)
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
        rhs += float(mu.weights[idx]) * conditional_prob_oracle(h, boundary, assignment)
    return ev.DlrGap(lhs, rhs, abs(lhs - rhs))


def lattice_sites(box):
    """A box's site coordinates in index order, lexicographic: the ``LatticeBox.sites`` that nothing but tests read."""
    return tuple(itertools.product(range(-box.radius, box.radius + 1), repeat=box.dimension))


def loop_lattice_box(dimension, radius):
    """Sites, site index and graph of a box from a loop over every site and axis.

    The construction ``LatticeBox`` used before it computed indices by
    arithmetic and built its graph only when read.
    """
    axis = range(-radius, radius + 1)
    sites = tuple(itertools.product(axis, repeat=dimension))
    index = {c: i for i, c in enumerate(sites)}
    edges = set()
    for c in sites:
        for d in range(dimension):
            step = tuple(x + (1 if i == d else 0) for i, x in enumerate(c))
            if step in index:
                edges.add((index[c], index[step]))
    return sites, index, ev.Graph(len(sites), frozenset(edges))


def dense_box_measure(box, q, coupling, beta):
    """The Potts measure of a lattice box by enumerating every cell."""
    return ev.gibbs_measure(ev.potts_hamiltonian(box.graph, q, coupling, beta))


def oracle_restrict(tail_cell, box, q):
    """A tail cell on a box as a full ``Cell``, one digit per box site.

    The restriction ``limits`` made before it read only the pattern sites,
    with the same checks in the same order.
    """
    for name, state in [("tail", tail_cell.tail), *(("pattern", s) for _, s in tail_cell.pattern)]:
        if not 1 <= state <= q:
            got = state if len(str(state)) <= 60 else shown(state)
            raise ValidationError(f"scenario.limits.pairs.{name}: state must be in 1..{q}, got {got}")
    digits = [tail_cell.tail - 1] * box.site_count
    for coord, state in tail_cell.pattern:
        digits[box.site_index(coord)] = state - 1
    return Cell(tuple(digits), q)


def oracle_equal_edges(cell, columns):
    """Equal neighbour pairs over every edge of a box cell whose sites form ``columns`` contiguous runs."""
    d = np.reshape(cell.digits, (columns, -1))
    return np.count_nonzero(d[:, 1:] == d[:, :-1]) + np.count_nonzero(d[1:] == d[:-1])


def oracle_coeff(scheme, radius, phi, psi):
    """``finite_volume_coeff`` from full-box cells, with the gap counted over every box edge."""
    if radius not in scheme.radii:
        raise ValidationError(f"radius {radius} not part of the scheme")
    box = scheme.box(radius)
    first, second = (oracle_restrict(c, box, scheme.states) for c in phi)
    children = [oracle_restrict(c, box, scheme.states) for c in psi]
    if any(c != first and c != second for c in children):
        return 0.0
    strength = scheme.beta * scheme.coupling
    if not math.isfinite(strength):
        raise ValidationError("measure: weights must be finite")
    if first == second:
        return 1.0
    columns = 2 * radius + 1
    gap = strength * (oracle_equal_edges(first, columns) - oracle_equal_edges(second, columns))
    return math.prod(math.exp(-np.logaddexp(0.0, gap if c == second else -gap)) for c in children)


def dense_coeff(box, q, coupling, beta, phi, psi):
    """A box coefficient from the searched children set and the dense measure."""
    parents = PairCell(oracle_restrict(phi[0], box, q), oracle_restrict(phi[1], box, q))
    kids = ev.children_set(parents, ev.components(box.graph))
    children = [oracle_restrict(c, box, q) for c in psi]
    if any(c not in kids for c in children):
        return 0.0
    dense = dense_box_measure(box, q, coupling, beta)
    total = sum(cell_mass(dense, c) for c in kids)
    return cell_mass(dense, children[0]) * cell_mass(dense, children[1]) / total**2


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


def oracle_exact_algebra(graph, k, raw):
    """Every nonzero entry as ``{(row, col): Fraction}``, each ``r_x r_y / (sum_C r)**2`` over the children set ``C``
    of the row's pair, where ``r`` is a raw weight read exactly, ``Fraction(float(r))``; normalizing cancels."""
    n = graph.vertex_count
    children, _ = pair_loop_rows(graph, ev.StateSpace(k), ev.from_weights(raw, n, k))
    r = [Fraction(float(w)) for w in raw]
    rows, exact = {}, {}
    for g, cells in enumerate(children):
        if cells not in rows:
            total = sum(r[c] for c in cells) ** 2
            rows[cells] = {a * k**n + b: r[a] * r[b] / total for a in cells for b in cells}
        exact.update(((g, j), v) for j, v in rows[cells].items())
    return exact


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


def _checked_entries(rows, fields) -> dict:
    """``{(row, col): value}`` from ``(where, raw)`` rows: ``fields(raw)`` must give non-negative integer
    row and col and a finite int or float value, and no ``(row, col)`` may repeat."""
    entries = {}
    for where, raw in rows:
        try:
            r, c, v = fields(raw)
            if not (type(r) is int and type(c) is int and min(r, c) >= 0 and type(v) in (int, float) and math.isfinite(v)):
                raise ValueError
        except (TypeError, ValueError, OverflowError):  # not three fields, or an integer too large for a float
            raise ValidationError(
                f"{where}: non-negative integer row and col and a finite value required, got {shown(raw)}"
            ) from None
        if (r, c) in entries:
            raise ValidationError(f"{where}: repeated entry ({r}, {c})")
        entries[(r, c)] = float(v)
    return entries


def load_matrix_csv(path) -> dict:
    """Read an exported CSV back into ``{(row, col): value}``, checked by ``_checked_entries``."""
    # bytes that are not UTF-8 reach the header and field checks below as lone surrogates, which no number parses
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["row", "col", "value"]:
            raise ValidationError(f"matrix csv {path}: unexpected header")
        # row and col must be plain digits: int() would also take signs, spaces and underscores
        return _checked_entries(((f"matrix csv {path} line {reader.line_num}", line) for line in reader), lambda line: (
            *(int(x) if x.isascii() and x.isdigit() else x for x in line[:2]), *map(float, line[2:])))


def load_matrix_json(path) -> dict:
    """Read an exported JSON back into ``{(row, col): value}``, checked by ``_checked_entries``."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ValidationError(f"matrix json {path}: {exc}") from None
    if not (isinstance(payload, dict) and payload.get("schema_version") == 1 and isinstance(payload.get("entries"), list)):
        raise ValidationError(f"matrix json {path}: object with schema_version 1 and a list of entries required")
    return _checked_entries(((f"matrix json {path}", item) for item in payload["entries"]), tuple)


OracleHierarchy = namedtuple("OracleHierarchy", "levels flows coord")


def oracle_hierarchy(algebra):
    """Blocks, levels and flows by searching children sets for strict subsets.

    A block's level is its longest flow distance to a diagonal singleton,
    found from the children sets of the pairs drawn from its own children.
    ``coord`` maps each generator to its block's ``(level, position)``.
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
    return OracleHierarchy(levels, tuple(sorted(flows)), coord)


def hierarchy_flows(hierarchy):
    """A hierarchy's flows as ``((level, position), (level, position))`` pairs of block coordinates, in the order of
    ``flow_source`` and ``flow_target``."""
    coords = list(zip(hierarchy.row_level.tolist(), hierarchy.positions.tolist()))
    return tuple((coords[a], coords[b]) for a, b in zip(hierarchy.flow_source.tolist(), hierarchy.flow_target.tolist()))


def block_of(hierarchy, index) -> tuple:
    """The ``(level, position)`` coordinates of a generator's block."""
    if not is_index(index):
        raise ValidationError(f"generator must be an integer, got {shown(index)}")
    if not 0 <= index < len(hierarchy.gen_row):
        raise ValidationError(f"generator {index} not present in the hierarchy")
    level = hierarchy.row_level[hierarchy.gen_row[index]]
    return int(level), int(hierarchy.gen_row[index] - hierarchy.level_start[level])


def oracle_flows(layout):
    """``(flow_source, flow_target)`` by the sub-class search ``build_hierarchy`` once made.

    A class at level ``c`` keeps ``lo``, ``hi`` or both on each of its ``c``
    disagreeing components, short of both everywhere, which gives the keys
    ``level * k**2n + lo * k**n + hi`` of its ``3**c - 1`` proper sub-classes.
    Each is found among the sorted keys, rebuilt from ``row_level``,
    ``row_lo`` and ``row_hi``, and each class's finds are sorted.  Both
    arrays hold row-class indices, int32.
    """
    m, kn = layout, layout.kn
    keys = (m.row_level * kn + m.row_lo) * kn + m.row_hi
    sources, targets = [], []
    for c in range(len(m.level_start) - 1):
        rows = np.arange(m.level_start[c], m.level_start[c + 1])
        lo, hi = m.contrib[m.row_lo[rows]], m.contrib[m.row_hi[rows]]
        steps = (hi - lo)[hi != lo].reshape(len(rows), c)
        keep = np.array(list(itertools.product(range(3), repeat=c))[:-1]).reshape(3**c - 1, c)
        sub_lo = m.row_lo[rows, None] + steps @ (keep == 1).T
        sub_hi = m.row_lo[rows, None] + steps @ (keep != 0).T
        sub_keys = (np.count_nonzero(keep == 2, axis=1) * kn + sub_lo) * kn + sub_hi
        sources.append(np.repeat(rows, len(keep)))
        targets.append(np.sort(np.searchsorted(keys, sub_keys), axis=1).ravel())
    return np.concatenate(sources).astype(np.int32), np.concatenate(targets).astype(np.int32)


def oracle_row_classes(layout):
    """The row-class layout by the search ``HeredityMatrix`` once made, as ``{attribute: value}``.

    Every generator's ``lo``, ``hi`` and level come from ``(k^n)^2`` outer
    arrays over the contributions, and ``np.unique`` sorts all ``k^2n``
    keys ``level * k**2n + lo * k**n + hi``: a class's first generator is
    ``(lo, hi)``.  The children follow from the rows; no measure is read.
    Class, cell and children indices are int32, levels and level starts int64.
    """
    kn, contrib = layout.kn, layout.contrib
    lo = sum(np.minimum.outer(part, part) for part in contrib.T)
    hi = sum(np.maximum.outer(part, part) for part in contrib.T)
    level = sum(np.not_equal.outer(part, part) for part in contrib.T)
    _, first, gen_row = np.unique(((level * kn + lo) * kn + hi).ravel(), return_index=True, return_inverse=True)
    row_level = level.ravel()[first]
    row_lo, row_hi = np.divmod(first.astype(np.int32), kn)
    level_start = np.searchsorted(row_level, np.arange(row_level[-1] + 2))
    children = [children_indices(contrib[row_lo[a:b]], contrib[row_hi[a:b]]).astype(np.int32)
                for a, b in zip(level_start.tolist(), level_start[1:].tolist())]
    return {"gen_row": gen_row.astype(np.int32), "row_level": row_level, "row_lo": row_lo, "row_hi": row_hi,
            "level_start": level_start, "level_children": children}


def oracle_levels(layout):
    """``Hierarchy.levels`` spelled out from a layout's arrays.

    The generators of each row class, in class order, cut into levels at
    ``level_start``: what ``build_hierarchy`` lists, read with dicts.
    """
    blocks = {}
    for g, r in enumerate(layout.gen_row.tolist()):
        blocks.setdefault(r, []).append(g)
    ordered = [tuple(blocks[r]) for r in sorted(blocks)]
    bounds = layout.level_start.tolist()
    return tuple(tuple(ordered[a:b]) for a, b in zip(bounds, bounds[1:]))


def oracle_iso(left, right):
    """The iso report from per-generator row keys and the hierarchy levels."""
    def keys(m):
        return [(m.row_level[r], m.row_lo[r], m.row_hi[r]) for r in m.gen_row.tolist()]

    support = keys(left.matrix.layout) == keys(right.matrix.layout)
    skeleton = oracle_levels(left.matrix.layout) == oracle_levels(right.matrix.layout)
    verdict = "isomorphic-per-theorem" if support and skeleton else "not-isomorphic-per-theorem"
    return ev.IsoReport(support, skeleton, verdict)


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


def oracle_sorted_combine(matrix, gens, scales) -> dict:
    """``HeredityMatrix.combine`` merging every expansion by sorting, then filtered like user input.

    Each row class is read through the public ``children`` of its smallest
    generator ``lo * k**n + hi`` and expanded here, class by class in
    ascending order, as ``(w_i * w_j) * scale``.  Equal columns are found
    with ``np.unique`` and summed with ``np.bincount`` over the sorted
    distinct columns, whatever the entry count; ``AlgebraElement`` then
    drops what is below ``COEFF_DROP``.  Both accumulation paths of
    ``combine`` must give this dict bit for bit.
    """
    layout = matrix.layout
    rids, inverse = np.unique(layout.gen_row[np.array(gens, dtype=np.int64)], return_inverse=True)
    totals = np.bincount(inverse, weights=scales)
    cols, vals = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for rid, total in zip(rids.tolist(), totals.tolist()):
        kids, w = matrix.children(int(layout.row_lo[rid]) * layout.kn + int(layout.row_hi[rid]))
        cols.append(np.add.outer(kids * layout.kn, kids).ravel())
        vals.append((np.multiply.outer(w, w) * total).ravel())
    keys, at = np.unique(np.concatenate(cols), return_inverse=True)
    sums = np.bincount(at, weights=np.concatenate(vals))
    return ev.AlgebraElement(dict(zip(keys.tolist(), sums.tolist()))).coeffs


def cell_digits(n, k):
    """The ``(k**n, n)`` digit table of every cell: row ``i`` holds the digits of index ``i``, vertex 0 first."""
    return np.arange(k**n, dtype=np.int64)[:, None] // k ** np.arange(n, dtype=np.int64) % k


def oracle_energy(h, digit, vertices, edges):
    """Site fields on ``vertices``, then couplings on ``edges`` added in place, at the digit columns ``digit[v]``."""
    total = sum(h.site_field[v][digit[v]] for v in vertices)
    for x, y in edges:
        total += h.pair_coupling[(x, y)][digit[x], digit[y]]
    return total


def oracle_gibbs_weights(h):
    """Normalized Boltzmann weights of every row of the digit table, with the max of ``-beta * H`` subtracted."""
    log_w = -h.beta * oracle_energy(h, cell_digits(h.n, h.k).T, range(h.n), h.pair_coupling)
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    return w


def oracle_local_specification(h, domain):
    """``(outer, cond)`` over the digit table of the outer neighbours then the domain, first vertex most significant."""
    k, inside = h.k, set(domain)
    meeting = [e for e in h.pair_coupling if inside & set(e)]
    outer = sorted({v for e in meeting for v in e} - inside)
    local = outer + list(domain)
    digit = dict(zip(local, cell_digits(len(local), k).T[::-1]))
    log_w = -h.beta * oracle_energy(h, digit, domain, meeting).reshape(-1, k ** len(domain))
    cond = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    cond /= cond.sum(axis=1, keepdims=True)
    return outer, cond


def oracle_dlr_rows(h, domain, weights):
    """``(lhs, rhs)`` arrays of the consistency identity: the joint mass of (outer states, domain states) binned by
    the digits of every cell index."""
    k = h.k
    outer, cond = oracle_local_specification(h, domain) if len(domain) < h.n else ([], None)
    digits = cell_digits(h.n, k)
    code = np.zeros(k**h.n, dtype=np.int64)
    for v in outer + list(domain):
        code = code * k + digits[:, v]
    joint = np.bincount(code, weights, k ** (len(outer) + len(domain))).reshape(-1, k ** len(domain))
    lhs = joint.sum(axis=0)
    return lhs, lhs if cond is None else joint.sum(axis=1) @ cond


def oracle_contributions(n, k, parts):
    """``contrib[cell, b]``: the digit table's columns on component ``b`` times their place values, summed, int32."""
    digits = cell_digits(n, k)
    place = k ** np.arange(n, dtype=np.int64)
    return np.stack([digits[:, list(b)] @ place[list(b)] for b in parts], axis=-1).astype(np.int32)


def oracle_column_sweep(width, states, strengths, stops):
    """``limits._column_sweep`` with its equal-pair counts read off the digit table of the column states."""
    col = cell_digits(width, states)
    inner = np.multiply.outer(strengths, (col[:, 1:] == col[:, :-1]).sum(axis=1))
    bond = np.multiply.outer(strengths, (col[:, None, :] == col[None, :, :]).sum(axis=2))
    log_z, done = inner, 1
    for stop in stops:
        for _ in range(stop - done):
            log_z = inner + limits._logsumexp((log_z[..., None] + bond).swapaxes(0, -2))
        done = stop
        yield limits._logsumexp(log_z.swapaxes(0, -1)).tolist()


def relabel_pairs(n, k, vertex_perm, state_perm):
    """The pair permutation that moves every vertex ``v`` to ``vertex_perm[v]`` and every state digit ``s`` to
    ``state_perm[s]`` in both cells: ``relabel_pairs(...)[g]`` is the image of generator ``g``, an int64 array."""
    digits = cell_digits(n, k)
    cells = (np.asarray(state_perm)[digits] * k ** np.asarray(vertex_perm, dtype=np.int64)).sum(axis=1)
    return np.add.outer(cells * k**n, cells).ravel()


def oracle_collapse(algebra, classes):
    """``collapse_by_symmetry`` by a walk over every member's row dict, as the library once did it, without its budget.

    Each generator's row is summed per target class in the order of its
    entries; a class's members are grouped by flow pattern in the order they
    are listed, and each group's first member is compared with every other.
    """
    normalized = [tuple(algebra.pair_index(p) for p in cls) for cls in classes]
    if not all(normalized):
        raise ValidationError("collapse: empty class")
    class_of = {g: cid for cid, members in enumerate(normalized) for g in members}
    if len(class_of) != sum(map(len, normalized)):
        raise ValidationError("collapse: classes must be disjoint and list each generator once")
    if len(class_of) != algebra.dimension:
        raise ValidationError("collapse: classes must partition all generators")

    def aggregated(g):
        out = {}
        for j, v in algebra.matrix.row(g).items():
            cid = class_of[j]
            out[cid] = out.get(cid, 0.0) + v
        return out

    rows = []
    for members in normalized:
        agg = {g: aggregated(g) for g in members}
        by_pattern = {}
        for g in members:
            by_pattern.setdefault(frozenset(agg[g]), []).append(g)
        for pattern, group in by_pattern.items():
            base = agg[group[0]]
            for g in group[1:]:
                gap = max(abs(base[cid] - agg[g][cid]) for cid in pattern)
                if gap > COLLAPSE_TOL:
                    raise ValidationError(
                        "collapse: not a valid collapse, rows "
                        f"{algebra.pair_label(group[0])} and {algebra.pair_label(g)} disagree"
                    )
        rows.append(dict(sorted(agg[members[0]].items())))
    return ev.CollapsedTable(tuple(normalized), tuple(rows))
