"""Subalgebra generation, hierarchy levels, descent chains and collapses.

The generator set splits into blocks of equal children sets.  Flows between
blocks follow strict containment of children sets, which yields a DAG; the
level of a block is its longest flow distance to a diagonal singleton.
Diagonal pairs sit alone at level 0, every other block strictly above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise

import numpy as np

from .algebra import NONZERO_BUDGET, EvolutionAlgebra
from .errors import ValidationError, check_budget
from .graphs import components

__all__ = [
    "Subalgebra",
    "DescentChain",
    "Hierarchy",
    "StructureCounts",
    "IsoReport",
    "CollapsedTable",
    "generated_subalgebra",
    "precedes",
    "descent_chain",
    "build_hierarchy",
    "structure_counts",
    "iso_check",
    "collapse_by_symmetry",
]

COLLAPSE_TOL = 1e-10


@dataclass(frozen=True)
class Subalgebra:
    """A set of generators closed under squaring support."""

    basis: frozenset

    @property
    def dimension(self) -> int:
        return len(self.basis)


def generated_subalgebra(algebra: EvolutionAlgebra, seed) -> Subalgebra:
    """Least support-closed superset of the seed generators.

    Children sets are products over the components, so every pair drawn
    from a generator's children has its children among them: a generator's
    closure is its children-pair set, and a seed's is their union.
    """
    gens = [algebra.pair_index(p) for p in seed]
    if not gens:
        raise ValidationError("generated_subalgebra: seed must be nonempty")
    m = algebra.matrix
    return Subalgebra(frozenset(np.concatenate([m.layout.pairs(m.children(g)[0]) for g in gens]).tolist()))


def precedes(algebra: EvolutionAlgebra, tau, sigma) -> bool:
    """Whether the row of ``sigma`` carries a positive coefficient at ``tau``."""
    t = algebra.pair_index(tau)
    kids = algebra.matrix.children(algebra.pair_index(sigma))[0]
    return bool(np.isin(divmod(t, algebra.kn), kids).all())


@dataclass(frozen=True)
class DescentChain:
    """Successive descendants ending at a diagonal singleton."""

    elements: tuple

    def __len__(self) -> int:
        return len(self.elements)


def descent_chain(algebra: EvolutionAlgebra, sigma) -> DescentChain:
    """Walk strictly shrinking children sets down to a diagonal pair.

    While a transit generator with a strictly smaller children set exists,
    the lowest-indexed one is taken; once only diagonal descendants remain
    the lowest-indexed of those closes the chain.  A diagonal start is its
    own chain.  The descendants are the children pairs, whose children sets
    all lie inside the current one, so a smaller set is a lower level.
    """
    m, layout = algebra.matrix, algebra.matrix.layout
    current = algebra.pair_index(sigma)
    level = layout.row_level[layout.gen_row[current]]
    chain = [] if level else [current]
    while level > 0:
        # ascending children give ascending candidates
        candidates = layout.pairs(m.children(current)[0])
        levels = layout.row_level[layout.gen_row[candidates]]
        lower = levels < level
        transit = lower & (levels > 0)
        first = np.argmax(transit if transit.any() else lower)
        current, level = int(candidates[first]), int(levels[first])
        chain.append(current)
    return DescentChain(tuple(algebra.pair_from_index(i) for i in chain))


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """Leveled block decomposition of the generator set, held as the row-class layout's arrays.

    Each row class ``r`` is a block, number ``positions[r]`` of level ``row_level[r]``; flows run from each class in
    ``flow_source`` to a class of its children pairs in ``flow_target`` (``gen_row``'s dtype), on a lower level.  ``levels`` (each
    level's blocks as sorted generator tuples) is built on first read.
    """

    gen_row: np.ndarray
    row_level: np.ndarray
    level_start: np.ndarray
    flow_source: np.ndarray
    flow_target: np.ndarray

    @property
    def level_count(self) -> int:
        return len(self.level_start) - 1

    @property
    def positions(self) -> np.ndarray:
        return np.arange(len(self.row_level)) - self.level_start[self.row_level]

    @cached_property
    def members(self) -> tuple:
        """The generators in class order, and where each class begins among them (one more bound at the end)."""
        order = np.argsort(self.gen_row, kind="stable")
        return order, np.searchsorted(self.gen_row[order], np.arange(len(self.row_level) + 1))

    @cached_property
    def levels(self) -> tuple:
        order, bounds = (a.tolist() for a in self.members)
        blocks = [tuple(order[a:b]) for a, b in pairwise(bounds)]
        return tuple(tuple(blocks[a:b]) for a, b in pairwise(self.level_start.tolist()))


def build_hierarchy(algebra: EvolutionAlgebra) -> Hierarchy:
    """Rank the row classes by level and list the flows between them.

    A generator's subalgebra is its children-pair set: a class flows to the classes of its children pairs other than
    itself, ``3**c - 1`` of them at level ``c``, in sorted order, which is (level, position) order.
    """
    layout = algebra.matrix.layout
    flows = [_level_flows(layout, np.arange(a, b, dtype=layout.gen_row.dtype), kids)
             for (a, b), kids in zip(pairwise(layout.level_start), layout.level_children)]
    return Hierarchy(layout.gen_row, layout.row_level, layout.level_start, *map(np.concatenate, zip(*flows)))


def _level_flows(layout, rows: np.ndarray, kids: np.ndarray) -> tuple:
    """The flows of the classes ``rows`` of one level, whose children are ``kids``, as ``(sources, targets)``."""
    width = kids.shape[1] ** 2
    targets = np.sort(layout.gen_row[layout.pairs(kids)].reshape(-1, width), axis=1)
    flat = targets.ravel()
    # the first of each class's equal targets, short of the class itself
    keep = np.concatenate(([True], flat[1:] != flat[:-1]))
    keep[::width] = True
    keep &= (targets != rows[:, None]).ravel()
    return rows[np.flatnonzero(keep) // width], flat[keep]


@dataclass(frozen=True)
class StructureCounts:
    dimension: int
    one_dimensional: int
    four_dimensional: int


def structure_counts(algebra: EvolutionAlgebra) -> StructureCounts:
    """Count the singly-generated subalgebras of a connected-graph algebra: ``(k^2n, k^n, k^n (k^n - 1) / 2)``.

    A generator's subalgebra is its children-pair set, and on a connected graph a pair's children are its two parents:
    each diagonal generator spans a one-dimensional subalgebra, and each unordered pair of distinct cells generates a
    four-dimensional one.  The counts restate the structure theorem, the same for every positive measure, so no matrix
    is read.
    """
    if len(components(algebra.graph)) != 1:
        raise ValidationError("structure_counts: graph must be connected")
    kn = algebra.space.k**algebra.graph.vertex_count
    return StructureCounts(kn * kn, kn, kn * (kn - 1) // 2)


@dataclass(frozen=True)
class IsoReport:
    support_equal: bool
    skeleton_equal: bool
    verdict: str


def iso_check(left, right) -> IsoReport:
    """The report of the measure-independence theorem for two algebras, or scenarios, over one graph and state space.

    Only ``graph`` and ``space`` are read; no heredity matrix is built.  Every generator's row class, so its zero
    pattern, and the hierarchy skeleton (``gen_row`` and ``level_start``) depend only on the graph and ``k``: once
    both agree, any two positive measures give equal zero patterns and skeletons, which the report restates.  The
    verdict certifies the relation-preserving identity map on generators, hence its name; strict isomorphism, a map
    ``e_i -> c_i e_pi(i)`` given by ``(pi, c)`` that carries products to products, stays ROADMAP item 8.
    """
    if left.graph != right.graph:
        raise ValidationError("iso_check: algebras built over different graphs")
    if left.space != right.space:
        raise ValidationError("iso_check: algebras built over different state spaces")
    return IsoReport(True, True, "isomorphic-per-theorem")


@dataclass(frozen=True)
class CollapsedTable:
    """Reduced squaring table over generator classes.

    ``rows[c]`` maps target class ids to the aggregated coefficients of
    class ``c``'s representative (its first listed member).
    """

    classes: tuple
    rows: tuple


def collapse_by_symmetry(algebra: EvolutionAlgebra, classes) -> CollapsedTable:
    """Collapse generators into classes and reduce the squaring table.

    Every generator's row is aggregated by summing coefficients within each
    target class.  Class members sharing a flow pattern (the same set of
    target classes) must agree within ``1e-10``, otherwise the partition is
    not a valid collapse; members of different patterns are not compared, so
    a class may mix patterns.  Each class contributes its first member's
    aggregated row to the reduced table.

    The members of a row class share their row, so each row class is
    aggregated once: one ``np.bincount`` over (row class, target class) keys
    adds its entries in ascending columns, as a walk over a member's row
    would.  A class is then checked over its distinct row classes, each named
    by its first member, group by group in the order of their first members,
    so the table, the message and the pair it names are those of a walk over
    every member.  The entries read, ``prod_b k^|b|(2k^|b|-1)``, are checked
    against ``NONZERO_BUDGET`` before any class is read, and the entries of
    the reduced table before any of its rows is made.
    """
    layout = algebra.matrix.layout
    check_budget(int((4**layout.row_level).sum()), "collapse: prod_b k^|b|(2k^|b|-1)", "row-class entries", NONZERO_BUDGET,
                 "nonzero")
    normalized = [tuple(algebra.pair_index(p) for p in cls) for cls in classes]
    if not all(normalized):
        raise ValidationError("collapse: empty class")
    members = np.fromiter(chain.from_iterable(normalized), dtype=np.int64)
    listed = np.bincount(members, minlength=algebra.dimension)
    if (listed > 1).any():
        raise ValidationError("collapse: classes must be disjoint and list each generator once")
    if not listed.all():
        raise ValidationError("collapse: classes must partition all generators")
    count, rows = len(normalized), len(layout.row_level)
    owner = np.repeat(np.arange(count), list(map(len, normalized)))
    class_of = owner[np.argsort(members)]  # members is a permutation of the generators
    cols, prods, entries = algebra.matrix._expand(np.arange(rows))
    # bincount adds each key's terms in input order: within a row class, ascending columns
    keys, at = np.unique(np.repeat(np.arange(rows) * count, entries) + class_of[cols], return_inverse=True)
    sums, targets = np.bincount(at, weights=prods), keys % count
    spans = [slice(a, b) for a, b in pairwise(np.searchsorted(keys, np.arange(rows + 1) * count).tolist())]
    # a flow pattern per row class, numbered below the row class count: its ascending target classes
    pattern = np.unique(np.array([targets[span].tobytes() for span in spans], dtype=object), return_inverse=True)[1]
    rid = layout.gen_row[members]
    # positions in members: the first member of each distinct (class, row class), and the first member of its class
    # with its pattern, which it is compared with, group after group in listed order
    first = np.sort(np.unique(owner * rows + rid, return_index=True)[1])
    lead, group = np.unique(owner[first] * rows + pattern[rid[first]], return_index=True, return_inverse=True)[1:]
    base = first[lead][group]
    for b, g in sorted(zip(base[base != first].tolist(), first[base != first].tolist())):
        if np.abs(sums[spans[rid[b]]] - sums[spans[rid[g]]]).max() > COLLAPSE_TOL:
            named, label = (algebra.pair_label(i) for i in members[[b, g]].tolist())
            raise ValidationError(f"collapse: not a valid collapse, rows {named} and {label} disagree")
    heads = [spans[r] for r in rid[np.flatnonzero(np.diff(owner, prepend=-1))].tolist()]  # each class's first member
    # a class's row holds its first member's targets: up to the nonzeros in all, past the entries read
    check_budget(sum(s.stop - s.start for s in heads), "collapse: reduced table", "entries", NONZERO_BUDGET, "nonzero")
    return CollapsedTable(tuple(normalized), tuple(dict(zip(targets[s].tolist(), sums[s].tolist())) for s in heads))
