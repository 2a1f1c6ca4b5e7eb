"""Subalgebra generation, hierarchy levels, descent chains and collapses.

The generator set splits into blocks of equal children sets.  Flows between
blocks follow strict containment of children sets, which yields a DAG; the
level of a block is its longest flow distance to a diagonal singleton.
Diagonal pairs sit alone at level 0, every other block strictly above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .algebra import EvolutionAlgebra
from .errors import ValidationError
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
    """Least support-closed superset of the seed generators."""
    todo = [algebra.pair_index(p) for p in seed]
    if not todo:
        raise ValidationError("generated_subalgebra: seed must be nonempty")
    basis = set(todo)
    while todo:
        current = todo.pop()
        for j in algebra.matrix.support(current):
            if j not in basis:
                basis.add(j)
                todo.append(j)
    return Subalgebra(frozenset(basis))


def precedes(algebra: EvolutionAlgebra, tau, sigma) -> bool:
    """Whether the row of ``sigma`` carries a positive coefficient at ``tau``."""
    t = algebra.pair_index(tau)
    s = algebra.pair_index(sigma)
    cells = set(algebra.matrix.children_cells(s))
    a, b = divmod(t, algebra.kn)
    return a in cells and b in cells


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
    own chain.
    """
    kn = algebra.kn
    matrix = algebra.matrix
    current = algebra.pair_index(sigma)
    if len(matrix.children_cells(current)) == 1:
        return DescentChain((algebra.pair_from_index(current),))
    chain = []
    while True:
        cells = matrix.children_cells(current)
        cur_set = frozenset(cells)
        transit, diagonal = [], []
        for a in cells:
            for b in cells:
                candidate = a * kn + b
                if candidate == current:
                    continue
                cand_cells = frozenset(matrix.children_cells(candidate))
                if not cand_cells < cur_set:
                    continue
                (diagonal if len(cand_cells) == 1 else transit).append(candidate)
        if transit:
            current = min(transit)
            chain.append(current)
        else:
            chain.append(min(diagonal))
            return DescentChain(tuple(algebra.pair_from_index(i) for i in chain))


@dataclass(frozen=True)
class Hierarchy:
    """Leveled block decomposition of the generator set.

    ``levels[r]`` lists the blocks of level ``r`` as sorted generator
    tuples; ``flows`` holds ``((level, pos), (level, pos))`` edges, always
    pointing to a strictly lower level.
    """

    levels: tuple
    flows: tuple
    _block_index: dict = field(default=None, repr=False, compare=False)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def block_of(self, index: int):
        """The ``(level, position)`` coordinates of a generator's block."""
        if self._block_index is not None and index in self._block_index:
            return self._block_index[index]
        for lvl, blocks in enumerate(self.levels):
            for pos, block in enumerate(blocks):
                if index in block:
                    return (lvl, pos)
        raise ValidationError(f"generator {index} not present in the hierarchy")


def build_hierarchy(algebra: EvolutionAlgebra) -> Hierarchy:
    """Group generators into row classes and rank them by level.

    A class whose parents differ on ``c`` components sits at level ``c``.
    It flows to its ``3**c - 1`` proper sub-classes: on every disagreeing
    component keep ``lo``, ``hi`` or both, short of both everywhere.
    Blocks of a level are ordered by their smallest generator.
    """
    m = algebra.matrix
    level, level_start = m.row_level, m.level_start
    # the smallest generator of a class is (lo, hi) itself, so classes in
    # key order are blocks in order of their smallest generator
    pos = np.arange(len(level)) - level_start[level]
    order = np.argsort(m.gen_row, kind="stable")
    bounds = np.searchsorted(m.gen_row[order], np.arange(len(level) + 1)).tolist()
    gens = order.tolist()
    blocks = [tuple(gens[bounds[r] : bounds[r + 1]]) for r in range(len(level))]
    levels = tuple(
        tuple(blocks[level_start[c] : level_start[c + 1]]) for c in range(len(level_start) - 1)
    )
    coords = list(zip(level.tolist(), pos.tolist()))
    coord = dict(zip(range(algebra.dimension), map(coords.__getitem__, m.gen_row.tolist())))
    sources, targets = [], []
    for c in range(len(levels)):
        rows = np.arange(level_start[c], level_start[c + 1])
        lo, hi = m.contrib[m.row_lo[rows]], m.contrib[m.row_hi[rows]]
        steps = (hi - lo)[hi != lo].reshape(len(rows), c)
        keep = np.array(list(product(range(3), repeat=c))[:-1]).reshape(3**c - 1, c)
        sub_lo = m.row_lo[rows, None] + steps @ (keep == 1).T
        sub_hi = m.row_lo[rows, None] + steps @ (keep != 0).T
        sub_level = np.count_nonzero(keep == 2, axis=1)
        sub_class = sub_level * algebra.dimension + sub_lo * algebra.kn + sub_hi
        # classes run in (level, position) order: sorting each row sorts the flows
        sources.append(np.repeat(rows, len(keep)))
        targets.append(np.sort(np.searchsorted(m.classes, sub_class), axis=1).ravel())
    src, dst = np.concatenate(sources).tolist(), np.concatenate(targets).tolist()
    flows = tuple(zip(map(coords.__getitem__, src), map(coords.__getitem__, dst)))
    return Hierarchy(levels, flows, coord)


@dataclass(frozen=True)
class StructureCounts:
    dimension: int
    one_dimensional: int
    four_dimensional: int


def structure_counts(algebra: EvolutionAlgebra) -> StructureCounts:
    """Count the singly-generated subalgebras of a connected-graph algebra.

    Diagonal generators each span a one-dimensional subalgebra; unordered
    pairs of distinct cells each generate a four-dimensional one.  The
    enumeration deduplicates bases, it does not just evaluate formulas.
    """
    if len(components(algebra.graph)) != 1:
        raise ValidationError("structure_counts: graph must be connected")
    kn = algebra.kn
    singles = {frozenset(algebra.matrix.support(a * kn + a)) for a in range(kn)}
    if any(len(s) != 1 for s in singles):
        raise ValidationError("structure_counts: diagonal generator with non-unit row")
    quads = set()
    for a in range(kn):
        for b in range(a + 1, kn):
            quads.add(frozenset(algebra.matrix.support(a * kn + b)))
    return StructureCounts(kn * kn, len(singles), len(quads))


@dataclass(frozen=True)
class IsoReport:
    support_equal: bool
    skeleton_equal: bool
    verdict: str


def iso_check(left: EvolutionAlgebra, right: EvolutionAlgebra) -> IsoReport:
    """Compare zero patterns and hierarchy skeletons of two algebras.

    Both algebras must live over the same graph and state space.  The
    verdict only certifies the relation-preserving identity map on
    generators, hence the qualified name.
    """
    if left.graph != right.graph:
        raise ValidationError("iso_check: algebras built over different graphs")
    if left.space != right.space:
        raise ValidationError("iso_check: algebras built over different state spaces")
    lm, rm = left.matrix, right.matrix
    support_equal = np.array_equal(lm.classes[lm.gen_row], rm.classes[rm.gen_row])
    skeleton_equal = build_hierarchy(left).levels == build_hierarchy(right).levels
    verdict = (
        "isomorphic-per-theorem" if support_equal and skeleton_equal else "not-isomorphic-per-theorem"
    )
    return IsoReport(support_equal, skeleton_equal, verdict)


@dataclass(frozen=True)
class CollapsedTable:
    """Reduced squaring table over generator classes.

    ``rows[c]`` maps target class ids to the aggregated coefficients of
    class ``c``'s representative (its first listed member).
    """

    classes: tuple
    rows: tuple

    @property
    def class_count(self) -> int:
        return len(self.classes)


def collapse_by_symmetry(algebra: EvolutionAlgebra, classes) -> CollapsedTable:
    """Collapse generators into classes and reduce the squaring table.

    Every generator's row is aggregated by summing coefficients within each
    target class.  Class members sharing a flow pattern (the same set of
    target classes) must agree within ``1e-10``, otherwise the partition is
    not a valid collapse.  Each class contributes its first member's
    aggregated row to the reduced table.
    """
    normalized = []
    seen = set()
    for cls in classes:
        members = [algebra.pair_index(p) for p in cls]
        if not members:
            raise ValidationError("collapse: empty class")
        if seen & set(members):
            raise ValidationError("collapse: classes must be disjoint")
        seen.update(members)
        normalized.append(tuple(members))
    if seen != set(range(algebra.dimension)):
        raise ValidationError("collapse: classes must partition all generators")
    class_of = {}
    for cid, members in enumerate(normalized):
        for g in members:
            class_of[g] = cid

    def aggregated(g: int) -> dict:
        out: dict = {}
        for j, v in algebra.matrix.row(g).items():
            cid = class_of[j]
            out[cid] = out.get(cid, 0.0) + v
        return out

    rows = []
    for members in normalized:
        agg = {g: aggregated(g) for g in members}
        by_pattern: dict = {}
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
    return CollapsedTable(tuple(normalized), tuple(rows))
