"""The evolution algebra of a graph, a state space and a positive measure.

Generators are the pair cells.  A diagonal pair squares to itself; any other
pair squares to the product-measure distribution over its pair-children,
normalized within that children set.  Distinct generators multiply to zero,
so products of general elements only keep diagonal terms.

Rows of the coefficient matrix depend on a generator only through its
children set, so rows are stored once per distinct children set and shared.
The children mass is computed as the square of the summed cell masses,
which the product structure of the pair-children set makes exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .cells import PairCell, StateSpace, children_indices, component_contributions
from .errors import BudgetError, ValidationError
from .graphs import Graph, components
from .measures import Measure

__all__ = [
    "DIMENSION_BUDGET",
    "NONZERO_BUDGET",
    "COEFF_DROP",
    "HeredityMatrix",
    "AlgebraElement",
    "EvolutionAlgebra",
    "build_algebra",
    "matrix_entries",
    "nonzero_count",
    "export_matrix_csv",
    "export_matrix_json",
    "load_matrix_csv",
    "load_matrix_json",
]

DIMENSION_BUDGET = 65536
NONZERO_BUDGET = 10**7
COEFF_DROP = 1e-15


class HeredityMatrix:
    """Sparse row-stochastic coefficient matrix over the pair cells.

    ``contrib[cell, b]`` is a cell's index contribution on component ``b``.
    A generator's parents give the signature cells ``lo`` and ``hi``, with
    the smaller and the larger contribution on every component, and its
    level, the number of components where they differ; these fix its
    children set.  ``classes`` lists the row classes as ascending
    ``level * k**2n + lo * k**n + hi``, ``gen_row`` maps each generator to
    its class, ``row_level``, ``row_lo`` and ``row_hi`` unpack each class and
    ``level_start`` marks where each level begins.  A row is the outer
    product of the normalized cell weights of its class's children set.
    """

    def __init__(self, graph: Graph, space: StateSpace, measure: Measure):
        n, k = graph.vertex_count, space.k
        kn = k**n
        self.kn = kn
        self.dimension = kn * kn
        cells = np.arange(kn, dtype=np.int64)
        digits = cells[:, None] // k ** np.arange(n, dtype=np.int64) % k
        self.contrib = component_contributions(digits, components(graph), k)
        lo = np.zeros((kn, kn), dtype=np.int64)
        level = np.zeros((kn, kn), dtype=np.int64)
        for part in self.contrib.T:
            lo += np.minimum.outer(part, part)
            level += np.not_equal.outer(part, part)
        # min + max = a + b on every component, so hi = a + b - lo
        hi = np.add.outer(cells, cells) - lo
        self.classes, self.gen_row = np.unique(
            ((level * kn + lo) * kn + hi).ravel(), return_inverse=True
        )
        self.row_level, row_key = np.divmod(self.classes, self.dimension)
        self.row_lo, self.row_hi = np.divmod(row_key, kn)
        self.level_start = np.searchsorted(self.row_level, np.arange(self.row_level[-1] + 2))
        # per level: children (R, 2**c) and normalized weights of its row classes
        self._children, self._weights = [], []
        for c in range(len(self.level_start) - 1):
            rows = slice(self.level_start[c], self.level_start[c + 1])
            kids = children_indices(self.contrib[self.row_lo[rows]], self.contrib[self.row_hi[rows]])
            w = measure.weights[kids]
            self._children.append(kids)
            self._weights.append(w / w.sum(axis=1, keepdims=True))
        self._rows: dict = {}
        self._row_support: dict = {}

    def _row(self, rid: int) -> tuple:
        """Children cells and normalized weights of a row class, as Python objects."""
        row = self._rows.get(rid)
        if row is None:
            c = int(self.row_level[rid])
            pos = rid - self.level_start[c]
            row = tuple(self._children[c][pos].tolist()), self._weights[c][pos].tolist()
            self._rows[rid] = row
        return row

    def children_cells(self, index: int) -> tuple:
        """Sorted cell indices of the generator's children set."""
        return self._row(int(self.gen_row[index]))[0]

    def support(self, index: int) -> tuple:
        """Sorted pair indices carrying nonzero coefficients in this row."""
        rid = int(self.gen_row[index])
        cached = self._row_support.get(rid)
        if cached is None:
            cells = self._row(rid)[0]
            cached = tuple(sorted(a * self.kn + b for a in cells for b in cells))
            self._row_support[rid] = cached
        return cached

    def row(self, index: int) -> dict:
        """The full sparse row as ``{pair_index: coefficient}``."""
        if not 0 <= index < self.dimension:
            raise ValidationError(f"row: pair index {index} out of range")
        cells, w = self._row(int(self.gen_row[index]))
        return {
            a * self.kn + b: w[i] * w[j]
            for i, a in enumerate(cells)
            for j, b in enumerate(cells)
        }

    def entry_chunks(self, max_entries: int = 1 << 12):
        """All nonzero entries as ``(rows, cols, values)`` arrays, sorted.

        Each chunk covers consecutive generators and holds about
        ``max_entries`` entries, more only when one row alone is wider.
        """
        width = 4 ** self.row_level[self.gen_row]
        ends = np.cumsum(width)
        cuts = np.searchsorted(ends, np.arange(0, ends[-1], max_entries), side="right")
        cuts = np.append(np.unique(cuts), self.dimension)
        for g0, g1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            rid, size = self.gen_row[g0:g1], width[g0:g1]
            level, offset = self.row_level[rid], np.cumsum(size) - size
            cols = np.empty(int(size.sum()), dtype=np.int64)
            vals = np.empty(len(cols))
            for c in np.unique(level).tolist():
                sel = level == c
                pos = rid[sel] - self.level_start[c]
                kids, w = self._children[c][pos], self._weights[c][pos]
                at = offset[sel][:, None] + np.arange(4**c)
                cols[at] = (kids[:, :, None] * self.kn + kids[:, None, :]).reshape(len(pos), -1)
                vals[at] = (w[:, :, None] * w[:, None, :]).reshape(len(pos), -1)
            yield np.repeat(np.arange(g0, g1), size), cols, vals


class AlgebraElement:
    """Sparse linear combination of generators; near-zero entries dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict = None):
        self.coeffs = {
            int(i): float(v) for i, v in (coeffs or {}).items() if abs(v) >= COEFF_DROP
        }

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.coeffs)
        for i, v in other.coeffs.items():
            out[i] = out.get(i, 0.0) + v
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "AlgebraElement":
        return AlgebraElement({i: scalar * v for i, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {v:g}" for i, v in sorted(self.coeffs.items()))
        return f"AlgebraElement({{{inner}}})"

    def is_zero(self) -> bool:
        return not self.coeffs

    def distance(self, other: "AlgebraElement") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return max(
            (abs(self.coeffs.get(i, 0.0) - other.coeffs.get(i, 0.0)) for i in keys),
            default=0.0,
        )


@dataclass(frozen=True)
class EvolutionAlgebra:
    """A built algebra: provenance plus its coefficient matrix."""

    graph: Graph
    space: StateSpace
    measure: Measure
    matrix: HeredityMatrix

    @property
    def dimension(self) -> int:
        return self.matrix.dimension

    @property
    def kn(self) -> int:
        return self.matrix.kn

    def pair_index(self, pair) -> int:
        """Accept a pair cell or a raw index; return the index."""
        if isinstance(pair, PairCell):
            if pair.n != self.graph.vertex_count or pair.k != self.space.k:
                raise ValidationError("pair cell does not match this algebra")
            return pair.index
        index = int(pair)
        if not 0 <= index < self.dimension:
            raise ValidationError(f"pair index {index} out of range")
        return index

    def pair_from_index(self, index: int) -> PairCell:
        return PairCell.from_index(index, self.graph.vertex_count, self.space.k)

    def pair_label(self, index: int) -> str:
        return self.pair_from_index(index).label(self.space)

    def pair_labels(self) -> list:
        """Labels of all generators in index order, from a table of the cell labels."""
        # product varies its last place fastest, and vertex 0 is the least significant digit
        cells = [
            "(" + ",".join(reversed(states)) + ")"
            for states in product(self.space.labels, repeat=self.graph.vertex_count)
        ]
        return [f"({a},{b})" for a in cells for b in cells]

    def generator(self, pair) -> AlgebraElement:
        return AlgebraElement({self.pair_index(pair): 1.0})

    def row(self, pair) -> dict:
        """The heredity row of a generator as ``{pair_index: coefficient}``."""
        return self.matrix.row(self.pair_index(pair))

    def square(self, x: AlgebraElement) -> AlgebraElement:
        """Square of an element: squared coefficients drive the rows."""
        out: dict = {}
        for i in sorted(x.coeffs):
            scale = x.coeffs[i] ** 2
            for j, v in self.matrix.row(i).items():
                out[j] = out.get(j, 0.0) + scale * v
        return AlgebraElement(out)

    def multiply(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """Product of two elements; only matching generators survive.

        Accumulation runs in sorted generator order, so the result does not
        depend on the argument order.
        """
        out: dict = {}
        for i in sorted(set(x.coeffs) & set(y.coeffs)):
            scale = x.coeffs[i] * y.coeffs[i]
            for j, v in self.matrix.row(i).items():
                out[j] = out.get(j, 0.0) + scale * v
        return AlgebraElement(out)


def build_algebra(graph: Graph, space: StateSpace, measure: Measure) -> EvolutionAlgebra:
    """Construct the algebra for a graph, state space and positive measure."""
    n, k = graph.vertex_count, space.k
    if k ** (2 * n) > DIMENSION_BUDGET:
        raise BudgetError(
            f"pair space of size k^2n = {k ** (2 * n)} exceeds the budget {DIMENSION_BUDGET}"
        )
    if measure.n != n or measure.k != k:
        raise ValidationError("measure does not match the graph and state space")
    return EvolutionAlgebra(graph, space, measure, HeredityMatrix(graph, space, measure))


def nonzero_count(graph: Graph, k: int) -> int:
    """Nonzero coefficients in closed form: ``prod_b (m + 4 m (m - 1))``, ``m = k**|b|``."""
    return math.prod(k ** len(b) * (4 * k ** len(b) - 3) for b in components(graph))


def matrix_entries(algebra: EvolutionAlgebra):
    """All nonzero matrix entries as ``(row, col, value)``, sorted."""
    for rows, cols, vals in algebra.matrix.entry_chunks():
        yield from zip(rows.tolist(), cols.tolist(), vals.tolist())


def export_matrix_csv(algebra: EvolutionAlgebra, path):
    """Write the entries as ``csv.writer`` would, one chunk of rows at a time."""
    with open(path, "w", newline="") as fh:
        fh.write("row,col,value\r\n")
        for rows, cols, vals in algebra.matrix.entry_chunks():
            entries = zip(rows.tolist(), cols.tolist(), vals.tolist())
            fh.write("".join(f"{i},{j},{v!r}\r\n" for i, j, v in entries))


def export_matrix_json(algebra: EvolutionAlgebra, path):
    """Write what ``json.dump(payload, fh, sort_keys=True, indent=1)`` would, a chunk at a time."""
    labels = json.dumps(algebra.pair_labels(), indent=1).replace("\n", "\n ")
    with open(path, "w") as fh:
        fh.write(f'{{\n "dimension": {algebra.dimension},\n "entries": [')
        sep = "\n"
        for rows, cols, vals in algebra.matrix.entry_chunks():
            entries = zip(rows.tolist(), cols.tolist(), vals.tolist())
            fh.write(sep + ",\n".join(f"  [\n   {i},\n   {j},\n   {v!r}\n  ]" for i, j, v in entries))
            sep = ",\n"
        fh.write(
            f'\n ],\n "labels": {labels},\n "schema_version": 1,\n'
            f' "states": {algebra.space.k},\n "vertices": {algebra.graph.vertex_count}\n}}\n'
        )


def load_matrix_csv(path) -> dict:
    """Read an exported CSV back into ``{(row, col): value}``."""
    entries = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["row", "col", "value"]:
            raise ValidationError("matrix csv: unexpected header")
        for r, c, v in reader:
            entries[(int(r), int(c))] = float(v)
    return entries


def load_matrix_json(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != 1:
        raise ValidationError("matrix json: unsupported schema_version")
    return {(int(r), int(c)): float(v) for r, c, v in payload["entries"]}
