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
import numbers
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from json.encoder import encode_basestring_ascii

import numpy as np

from .cells import PairCell, StateSpace, cell_digits, children_indices, component_contributions
from .errors import BudgetError, ValidationError, is_index, shown
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
    "write_matrix",
    "load_matrix_csv",
    "load_matrix_json",
]

DIMENSION_BUDGET = 65536
NONZERO_BUDGET = 10**7
COEFF_DROP = 1e-15
# combine sums over all columns once its entries reach dimension / _DENSE_SHARE: measured, that was
# as fast or faster from 4 entries up at dimension 4,096, and from dimension/16 up at 65,536
_DENSE_SHARE = 8


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
        self.contrib = component_contributions(cell_digits(n, k), components(graph), k)
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

    def children(self, index: int) -> tuple:
        """Ascending children cells and their normalized weights, as arrays.

        Both are rows of per-level arrays shared by the generator's whole
        row class; the generator's heredity row is their outer product.
        """
        rid = self.gen_row[index]
        c = self.row_level[rid]
        pos = rid - self.level_start[c]
        return self._children[c][pos], self._weights[c][pos]

    def row(self, index: int) -> dict:
        """The full sparse row as ``{pair_index: coefficient}``."""
        if not 0 <= index < self.dimension:
            raise ValidationError(f"row: pair index {index} out of range")
        kids, w = self.children(index)
        cols = np.add.outer(kids * self.kn, kids).ravel()
        return dict(zip(cols.tolist(), np.outer(w, w).ravel().tolist()))

    def combine(self, gens: list, scales: list) -> dict:
        """``sum_g scales[g] * row(gens[g])`` as ``{pair_index: coefficient}``.

        ``gens`` must be ascending and in range: scales are summed per row
        class in that order, so equal inputs give equal bits.  Each level's
        classes expand to outer-product entries, summed per column in that
        order over all columns or over the sorted distinct ones, with the
        same bits either way.  Keys come out ascending; coefficients below
        ``COEFF_DROP`` drop.
        """
        rids, inverse = np.unique(self.gen_row[np.array(gens, dtype=np.int64)], return_inverse=True)
        totals = np.bincount(inverse, weights=scales)
        bounds = np.searchsorted(rids, self.level_start).tolist()
        cols, vals = [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for c, (r0, r1) in enumerate(zip(bounds[:-1], bounds[1:])):
            pos = rids[r0:r1] - self.level_start[c]
            kids, w = self._children[c][pos], self._weights[c][pos]
            cols.append((kids[:, :, None] * self.kn + kids[:, None, :]).ravel())
            vals.append((w[:, :, None] * w[:, None, :] * totals[r0:r1, None, None]).ravel())
        cols, vals = np.concatenate(cols), np.concatenate(vals)
        dense = len(cols) * _DENSE_SHARE >= self.dimension
        # one bincount either way, and it adds each column's terms in input order
        distinct, at = (None, cols) if dense else np.unique(cols, return_inverse=True)
        sums = np.bincount(at, weights=vals, minlength=self.dimension if dense else 0)
        keep = np.flatnonzero(np.abs(sums) >= COEFF_DROP)
        return dict(zip((keep if dense else distinct[keep]).tolist(), sums[keep].tolist()))

    def _walk(self, max_entries: int, block, dtype):
        """Chunks of consecutive generators, about ``max_entries`` entries each, as ``(rows, cols, values)``.

        ``block(c, pos)`` gives the values of the level-``c`` row classes at ``pos``, ``(len(pos), 4**c)``.
        """
        width = 4 ** self.row_level[self.gen_row]
        ends = np.cumsum(width)
        cuts = np.searchsorted(ends, np.arange(0, ends[-1], max_entries), side="right")
        cuts = np.append(np.unique(cuts), self.dimension)
        for g0, g1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            rid, size = self.gen_row[g0:g1], width[g0:g1]
            level, offset = self.row_level[rid], np.cumsum(size) - size
            cols = np.empty(int(size.sum()), dtype=np.int64)
            vals = np.empty(len(cols), dtype=dtype)
            for c in np.unique(level).tolist():
                sel = level == c
                pos = rid[sel] - self.level_start[c]
                kids = self._children[c][pos]
                at = offset[sel][:, None] + np.arange(4**c)
                cols[at] = (kids[:, :, None] * self.kn + kids[:, None, :]).reshape(len(pos), -1)
                vals[at] = block(c, pos)
            yield np.repeat(np.arange(g0, g1), size), cols, vals

    def entry_chunks(self, max_entries: int = 1 << 12):
        """All nonzero entries as ``(rows, cols, values)`` arrays, sorted, about ``max_entries`` a chunk."""
        return self._walk(max_entries, lambda c, pos: _outer(self._weights[c][pos]), float)

    @cached_property
    def _text_table(self) -> tuple:
        """Per level, the ``repr`` texts of the row classes' entries, ``(R, 4**c)``; the ``str`` texts of the indices.

        Each distinct coefficient is formatted once and found per level by binary search; an inverse from
        ``np.unique`` over all levels raised the peak memory of edgeless n=4, k=4 from 51 to 71 MiB.
        """
        values = np.unique(np.concatenate([_outer(w).ravel() for w in self._weights]))
        texts = np.array(list(map(repr, values.tolist())), dtype=object)
        value_text = [texts[np.searchsorted(values, _outer(w))] for w in self._weights]
        return value_text, np.array(list(map(str, range(self.dimension))), dtype=object)

    def entry_texts(self, max_entries: int = 1 << 12):
        """``entry_chunks`` as flat ``(row, col, value, ...)`` tuples of strings, from the same walk.

        Values are read per row class from ``_text_table``, which only an export builds; no chunk is sorted.
        """
        value_text, index_text = self._text_table
        for rows, cols, vals in self._walk(max_entries, lambda c, pos: value_text[c][pos], object):
            cells = np.empty((len(vals), 3), dtype=object)
            cells[:, 0], cells[:, 1], cells[:, 2] = index_text[rows], index_text[cols], vals
            yield tuple(cells.ravel().tolist())


def _outer(w: np.ndarray) -> np.ndarray:
    """Each row of ``w`` times itself as a flat outer product: the row-class entries, ``(R, 4**c)``."""
    return (w[:, :, None] * w[:, None, :]).reshape(len(w), -1)


class AlgebraElement:
    """Sparse linear combination of generators; near-zero entries dropped.

    Keys must be integers and coefficients finite reals; whether a key is a
    generator of a given algebra is checked where the algebra reads it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict = None):
        self.coeffs = {}
        for i, v in (coeffs or {}).items():
            if not is_index(i):
                raise ValidationError(f"element: generator must be an integer, got {shown(i)}")
            try:
                finite = (type(v) is float or isinstance(v, numbers.Real)) and math.isfinite(v)
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise ValidationError(f"element: coefficient of {i} must be a finite real, got {shown(v)}")
            if abs(v) >= COEFF_DROP:
                self.coeffs[int(i)] = float(v)

    @classmethod
    def _of(cls, coeffs: dict) -> "AlgebraElement":
        """Wrap computed ``{int: float}`` coefficients, none below ``COEFF_DROP``, unchecked."""
        element = cls.__new__(cls)
        element.coeffs = coeffs
        return element

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
        if not is_index(pair):
            raise ValidationError(f"pair index must be an integer or a pair cell, got {shown(pair)}")
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
        """Square of an element: ``multiply(x, x)``, bit for bit."""
        return self.multiply(x, x)

    def multiply(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """Product of two elements; only matching generators survive.

        Every key of either factor must be a generator of this algebra.  The
        products ``x_i * y_i`` of the shared generators, in ascending order,
        scale the rows of their row classes, and the rows are summed by
        ``HeredityMatrix.combine``.  The result does not depend on the
        argument order, bit for bit.
        """
        for coeffs in (x.coeffs, y.coeffs):
            low, high = min(coeffs, default=0), max(coeffs, default=0)
            if low < 0 or high >= self.dimension:
                raise ValidationError(f"pair index {low if low < 0 else high} out of range")
        gens = sorted(x.coeffs.keys() & y.coeffs.keys())
        return AlgebraElement._of(self.matrix.combine(gens, [x.coeffs[i] * y.coeffs[i] for i in gens]))


def build_algebra(graph: Graph, space: StateSpace, measure: Measure) -> EvolutionAlgebra:
    """Construct the algebra for a graph, state space and positive measure."""
    n, k = graph.vertex_count, space.k
    if k ** (2 * n) > DIMENSION_BUDGET:
        raise BudgetError(f"pair space of size k^2n = {k ** (2 * n)} exceeds the budget {DIMENSION_BUDGET}")
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


def write_matrix(algebra: EvolutionAlgebra, csv_path=None, json_path=None):
    """Write the CSV export, the JSON export or both, chunk by chunk in one walk over ``entry_texts``:
    what ``csv.writer`` and ``json.dump(payload, fh, sort_keys=True, indent=1)`` would write."""
    # the labels go first: made while the text table is held, their lists would raise the peak memory
    labels = ",\n  ".join(map(encode_basestring_ascii, algebra.pair_labels())) if json_path else ""
    heads = ("row,col,value\r\n", f'{{\n "dimension": {algebra.dimension},\n "entries": [\n')
    with ExitStack() as files:
        csv_fh = csv_path and files.enter_context(open(csv_path, "w", newline=""))
        json_fh = json_path and files.enter_context(open(json_path, "w"))
        for cells in algebra.matrix.entry_texts():
            count = len(cells) // 3
            if csv_fh:
                csv_fh.write(heads[0] + "%s,%s,%s\r\n" * count % cells)
            if json_fh:
                json_fh.write(heads[1] + ",\n".join(["  [\n   %s,\n   %s,\n   %s\n  ]"] * count) % cells)
            heads = ("", ",\n")  # past the first chunk: no header, and a comma after the previous JSON entry
        if json_fh:
            json_fh.write(f'\n ],\n "labels": [\n  {labels}\n ],\n "schema_version": 1,\n "states": {algebra.space.k},\n'
                          f' "vertices": {algebra.graph.vertex_count}\n}}\n')


def export_matrix_csv(algebra: EvolutionAlgebra, path):
    """Write the entries as ``csv.writer`` would: ``write_matrix`` for the CSV alone."""
    write_matrix(algebra, csv_path=path)


def export_matrix_json(algebra: EvolutionAlgebra, path):
    """Write what ``json.dump(payload, fh, sort_keys=True, indent=1)`` would: ``write_matrix`` for the JSON alone."""
    write_matrix(algebra, json_path=path)


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
