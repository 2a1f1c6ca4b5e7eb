"""The evolution algebra of a graph, a state space and a positive measure.

Generators are the pair cells.  A diagonal pair squares to itself; any other
pair squares to the product-measure distribution over its pair-children,
normalized within that children set.  Distinct generators multiply to zero,
so products of general elements only keep diagonal terms.

Rows of the coefficient matrix depend on a generator only through its
children set, so rows are stored once per distinct children set and shared.
Those row classes depend on the graph and the state count alone: a
``RowClassLayout`` holds them, and a ``HeredityMatrix`` adds one measure's
weights, so the algebras of many measures can share one layout.
The children mass is computed as the square of the summed cell masses,
which the product structure of the pair-children set makes exact.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import ItemsView, Mapping, ValuesView
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise, product
from json.encoder import encode_basestring_ascii

import numpy as np

from .cells import PairCell, StateSpace, children_indices, component_contributions, state_axes
from .errors import ValidationError, check_budget, is_index, shown
from .graphs import Graph, components
from .measures import Measure

__all__ = [
    "DIMENSION_BUDGET",
    "NONZERO_BUDGET",
    "COEFF_DROP",
    "RowClassLayout",
    "HeredityMatrix",
    "AlgebraElement",
    "EvolutionAlgebra",
    "build_algebra",
    "check_budgets",
    "matrix_entries",
    "nonzero_count",
    "export_matrix_csv",
    "export_matrix_json",
    "write_matrix",
]

DIMENSION_BUDGET = 65536
NONZERO_BUDGET = 10**7
COEFF_DROP = 1e-15
# combine sums over all columns once its entries reach dimension / _DENSE_SHARE: measured, that was
# as fast or faster from 4 entries up at dimension 4,096, and from dimension/16 up at 65,536
_DENSE_SHARE = 8
# entries per chunk of a walk over the matrix
_CHUNK_ENTRIES = 1 << 12


def _row_classes(contrib: np.ndarray, parts: tuple, n: int, k: int) -> tuple:
    """``HeredityMatrix``'s ``gen_row``, ``row_lo`` and ``row_hi`` (int32) and ``row_level`` (int64), from a table of
    unordered subcell pairs per component (none with one state), subcells ascending as the cell axes run; only class
    keys are sorted.  The ``(k^n)^2`` class table, each component's table and the ranks are int32 too."""
    kn = len(contrib)
    level = np.zeros(1, dtype=np.int64)  # row_level feeds 4 ** level
    lo = hi = np.zeros(1, dtype=np.int32)
    classes = np.zeros((kn, kn), dtype=np.int32)
    for column, part in zip(contrib.T, parts if k > 1 else ()):
        values = np.flatnonzero(np.bincount(column)).astype(np.int32)
        j, i = np.nonzero(np.tri(len(values), dtype=bool))  # i <= j
        table = np.zeros((len(values),) * 2, dtype=np.int32)
        table[i, j] = table[j, i] = np.arange(len(i)) * len(level)  # mixed radix over the components so far
        classes.reshape((k,) * 2 * n)[...] += table.reshape([k if v in part else 1 for v in reversed(range(n))] * 2)
        level, lo, hi = (np.add.outer(b, a).ravel() for a, b in ((level, i != j), (lo, values[i]), (hi, values[j])))
    order = np.argsort((level * kn + lo) * kn + hi)
    ranks = np.empty(len(order), dtype=np.int32)
    ranks[order] = np.arange(len(order))
    # each generator's class is read before its rank is written over it, and "clip" takes no buffer
    return np.take(ranks, classes.ravel(), out=classes.ravel(), mode="clip"), level[order], lo[order], hi[order]


class RowClassLayout:
    """The row classes of the pair cells over a graph and a state space: the same for every positive measure.

    ``contrib[cell, b]`` is a cell's index contribution on component ``b``.  A generator's parents give the signature
    cells ``lo`` and ``hi``, of the smaller and the larger contribution on each component, and its level, the number of
    components where they differ; these fix its children set.  So a row class is one unordered pair of subcells per
    component, and ``_row_classes`` enumerates the classes per component.  They run by level, then by ``(lo, hi)``:
    ``gen_row`` maps each generator to its class, ``row_level``, ``row_lo`` and ``row_hi`` give each class's level and
    smallest generator ``(lo, hi)``, ``level_start`` marks where each level begins, and ``level_children[c][p]`` holds
    the ascending children of the class at position ``p`` of level ``c``.  The cell, class and children arrays are
    int32, which holds any pair index within ``DIMENSION_BUDGET``; ``row_level`` is int64: it feeds ``4 ** level``.
    One layout serves the ``HeredityMatrix`` of every measure on its graph and state space.
    """

    def __init__(self, graph: Graph, space: StateSpace):
        n, k = graph.vertex_count, space.k
        self.kn = k**n
        self.dimension = self.kn**2
        parts = components(graph)
        self.contrib = component_contributions(state_axes(n, k), parts, k).astype(np.int32)
        self.gen_row, self.row_level, self.row_lo, self.row_hi = _row_classes(self.contrib, parts, n, k)
        self.level_start = np.searchsorted(self.row_level, np.arange(self.row_level[-1] + 2))
        # per level: the children (R, 2**c) of its row classes
        self.level_children = [children_indices(self.contrib[self.row_lo[a:b]], self.contrib[self.row_hi[a:b]])
                               for a, b in pairwise(self.level_start.tolist())]

    def pairs(self, kids: np.ndarray) -> np.ndarray:
        """The pair indices of a children set, or of each row of an array of them, flat: ascending for sorted sets."""
        return (kids[..., :, None] * self.kn + kids[..., None, :]).ravel()

    def walk(self, cols: np.ndarray, values: np.ndarray):
        """Chunks of consecutive generators, about ``_CHUNK_ENTRIES`` entries each, as ``(rows, cols, values)``: one
        ragged gather of each generator's class entries from ``cols`` and ``values``, laid out class after class as
        ``HeredityMatrix._expand`` lays out all classes."""
        width = 4**self.row_level
        size = width[self.gen_row]
        ends = np.cumsum(size)
        # a generator's entry e sits at e + shift in the class layout
        shift = (np.cumsum(width) - width)[self.gen_row] - (ends - size)
        cuts = np.searchsorted(ends, np.arange(0, ends[-1], _CHUNK_ENTRIES), side="right")
        # ascending already, so a neighbour mask drops the repeats: plain np.unique would import numpy.ma
        cuts = np.append(cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))], self.dimension)
        for g0, g1 in pairwise(cuts.tolist()):
            at = np.arange(ends[g0] - size[g0], ends[g1 - 1]) + np.repeat(shift[g0:g1], size[g0:g1])
            yield np.repeat(np.arange(g0, g1), size[g0:g1]), cols[at], values[at]


class HeredityMatrix:
    """Sparse row-stochastic coefficient matrix over the pair cells: a measure's weights over a ``RowClassLayout``.

    ``_weights[c][p]`` holds the normalized weights of the children ``layout.level_children[c][p]``; they are all this
    class adds to its layout.  A row is the outer product of a class's normalized weights, formed by ``_outer`` alone
    and laid out by ``_expand``.
    """

    def __init__(self, layout: RowClassLayout, measure: Measure):
        self.layout = layout
        weights = [measure.weights[kids] for kids in layout.level_children]
        self._weights = [np.divide(w, w.sum(axis=1, keepdims=True), out=w) for w in weights]

    def children(self, index: int) -> tuple:
        """Ascending children cells and their normalized weights, as arrays.

        Both are rows of per-level arrays shared by the generator's whole
        row class; the generator's heredity row is their outer product.
        """
        layout = self.layout
        if not (is_index(index) and 0 <= index < layout.dimension):
            raise ValidationError(f"row: pair index {index} out of range")
        rid = layout.gen_row[index]
        c = layout.row_level[rid]
        pos = rid - layout.level_start[c]
        return layout.level_children[c][pos], self._weights[c][pos]

    def _outer(self, kids: np.ndarray, w: np.ndarray) -> tuple:
        """The entries of row classes with children ``kids`` and weights ``w``, ``(..., m)``: columns and products."""
        return self.layout.pairs(kids), (w[..., :, None] * w[..., None, :]).ravel()

    def _expand(self, rids: np.ndarray) -> tuple:
        """The columns (int32) and products of the ascending row classes ``rids``, class after class, from ``_outer``
        one level at a time, and each class's entry count."""
        level_start, level_children = self.layout.level_start, self.layout.level_children
        counts = 4 ** self.layout.row_level[rids]
        cols, prods = np.empty(counts.sum(), dtype=np.int32), np.empty(counts.sum())
        start = 0
        for c, (r0, r1) in enumerate(pairwise(np.searchsorted(rids, level_start).tolist())):
            pos, stop = rids[r0:r1] - level_start[c], start + (r1 - r0) * 4**c
            cols[start:stop], prods[start:stop] = self._outer(level_children[c][pos], self._weights[c][pos])
            start = stop
        return cols, prods, counts

    def row(self, index: int) -> dict:
        """The full sparse row as ``{pair_index: coefficient}``."""
        cols, prods = self._outer(*self.children(index))
        return dict(zip(cols.tolist(), prods.tolist()))

    def combine(self, gens: np.ndarray, scales: np.ndarray) -> tuple:
        """``sum_g scales[g] * row(gens[g])`` as ascending int64 keys and their float64 coefficients.

        ``gens`` must be ascending and in range: scales are summed per row class in that order, so equal inputs give
        equal bits.  The classes expand to their entries, each ``(w_i * w_j) * scale``, summed per column in that order
        over all columns or over the sorted distinct ones, with the same bits either way.  Coefficients below
        ``COEFF_DROP`` drop.
        """
        rids, inverse = np.unique(self.layout.gen_row[gens], return_inverse=True)
        cols, vals, counts = self._expand(rids)
        vals *= np.repeat(np.bincount(inverse, weights=scales), counts)
        dense = len(cols) * _DENSE_SHARE >= self.layout.dimension
        # one bincount either way, and it adds each column's terms in input order
        distinct, at = (None, cols) if dense else np.unique(cols, return_inverse=True)
        sums = np.bincount(at, weights=vals, minlength=self.layout.dimension if dense else 0)
        keep = np.flatnonzero(np.abs(sums) >= COEFF_DROP)
        return (keep if dense else distinct[keep].astype(np.int64)), sums[keep]

    def entry_chunks(self):
        """All nonzero entries as ``(rows, cols, values)`` arrays, sorted, about ``_CHUNK_ENTRIES`` a chunk."""
        return self.layout.walk(*self._expand(np.arange(len(self.layout.row_level)))[:2])

    @cached_property
    def _text_table(self) -> tuple:
        """All class entries' columns and their coefficients' places among the distinct ones, int32, laid out as
        ``_expand`` does; the distinct coefficients' ``repr`` texts; the indices' ``str``.

        One sort gives both the distinct coefficients and every entry's place among them, and the products are freed
        before any text is made.  Each distinct value is formatted once, from float lists of ``_CHUNK_ENTRIES`` values at
        a time: ``build`` of edgeless n=4, k=4 under 256 distinct weights peaks at 74.5 MiB, where one float list of all
        its 300,908 distinct values took 79.5.
        """
        cols, products, _ = self._expand(np.arange(len(self.layout.row_level)))
        values, at = np.unique(products, return_inverse=True)
        at = at.astype(np.int32)
        del products
        texts = np.empty(len(values), dtype=object)
        for i in range(0, len(values), _CHUNK_ENTRIES):
            texts[i : i + _CHUNK_ENTRIES] = list(map(repr, values[i : i + _CHUNK_ENTRIES].tolist()))
        dimension = self.layout.dimension
        return cols, at, texts, np.fromiter(map(str, range(dimension)), dtype=object, count=dimension)

    def entry_texts(self):
        """``entry_chunks`` as ``(row, col, value)`` object arrays of texts, from the same walk over ``_text_table``,
        which only an export builds."""
        chunks = self.layout.walk(*self._text_table[:2])
        value_text, index_text = self._text_table[2:]
        return ((index_text[rows], index_text[cols], value_text[at]) for rows, cols, at in chunks)


def write_joined(files, columns, first=None):
    """Write the ``columns`` to each of ``files``, interleaved row by row; ``first`` replaces the first text.  A column
    is an array of texts, one text for every row or a tuple of such texts, one per file; ``first`` is one text or a
    tuple of them.  Per 1,024 rows the arrays fill their slots of one list of pieces once for all files, and each file
    fills its texts into the other slots and writes the list with one ``"".join``.  A batch's list and text then
    stay under the 128 KiB from which glibc's ``malloc`` maps a block's pages afresh: with 4,096 rows, ``build`` of
    a path n=6 took about 550 minor page faults, and with 1,024 none."""
    width = len(columns)
    count = max(len(column) for column in columns if not isinstance(column, (str, tuple)))
    for start in range(0, count, 1024):
        size = min(count - start, 1024)
        pieces = [None] * (size * width)
        for j, column in enumerate(columns):
            if not isinstance(column, (str, tuple)):
                pieces[j::width] = column[start : start + size].tolist()
        for i, fh in enumerate(files):
            for j, column in enumerate(columns):
                if isinstance(column, (str, tuple)):
                    pieces[j::width] = [column if isinstance(column, str) else column[i]] * size
            if first is not None and not start:
                pieces[0] = first if isinstance(first, str) else first[i]
            fh.write("".join(pieces))


def write_labels(fh, algebra: EvolutionAlgebra, runs, quoted: bool):
    """Write generator labels run by run: a run ``(lead, gens, seps)`` writes the labels of the generators ``gens``,
    each after its text in ``seps`` (one text or one per generator), with ``lead`` in place of the first text.  A label
    is ``pair_label``'s text, ``(`` + cell label + ``,`` + cell label + ``)``, read off the cell-label table by two index
    columns; ``quoted`` writes it as the JSON string ``encode_basestring_ascii`` gives, which escapes character by
    character, so each cell label is escaped once."""
    cells = algebra.cell_labels()
    if quoted:
        cells = [encode_basestring_ascii(cell)[1:-1] for cell in cells]
    quote = '"' * quoted
    left = np.array([f"{quote}({cell}," for cell in cells], dtype=object)
    right = np.array([f"{cell}){quote}" for cell in cells], dtype=object)
    for lead, gens, seps in runs:
        first, second = np.divmod(gens, algebra.kn)
        write_joined((fh,), (seps, left[first], right[second]), lead)


class _Coefficients(Mapping):
    """A read-only ``{generator: coefficient}`` view of ascending int64 keys and their float64 values: it iterates in
    key order, gives Python ``int`` and ``float``, and finds a key by ``searchsorted``."""

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self._keys, self._values = keys, values

    def __getitem__(self, key) -> float:
        if is_index(key):
            at = self._keys.searchsorted(key)
            if at < len(self._keys) and self._keys.item(at) == key:
                return self._values.item(at)
        raise KeyError(key)

    def __iter__(self):
        return iter(self._keys.tolist())

    def __len__(self) -> int:
        return len(self._keys)

    def items(self) -> ItemsView:
        """The pairs, from a dict made for the call: ``Mapping``'s own would search for every key."""
        return dict(zip(self._keys.tolist(), self._values.tolist())).items()

    def values(self) -> ValuesView:
        return self.items().mapping.values()


def _element(value, name: str) -> "AlgebraElement":
    """``value``, which must be an element: else a ``ValidationError`` names the argument ``name`` and its type."""
    if not isinstance(value, AlgebraElement):
        raise ValidationError(f"{name} must be an AlgebraElement, got {type(value).__name__}")
    return value


class AlgebraElement:
    """Sparse linear combination of generators; near-zero entries dropped.

    Keys must be integers and coefficients finite reals; whether a key is a
    generator of a given algebra is checked where the algebra reads it.
    ``coeffs`` is a read-only view of the ascending keys and their values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict = None):
        kept = {}
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
                kept[int(i)] = float(v)
        try:
            keys = np.fromiter(kept, dtype=np.int64, count=len(kept))
        except OverflowError:  # no algebra has a generator past int64
            raise ValidationError(f"pair index {max(kept, key=abs)} out of range") from None
        order = keys.argsort()
        self.coeffs = _Coefficients(keys[order], np.fromiter(kept.values(), dtype=np.float64, count=len(kept))[order])

    @classmethod
    def _of(cls, keys: np.ndarray, values: np.ndarray) -> "AlgebraElement":
        """Wrap computed ascending int64 keys and float64 values, none below ``COEFF_DROP``, unchecked."""
        element = cls.__new__(cls)
        element.coeffs = _Coefficients(keys, values)
        return element

    @classmethod
    def _kept(cls, keys: np.ndarray, values: np.ndarray) -> "AlgebraElement":
        """Wrap computed ``values`` of ascending int64 ``keys``, those below ``COEFF_DROP`` dropped; values that are not
        all finite float64 go through the constructor, whose checks name the first it rejects."""
        if values.dtype != np.float64 or not np.isfinite(values).all():
            return cls(dict(zip(keys.tolist(), values.tolist())))
        keep = np.abs(values) >= COEFF_DROP
        return cls._of(keys[keep], values[keep])

    def _merged(self, other: "AlgebraElement", sign: float) -> tuple:
        """``self + sign * other`` over both elements' generators, ascending: keys and values, none dropped."""
        mine, theirs = self.coeffs, other.coeffs
        keys = np.union1d(mine._keys, theirs._keys)
        values = np.zeros(len(keys))
        values[keys.searchsorted(mine._keys)] = mine._values
        values[keys.searchsorted(theirs._keys)] += sign * theirs._values
        return keys, values

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement._kept(*self._merged(other, 1.0))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement._kept(*self._merged(other, -1.0))

    def __rmul__(self, scalar: float) -> "AlgebraElement":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return AlgebraElement._kept(self.coeffs._keys, scalar * self.coeffs._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return False
        mine, theirs = self.coeffs, other.coeffs
        return np.array_equal(mine._keys, theirs._keys) and np.array_equal(mine._values, theirs._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {v:g}" for i, v in self.coeffs.items())
        return f"AlgebraElement({{{inner}}})"

    def is_zero(self) -> bool:
        return not self.coeffs

    def distance(self, other: "AlgebraElement") -> float:
        return float(np.abs(self._merged(_element(other, "other"), -1.0)[1]).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class EvolutionAlgebra:
    """A built algebra: provenance plus its coefficient matrix.  It equals and hashes as itself alone, as its
    measure and matrix do."""

    graph: Graph
    space: StateSpace
    measure: Measure
    matrix: HeredityMatrix

    @property
    def dimension(self) -> int:
        return self.matrix.layout.dimension

    @property
    def kn(self) -> int:
        return self.matrix.layout.kn

    def with_measure(self, measure: Measure) -> EvolutionAlgebra:
        """The algebra of another measure on this graph and state space, over this algebra's layout object: only the
        weights are made anew, so every entry is that of ``build_algebra`` with the other measure, bit for bit."""
        _check_measure(self.graph, self.space, measure)
        return EvolutionAlgebra(self.graph, self.space, measure, HeredityMatrix(self.matrix.layout, measure))

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

    def cell_labels(self) -> list:
        """Labels of the k**n cells in index order; generator ``g`` pairs cells ``g // k**n`` and ``g % k**n``."""
        # product varies its last place fastest, and vertex 0 is the least significant digit
        cells = product(self.space.labels, repeat=self.graph.vertex_count)
        return ["(" + ",".join(reversed(states)) + ")" for states in cells]

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
        ``HeredityMatrix.combine``.  The shorter key array is found in the
        longer by ``searchsorted``.  The result does not depend on the
        argument order, bit for bit.
        """
        x, y = _element(x, "x").coeffs, _element(y, "y").coeffs
        for keys in (x._keys, y._keys):
            if len(keys) and (keys[0] < 0 or keys[-1] >= self.dimension):
                raise ValidationError(f"pair index {keys[0] if keys[0] < 0 else keys[-1]} out of range")
        short, long = sorted((x, y), key=len)
        at = long._keys.searchsorted(short._keys)
        found = np.flatnonzero(long._keys.take(at, mode="clip") == short._keys)
        gens, scales = short._keys[found], short._values[found] * long._values[at[found]]
        return AlgebraElement._of(*self.matrix.combine(gens, scales))


def check_budgets(graph: Graph, space: StateSpace, nonzeros: bool = False) -> None:
    """Reject, before any work, more cells, nonzeros (with ``nonzeros``) or generators than a budget allows, in order."""
    check_budget(space.k**graph.vertex_count, "cell space: k^n", "cells")
    if nonzeros:
        check_budget(nonzero_count(graph, space.k), "heredity matrix: prod_b k^|b|(4k^|b|-3)", "nonzeros",
                     NONZERO_BUDGET, "nonzero")
    check_budget(space.k ** (2 * graph.vertex_count), "pair space: k^2n", "generators", DIMENSION_BUDGET, "dimension")


def build_algebra(graph: Graph, space: StateSpace, measure: Measure) -> EvolutionAlgebra:
    """Construct the algebra for a graph, state space and positive measure."""
    check_budgets(graph, space)
    _check_measure(graph, space, measure)
    return EvolutionAlgebra(graph, space, measure, HeredityMatrix(RowClassLayout(graph, space), measure))


def _check_measure(graph: Graph, space: StateSpace, measure: Measure) -> None:
    """Reject a measure of another vertex count or state count than the graph and the state space."""
    if measure.n != graph.vertex_count or measure.k != space.k:
        raise ValidationError("measure does not match the graph and state space")


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
    if not (csv_path or json_path):
        raise ValidationError("write_matrix: csv_path or json_path required, got neither")
    with ExitStack() as files:
        csv_fh = csv_path and files.enter_context(open(csv_path, "w", newline=""))
        json_fh = json_path and files.enter_context(open(json_path, "w"))
        # per file: its head, then the texts that open an entry's row, column and value; each entry opens with the
        # text that closes the one before, and the first with the head instead
        head = f'{{\n "dimension": {algebra.dimension},\n "entries": [\n  [\n   '
        formats = (csv_fh, "row,col,value\r\n", "\r\n", ",", ","), (json_fh, head, "\n  ],\n  [\n   ", ",\n   ", ",\n   ")
        fhs, firsts, *seps = zip(*(texts for texts in formats if texts[0]))
        for rows, cols, vals in algebra.matrix.entry_texts():
            write_joined(fhs, (seps[0], rows, seps[1], cols, seps[2], vals), firsts)
            firsts = None
        if csv_fh:
            csv_fh.write("\r\n")
        if json_fh:
            write_labels(json_fh, algebra, [('\n  ]\n ],\n "labels": [\n  ', np.arange(algebra.dimension), ",\n  ")], True)
            json_fh.write(f'\n ],\n "schema_version": 1,\n "states": {algebra.space.k},\n'
                          f' "vertices": {algebra.graph.vertex_count}\n}}\n')


def export_matrix_csv(algebra: EvolutionAlgebra, path):
    """Write the entries as ``csv.writer`` would: ``write_matrix`` for the CSV alone."""
    write_matrix(algebra, csv_path=path)


def export_matrix_json(algebra: EvolutionAlgebra, path):
    """Write what ``json.dump(payload, fh, sort_keys=True, indent=1)`` would: ``write_matrix`` for the JSON alone."""
    write_matrix(algebra, json_path=path)

