"""Strictly positive probability measures on finite cell spaces.

Measures come either from explicit weight vectors or as Boltzmann-Gibbs
measures of a pair Hamiltonian (single-site fields plus couplings on graph
edges).  Energies are combined in the log domain with max-subtraction, so
large inverse temperatures do not overflow.  The product measure on pairs
is never materialized; pair masses are computed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cells import Cell, base_code, cellwise, state_axes
from .errors import ValidationError, check_budget, cut, is_index, is_number, shown
from .graphs import Graph

__all__ = [
    "Measure",
    "Hamiltonian",
    "DlrGap",
    "from_weights",
    "potts_hamiltonian",
    "hamiltonian_energy",
    "gibbs_measure",
    "conditional_prob",
    "dlr_check",
    "dlr_table",
    "measure_from_json",
]

POSITIVITY_FLOOR = 1e-300
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Measure:
    """Dense strictly positive probability vector over all cells.

    ``weights[i]`` is the mass of the cell with canonical index ``i``.  A
    measure equals and hashes as itself alone: compare two measures'
    ``weights`` with ``np.array_equal``.
    """

    weights: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.k**self.n,):
            raise ValidationError(
                f"measure: expected {self.k**self.n} weights, got {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValidationError("measure: weights must be finite")
        if np.any(w < POSITIVITY_FLOOR):
            raise ValidationError("measure: weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > NORMALIZATION_TOL:
            raise ValidationError("measure: weights must sum to 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def from_weights(raw, n: int, k: int) -> Measure:
    """Normalize a positive weight vector into a measure."""
    w = np.asarray(raw, dtype=float)
    if w.size == 0:
        raise ValidationError("measure: at least one cell required")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValidationError("measure: all raw weights must be positive and finite")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        raise ValidationError("measure: the sum of the raw weights overflows a float")
    return Measure(w / total, n, k)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Pair Hamiltonian: site fields plus couplings on graph edges.

    ``pair_coupling[(x, y)]`` is a ``k x k`` energy matrix indexed by the
    0-based state digits at ``x`` and ``y``: its rows index the state of
    the key's first vertex.  The kept keys have ``x < y``, so a key given
    as ``(y, x)`` is kept with its matrix transposed, and an edge given a
    second coupling under either key is rejected.
    ``site_field`` has shape ``(n, k)``.  ``beta`` is the inverse
    temperature; ``beta == 0`` is the infinite-temperature (uniform) case.
    It holds arrays, so it equals and hashes as itself alone.
    """

    graph: Graph
    k: int
    beta: float
    pair_coupling: dict = field(default_factory=dict)
    site_field: np.ndarray = None

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("hamiltonian: k must be at least 1")
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValidationError("hamiltonian: beta must be nonnegative and finite")
        coupling = {}
        for (a, b), m in self.pair_coupling.items():
            x, y = min(a, b), max(a, b)
            if (x, y) not in self.graph.edges:
                raise ValidationError(f"hamiltonian: coupling on non-edge ({x},{y})")
            if (x, y) in coupling:
                raise ValidationError(f"hamiltonian: duplicate coupling on edge ({x},{y})")
            mat = np.asarray(m, dtype=float)
            if mat.shape != (self.k, self.k):
                raise ValidationError(f"hamiltonian: coupling matrix on ({x},{y}) must be k x k")
            mat.flags.writeable = False
            coupling[(x, y)] = mat.T if a > b else mat  # a read-only view either way
        missing = self.graph.edges - set(coupling)
        if missing:
            x, y = min(missing)
            raise ValidationError(f"hamiltonian: missing coupling for {len(missing)} edge(s), the first ({x},{y})")
        field_arr = self.site_field
        if field_arr is None:
            field_arr = np.zeros((self.graph.vertex_count, self.k))
        field_arr = np.asarray(field_arr, dtype=float)
        if field_arr.shape != (self.graph.vertex_count, self.k):
            raise ValidationError("hamiltonian: site field must have shape (n, k)")
        field_arr = field_arr.copy()
        field_arr.flags.writeable = False
        object.__setattr__(self, "pair_coupling", coupling)
        object.__setattr__(self, "site_field", field_arr)

    @property
    def n(self) -> int:
        return self.graph.vertex_count


def potts_hamiltonian(graph: Graph, k: int, coupling: float, beta: float) -> Hamiltonian:
    """Potts energy ``-J`` per edge whose endpoints share a state."""
    mat = -coupling * np.eye(k)
    return Hamiltonian(graph, k, beta, {e: mat for e in graph.edges})


def _energy(h: Hamiltonian, digit, vertices, edges):
    """Site fields on ``vertices`` plus couplings on ``edges``, at the 0-based states ``digit[v]``.

    ``digit[v]`` is one state or an array of states, and the arrays
    broadcast together; fields are added vertex by vertex, then couplings in
    the order of ``edges``, out of place, as the sum grows by broadcasting.
    """
    total = sum(h.site_field[v][digit[v]] for v in vertices)
    for x, y in edges:
        total = total + h.pair_coupling[(x, y)][digit[x], digit[y]]
    return total


def hamiltonian_energy(h: Hamiltonian, cell: Cell) -> float:
    """Total energy of one cell: site fields plus all edge couplings."""
    if cell.n != h.n or cell.k != h.k:
        raise ValidationError("energy: cell does not match the Hamiltonian")
    return float(_energy(h, cell.digits, range(h.n), h.pair_coupling))


def gibbs_measure(h: Hamiltonian) -> Measure:
    """Boltzmann measure ``exp(-beta * H) / Z`` over the full cell space.

    Free boundary: the graph is the whole volume.  The max of ``-beta * H``
    is subtracted before exponentiation.
    """
    log_w = -h.beta * _energy(h, state_axes(h.n, h.k), range(h.n), h.pair_coupling).ravel()
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    if np.any(w < POSITIVITY_FLOOR):
        raise ValidationError(
            "gibbs: normalized weights underflow; measure no longer strictly positive"
        )
    return Measure(w, h.n, h.k)


def _digits(h: Hamiltonian, states: dict, name: str) -> dict:
    """``{vertex: 0-based digit}`` from ``states``, which maps vertices in ``0..n-1`` to states in ``1..k``, or an
    error naming ``name``; booleans are neither vertices nor states."""
    for v, s in states.items():
        if not (is_index(v) and 0 <= v < h.n):
            raise ValidationError(f"{name}: vertex {shown(v)} is not in 0..{h.n - 1}")
        if not (is_index(s) and 1 <= s <= h.k):
            raise ValidationError(f"{name}: state {shown(s)} at vertex {v} is not in 1..{h.k}")
    return {int(v): int(s) - 1 for v, s in states.items()}


def _local_specification(h: Hamiltonian, domain: tuple) -> tuple:
    """``(outer, cond)``: the law of the domain given its outer neighbours.

    ``outer`` lists, ascending, the vertices outside the sorted ``domain``
    that share an edge with it.  ``cond[o, d]`` is the probability of the
    domain states with base-``k`` code ``d`` given the outer states with
    code ``o``; both codes put their first vertex most significant.  Only
    the potentials meeting the domain enter (Georgii 1988, ch. 1-2).
    """
    k, inside = h.k, set(domain)
    meeting = [e for e in h.pair_coupling if inside & set(e)]
    outer = sorted({v for e in meeting for v in e} - inside)
    local = outer + list(domain)
    digit = dict(zip(local, state_axes(len(local), k)[::-1]))
    log_w = -h.beta * _energy(h, digit, domain, meeting).reshape(-1, k ** len(domain))
    cond = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    cond /= cond.sum(axis=1, keepdims=True)
    return outer, cond


def conditional_prob(h: Hamiltonian, boundary: dict, assignment: dict) -> float:
    """Conditional probability of ``assignment`` on its domain given ``boundary`` on the rest.

    The domain is the nonempty set of ``assignment``'s keys, and ``boundary``
    maps exactly the other vertices; both give states in ``1..k``.  The
    value is one entry of the local specification that ``dlr_table``
    averages: only the boundary states of the domain's outer neighbours
    matter, and the values sum to 1 over the domain's assignments.
    """
    target = _digits(h, assignment, "conditional: assignment")
    outside = _digits(h, boundary, "conditional: boundary")
    if not target:
        raise ValidationError("conditional: domain must be nonempty")
    if set(outside) != set(range(h.n)) - set(target):
        raise ValidationError("conditional: boundary must cover exactly the complement")
    domain = tuple(sorted(target))
    outer, cond = _local_specification(h, domain)
    return float(cond[base_code((outside[v] for v in outer), h.k), base_code((target[v] for v in domain), h.k)])


@dataclass(frozen=True)
class DlrGap:
    lhs: float
    rhs: float
    gap: float


def dlr_table(h: Hamiltonian, domain, measure: Measure = None) -> list:
    """Both sides of the consistency identity for every domain assignment.

    Rows follow ``itertools.product(range(1, k + 1), repeat=len(domain))``.
    The right side averages the conditional probability, built from the
    potentials meeting the domain, over the outer neighbours' states.
    ``measure`` is the Gibbs measure of ``h`` when the caller has built it
    already; otherwise it is built here.  Domain vertices are integers, numpy integers included; bools are not.
    """
    domain = list(domain)
    if bad := [v for v in domain if not is_index(v)]:
        raise ValidationError(f"dlr: domain vertex must be an integer, got {shown(bad[0])}")
    domain = tuple(sorted(set(domain)))
    if not domain:
        raise ValidationError("dlr: domain must be nonempty")
    if outside := [v for v in domain if not 0 <= v < h.n]:
        raise ValidationError(f"dlr: domain vertex {shown(outside[0])} is not in 0..{h.n - 1}")
    if measure is None:
        measure = gibbs_measure(h)
    elif (measure.n, measure.k) != (h.n, h.k):
        raise ValidationError("dlr: measure does not match the Hamiltonian")
    k = h.k
    outer, cond = _local_specification(h, domain) if len(domain) < h.n else ([], None)
    local, axes = outer + list(domain), state_axes(h.n, k)
    code = cellwise(base_code((axes[v] for v in local), k), axes)
    # joint mass of (outer neighbours' states, domain states)
    joint = np.bincount(code, measure.weights, k ** len(local)).reshape(-1, k ** len(domain))
    lhs = rhs = joint.sum(axis=0)
    if cond is not None:
        rhs = joint.sum(axis=1) @ cond
    return [DlrGap(float(a), float(b), abs(float(a) - float(b))) for a, b in zip(lhs, rhs)]


def dlr_check(h: Hamiltonian, assignment: dict) -> DlrGap:
    """The row of ``dlr_table`` for ``assignment``, on the domain of its keys, with states in ``1..k``."""
    target = _digits(h, assignment, "dlr: assignment")
    domain = tuple(sorted(target))
    return dlr_table(h, domain)[base_code((target[v] for v in domain), h.k)]


def _floats(raw, name: str, shape=()):
    """``raw`` as floats of the given shape, or an error naming the field; booleans and strings are no numbers."""
    try:
        if not shape and is_number(raw):  # one number needs no object array
            return float(raw)
        arr = np.array(raw, dtype=object)  # every leaf as given, ragged lists as list leaves, to check each one
        if arr.shape != shape or not all(map(is_number, arr.flat)):
            raise ValidationError(f"{name}: expected {int(np.prod(shape))} number(s), got {shown(raw)}")
        return arr.astype(float)
    except OverflowError:
        raise ValidationError(f"{name}: number too large for a float, got {shown(raw)}") from None


def _objects(spec: dict, name: str) -> list:
    """The list of objects under ``spec[name]``, or an error naming the field."""
    entries = spec.get(name, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError(f"measure.hamiltonian.{name}: list of objects required, got {shown(entries)}")
    return entries


def measure_from_json(descriptor: dict, graph: Graph, space, vertex_labels) -> tuple:
    """Build ``(measure, hamiltonian_or_none)`` from a JSON descriptor.

    Accepts ``{"weights": {"(a,A)": w, ...}}``, a Potts shorthand
    ``{"hamiltonian": {"model": "potts", "J": j, "beta": b}}`` or a general
    ``{"hamiltonian": {"beta": b, "pair_coupling": [...], "site_field": [...]}}``.
    Vertices inside the descriptor are named by their labels: vertex ``i``
    is ``vertex_labels[i]``, as ``graphs.graph_from_json`` gives them.
    """
    if not isinstance(descriptor, dict):
        raise ValidationError("measure: descriptor must be an object")
    n, k = graph.vertex_count, space.k
    # every measure is a vector over the k^n cells, so the budget comes before any entry is read
    check_budget(k**n, "cell space: k^n", "cells")
    if "weights" in descriptor:
        table = descriptor["weights"]
        if not isinstance(table, dict) or not table:
            raise ValidationError("measure.weights: nonempty object required")
        raw = np.zeros(k**n)
        seen = set()
        digit = {label: d for d, label in enumerate(space.labels)}
        for label, value in table.items():
            # "(s_0, ..., s_{n-1})", brackets optional: the cell whose index has s_0 as its least significant digit
            text = str(label).strip()
            if text.startswith("(") and text.endswith(")"):
                text = text[1:-1]
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != n:
                raise ValidationError(f"measure.weights: key {cut(label)!r} must list {n} states")
            unknown = [p for p in parts if p not in digit]
            if unknown:
                raise ValidationError(f"states: unknown state label {cut(unknown[0])!r}")
            index = base_code((digit[p] for p in reversed(parts)), k)
            if index in seen:
                raise ValidationError(f"measure.weights: duplicate cell {cut(label)!r}")
            seen.add(index)
            # a JSON float needs no check, and the field's name is made only for a value that may be rejected
            raw[index] = value if type(value) is float else _floats(value, f"measure.weights[{cut(label)!r}]")
        if len(seen) != k**n:
            raise ValidationError("measure.weights: every cell needs a weight")
        if np.any(raw <= 0):
            raise ValidationError("measure.weights: weights must be positive")
        return from_weights(raw, n, k), None
    if "hamiltonian" in descriptor:
        spec = descriptor["hamiltonian"]
        if not isinstance(spec, dict) or "beta" not in spec:
            raise ValidationError("measure.hamiltonian: beta required")
        beta = _floats(spec["beta"], "measure.hamiltonian.beta")
        if spec.get("model") == "potts":
            coupling = _floats(spec.get("J", 1.0), "measure.hamiltonian.J")
            h = potts_hamiltonian(graph, k, coupling, beta)
        else:
            index = {label: i for i, label in enumerate(vertex_labels)}

            def vertex_of(raw) -> int:
                name = str(raw)
                if name not in index:
                    raise ValidationError(f"measure.hamiltonian: unknown vertex {cut(name)!r}")
                return index[name]
            coupling = {}
            for entry in _objects(spec, "pair_coupling"):
                edge = entry.get("edge")
                if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                    raise ValidationError("measure.hamiltonian.pair_coupling: malformed edge")
                x, y = vertex_of(edge[0]), vertex_of(edge[1])
                if (x, y) in coupling or (y, x) in coupling:
                    labels = f"{cut(vertex_labels[x])}, {cut(vertex_labels[y])}"
                    raise ValidationError(f"measure.hamiltonian.pair_coupling: duplicate edge [{labels}]")
                # rows index the state of the vertex listed first: Hamiltonian transposes a reversed edge
                coupling[(x, y)] = _floats(entry.get("matrix"), "measure.hamiltonian.pair_coupling.matrix", (k, k))
            field_arr, named = np.zeros((n, k)), set()
            for entry in _objects(spec, "site_field"):
                v = vertex_of(entry.get("vertex", -1))
                if v in named:
                    raise ValidationError(f"measure.hamiltonian.site_field: duplicate vertex {cut(vertex_labels[v])!r}")
                named.add(v)
                field_arr[v] = _floats(entry.get("values"), "measure.hamiltonian.site_field", (k,))
            h = Hamiltonian(graph, k, beta, coupling, field_arr)
        return gibbs_measure(h), h
    raise ValidationError("measure: descriptor needs weights or hamiltonian")
