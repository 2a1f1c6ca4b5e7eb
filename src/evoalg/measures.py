"""Strictly positive probability measures on finite cell spaces.

Measures come either from explicit weight vectors or as Boltzmann-Gibbs
measures of a pair Hamiltonian (single-site fields plus couplings on graph
edges).  Energies are combined in the log domain with max-subtraction, so
large inverse temperatures do not overflow.  The product measure on pairs
is never materialized; pair masses are computed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .cells import Cell
from .errors import BudgetError, ValidationError
from .graphs import Graph

__all__ = [
    "Measure",
    "Hamiltonian",
    "ConditionalSpec",
    "DlrGap",
    "from_weights",
    "uniform_measure",
    "potts_hamiltonian",
    "hamiltonian_energy",
    "gibbs_measure",
    "conditional_prob",
    "dlr_check",
    "dlr_table",
    "product_mass",
    "measure_from_json",
]

ENUMERATION_BUDGET = 10**6
POSITIVITY_FLOOR = 1e-300
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class Measure:
    """Dense strictly positive probability vector over all cells.

    ``weights[i]`` is the mass of the cell with canonical index ``i``.
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

    def mass(self, cell: Cell) -> float:
        return float(self.weights[cell.index])


def from_weights(raw, n: int, k: int) -> Measure:
    """Normalize a positive weight vector into a measure."""
    w = np.asarray(raw, dtype=float)
    if w.size == 0:
        raise ValidationError("measure: at least one cell required")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValidationError("measure: all raw weights must be positive and finite")
    return Measure(w / w.sum(), n, k)


def uniform_measure(n: int, k: int) -> Measure:
    return Measure(np.full(k**n, 1.0 / k**n), n, k)


@dataclass(frozen=True)
class Hamiltonian:
    """Pair Hamiltonian: site fields plus couplings on graph edges.

    ``pair_coupling[(x, y)]`` is a ``k x k`` energy matrix indexed by the
    0-based state digits at ``x`` and ``y`` (edge keys use ``x < y``);
    ``site_field`` has shape ``(n, k)``.  ``beta`` is the inverse
    temperature; ``beta == 0`` is the infinite-temperature (uniform) case.
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
        for e, m in self.pair_coupling.items():
            x, y = min(e), max(e)
            if (x, y) not in self.graph.edges:
                raise ValidationError(f"hamiltonian: coupling on non-edge ({x},{y})")
            mat = np.asarray(m, dtype=float)
            if mat.shape != (self.k, self.k):
                raise ValidationError(f"hamiltonian: coupling matrix on ({x},{y}) must be k x k")
            mat.flags.writeable = False
            coupling[(x, y)] = mat
        missing = self.graph.edges - set(coupling)
        if missing:
            raise ValidationError(f"hamiltonian: missing coupling for edges {sorted(missing)}")
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


def _digit_table(n: int, k: int) -> np.ndarray:
    count = k**n
    if count > ENUMERATION_BUDGET:
        raise BudgetError(f"{count} cells exceed the enumeration budget of {ENUMERATION_BUDGET}")
    idx = np.arange(count)
    digits = np.empty((count, n), dtype=np.int64)
    for v in range(n):
        digits[:, v] = (idx // k**v) % k
    return digits


def _all_energies(h: Hamiltonian) -> np.ndarray:
    digits = _digit_table(h.n, h.k)
    energy = np.zeros(len(digits))
    for v in range(h.n):
        energy += h.site_field[v][digits[:, v]]
    for (x, y), mat in h.pair_coupling.items():
        energy += mat[digits[:, x], digits[:, y]]
    return energy


def hamiltonian_energy(h: Hamiltonian, cell: Cell) -> float:
    """Total energy of one cell: site fields plus all edge couplings."""
    if cell.n != h.n or cell.k != h.k:
        raise ValidationError("energy: cell does not match the Hamiltonian")
    total = sum(h.site_field[v][cell.digits[v]] for v in range(h.n))
    for (x, y), mat in h.pair_coupling.items():
        total += mat[cell.digits[x], cell.digits[y]]
    return float(total)


def gibbs_measure(h: Hamiltonian) -> Measure:
    """Boltzmann measure ``exp(-beta * H) / Z`` over the full cell space.

    Free boundary: the graph is the whole volume.  The max of ``-beta * H``
    is subtracted before exponentiation.
    """
    log_w = -h.beta * _all_energies(h)
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    if np.any(w < POSITIVITY_FLOOR):
        raise ValidationError(
            "gibbs: normalized weights underflow; measure no longer strictly positive"
        )
    return Measure(w, h.n, h.k)


@dataclass(frozen=True)
class ConditionalSpec:
    """A finite domain together with a boundary assignment on its complement.

    ``domain`` is a nonempty tuple of vertices; ``boundary`` maps every
    vertex outside the domain to a state in ``1..k``.
    """

    domain: tuple
    boundary: dict

    def __post_init__(self):
        domain = tuple(sorted(set(self.domain)))
        if not domain:
            raise ValidationError("conditional: domain must be nonempty")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "boundary", dict(self.boundary))

    def validate(self, h: Hamiltonian):
        if any(v < 0 or v >= h.n for v in self.domain):
            raise ValidationError("conditional: domain vertex out of range")
        complement = set(range(h.n)) - set(self.domain)
        if set(self.boundary) != complement:
            raise ValidationError("conditional: boundary must cover exactly the complement")
        for v, s in self.boundary.items():
            if not 1 <= int(s) <= h.k:
                raise ValidationError(f"conditional: boundary state {s} at vertex {v} out of range")


def _conditional_energy(h: Hamiltonian, spec: ConditionalSpec, digits_on_domain: dict) -> float:
    """Energy of the potentials meeting the domain, boundary filled outside."""
    def digit(v: int) -> int:
        if v in digits_on_domain:
            return digits_on_domain[v]
        return int(spec.boundary[v]) - 1

    inside = set(spec.domain)
    total = sum(h.site_field[v][digits_on_domain[v]] for v in spec.domain)
    for (x, y), mat in h.pair_coupling.items():
        if x in inside or y in inside:
            total += mat[digit(x), digit(y)]
    return float(total)


def conditional_prob(h: Hamiltonian, spec: ConditionalSpec, assignment: dict) -> float:
    """Conditional probability of a domain assignment given the boundary.

    ``assignment`` maps every domain vertex to a state in ``1..k``.  The
    normalization runs over all assignments of the domain, so the values
    sum to 1 for any fixed boundary.
    """
    spec.validate(h)
    if set(assignment) != set(spec.domain):
        raise ValidationError("conditional: assignment must cover exactly the domain")
    target = {v: int(assignment[v]) - 1 for v in spec.domain}
    if any(d < 0 or d >= h.k for d in target.values()):
        raise ValidationError("conditional: assignment state out of range")
    log_w = []
    target_log = None
    for combo in product(range(h.k), repeat=len(spec.domain)):
        digits = dict(zip(spec.domain, combo))
        value = -h.beta * _conditional_energy(h, spec, digits)
        log_w.append(value)
        if digits == target:
            target_log = value
    log_w = np.array(log_w)
    shift = log_w.max()
    z = np.exp(log_w - shift).sum()
    return float(np.exp(target_log - shift) / z)


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
    already; otherwise it is built here.
    """
    domain = tuple(sorted(set(domain)))
    if not domain:
        raise ValidationError("dlr: domain must be nonempty")
    if any(v < 0 or v >= h.n for v in domain):
        raise ValidationError("dlr: domain vertex out of range")
    if measure is None:
        measure = gibbs_measure(h)
    elif (measure.n, measure.k) != (h.n, h.k):
        raise ValidationError("dlr: measure does not match the Hamiltonian")
    k, inside, weights = h.k, set(domain), measure.weights
    meeting = {e: m for e, m in h.pair_coupling.items() if inside & set(e)}
    local = sorted({v for e in meeting for v in e} - inside) + list(domain)
    cells, code = np.arange(k**h.n), 0
    for v in local:  # base-k code of the outer then the domain states
        code = code * k + cells // k**v % k
    # joint mass of (outer neighbours' states, domain states)
    joint = np.bincount(code, weights, k ** len(local)).reshape(-1, k ** len(domain))
    lhs = rhs = joint.sum(axis=0)
    if len(domain) < h.n:
        digit = dict(zip(local, np.indices((k,) * len(local)).reshape(len(local), -1)))
        energy = sum(h.site_field[v][digit[v]] for v in domain)
        for (x, y), mat in meeting.items():
            energy = energy + mat[digit[x], digit[y]]
        log_w = -h.beta * energy.reshape(joint.shape)
        cond = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        cond /= cond.sum(axis=1, keepdims=True)
        rhs = joint.sum(axis=1) @ cond
    return [DlrGap(float(a), float(b), abs(float(a) - float(b))) for a, b in zip(lhs, rhs)]


def dlr_check(h: Hamiltonian, domain, assignment: dict) -> DlrGap:
    """The row of ``dlr_table`` for one domain assignment."""
    domain = tuple(sorted(set(domain)))
    if set(assignment) != set(domain):
        raise ValidationError("dlr: assignment must cover exactly the domain")
    digits = [int(assignment[v]) - 1 for v in domain]
    if any(not 0 <= d < h.k for d in digits):
        raise ValidationError("dlr: assignment state out of range")
    return dlr_table(h, domain)[sum(d * h.k**i for i, d in enumerate(reversed(digits)))]


def product_mass(mu: Measure, pairs) -> float:
    """Product-measure mass of a set of pair cells."""
    return float(sum(mu.weights[p.first.index] * mu.weights[p.second.index] for p in pairs))


def _floats(raw, name: str, shape=()):
    """``raw`` as floats of the given shape, or an error naming the field."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.shape != shape:
        raise ValidationError(f"{name}: expected {int(np.prod(shape))} number(s), got {raw!r}")
    return arr if shape else float(arr)


def _objects(spec: dict, name: str) -> list:
    """The list of objects under ``spec[name]``, or an error naming the field."""
    entries = spec.get(name, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError(f"measure.hamiltonian.{name}: list of objects required, got {entries!r}")
    return entries


def _parse_cell_label(label: str, space, n: int) -> Cell:
    text = str(label).strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValidationError(f"measure.weights: key {label!r} must list {n} states")
    return Cell.from_states(tuple(space.state_of(p) for p in parts), space.k)


def measure_from_json(descriptor: dict, graph: Graph, space, vertex_labels=None) -> tuple:
    """Build ``(measure, hamiltonian_or_none)`` from a JSON descriptor.

    Accepts ``{"weights": {"(a,A)": w, ...}}``, a Potts shorthand
    ``{"hamiltonian": {"model": "potts", "J": j, "beta": b}}`` or a general
    ``{"hamiltonian": {"beta": b, "pair_coupling": [...], "site_field": [...]}}``.
    Vertices inside the descriptor are external labels when
    ``vertex_labels`` is given, dense indices otherwise.
    """
    if not isinstance(descriptor, dict):
        raise ValidationError("measure: descriptor must be an object")
    n, k = graph.vertex_count, space.k

    def vertex_of(raw) -> int:
        if vertex_labels is not None:
            name = str(raw)
            if name not in vertex_labels:
                raise ValidationError(f"measure.hamiltonian: unknown vertex {name!r}")
            return vertex_labels.index(name)
        return int(raw)
    if "weights" in descriptor:
        table = descriptor["weights"]
        if not isinstance(table, dict) or not table:
            raise ValidationError("measure.weights: nonempty object required")
        raw = np.zeros(k**n)
        seen = set()
        for label, value in table.items():
            cell = _parse_cell_label(label, space, n)
            if cell.index in seen:
                raise ValidationError(f"measure.weights: duplicate cell {label!r}")
            seen.add(cell.index)
            raw[cell.index] = _floats(value, f"measure.weights[{label!r}]")
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
            coupling = {}
            for entry in _objects(spec, "pair_coupling"):
                edge = entry.get("edge")
                if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                    raise ValidationError("measure.hamiltonian.pair_coupling: malformed edge")
                coupling[(vertex_of(edge[0]), vertex_of(edge[1]))] = entry.get("matrix")
            field_arr = np.zeros((n, k))
            for entry in _objects(spec, "site_field"):
                v = vertex_of(entry.get("vertex", -1))
                if not 0 <= v < n:
                    raise ValidationError("measure.hamiltonian.site_field: vertex out of range")
                field_arr[v] = _floats(entry.get("values"), "measure.hamiltonian.site_field", (k,))
            h = Hamiltonian(graph, k, beta, coupling, field_arr)
        return gibbs_measure(h), h
    raise ValidationError("measure: descriptor needs weights or hamiltonian")
