"""Finite-volume coefficients over growing lattice boxes.

A tail cell assigns a state to every lattice site: a finite pattern plus a
constant tail state outside of it.  Restricting a pair of tail cells to a
box gives an ordinary pair cell there, and the box's Gibbs measure then
yields the usual coefficient.  Tracking one coefficient across an
increasing family of boxes probes whether it settles down; for the Potts
family at large inverse temperature the mass drifts onto the diagonal
constant pairs, one candidate limit generator per state.

Everything is exact: a box's measure comes from a transfer matrix, not an
approximation, volumes whose cell count exceeds the budget are rejected, and
every volume uses free boundary conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cells import Cell, PairCell, StateSpace, children_set
from .errors import BudgetError, ValidationError
from .graphs import LatticeBox, components
from .measures import ENUMERATION_BUDGET, POSITIVITY_FLOOR
# gibbs_measure stays importable here: bench/tracing.py wraps it by this name
from .measures import gibbs_measure  # noqa: F401

__all__ = [
    "CONVERGENCE_TOL",
    "TailCell",
    "BoxMeasure",
    "VolumeScheme",
    "CoefficientSequence",
    "finite_volume_coeff",
    "coefficient_sequence",
    "low_temp_limit_algebras",
]

CONVERGENCE_TOL = 1e-6


@dataclass(frozen=True)
class TailCell:
    """A lattice-wide assignment: a finite pattern over a constant tail.

    ``pattern`` maps site coordinates (ints in one dimension, pairs in two)
    to states ``1..q``; every other site carries ``tail``.
    """

    tail: int
    pattern: tuple = ()

    def __post_init__(self):
        if int(self.tail) < 1:
            raise ValidationError("tail cell: tail state must be at least 1")
        normalized = []
        seen = set()
        source = self.pattern.items() if isinstance(self.pattern, dict) else self.pattern
        for coord, state in source:
            key = (int(coord),) if isinstance(coord, int) else tuple(int(x) for x in coord)
            if key in seen:
                raise ValidationError(f"tail cell: duplicate pattern site {key}")
            if int(state) < 1:
                raise ValidationError("tail cell: pattern state must be at least 1")
            seen.add(key)
            normalized.append((key, int(state)))
        object.__setattr__(self, "tail", int(self.tail))
        object.__setattr__(self, "pattern", tuple(sorted(normalized)))

    def restrict(self, box: LatticeBox, q: int) -> Cell:
        """The ordinary cell this tail cell induces on a box."""
        digits = [self.tail - 1] * box.site_count
        for coord, state in self.pattern:
            digits[box.site_index(coord)] = state - 1
        return Cell(tuple(digits), q)


def _logsumexp(x: np.ndarray) -> np.ndarray:
    top = x.max(axis=0)
    return top + np.log(np.exp(x - top).sum(axis=0))


class BoxMeasure:
    """The exact free-boundary Potts measure on a box (Baxter 1982, ch. 2, 7).

    The box is read as ``2r+1`` columns, the contiguous runs of ``width``
    site indices (one site in 1-D, ``2r+1`` in 2-D); every equal neighbour
    pair adds ``beta*J`` to a log weight.  ``log_partition`` is a log-sum-exp
    sweep over the ``q^width`` column states and the smallest weight a
    min-plus sweep, so no cell is enumerated.  Like the dense
    ``gibbs_measure``, a box with a mass below ``POSITIVITY_FLOOR`` is rejected.
    """

    def __init__(self, box: LatticeBox, states: int, coupling: float, beta: float):
        self.columns = 2 * box.radius + 1
        self.width = box.site_count // self.columns
        self.k = states
        self.strength = beta * coupling
        codes = np.arange(states**self.width)
        col = np.stack([codes // states**y % states for y in range(self.width)], axis=1)
        inner = self.strength * (col[:, 1:] == col[:, :-1]).sum(axis=1)
        bond = self.strength * (col[:, None, :] == col[None, :, :]).sum(axis=2)
        log_z = low = inner
        for _ in range(self.columns - 1):
            log_z = inner + _logsumexp(log_z[:, None] + bond)
            low = inner + (low[:, None] + bond).min(axis=0)
        self.log_partition = float(_logsumexp(log_z))
        if not math.isfinite(self.log_partition):
            raise ValidationError("measure: weights must be finite")
        if low.min() - self.log_partition < math.log(POSITIVITY_FLOOR):
            raise ValidationError("gibbs: normalized weights underflow; measure no longer strictly positive")

    def log_mass(self, cell: Cell) -> float:
        """``-beta*H(cell) - log Z``, with ``H`` summed over the box edges."""
        if cell.k != self.k or cell.n != self.columns * self.width:
            raise ValidationError("measure: cell does not match the box")
        d = np.reshape(cell.digits, (self.columns, self.width))
        equal = np.count_nonzero(d[:, 1:] == d[:, :-1]) + np.count_nonzero(d[1:] == d[:-1])
        return self.strength * equal - self.log_partition

    def mass(self, cell: Cell) -> float:
        return math.exp(self.log_mass(cell))


@dataclass(frozen=True)
class VolumeScheme:
    """An increasing family of boxes sharing one Potts Hamiltonian family."""

    dimension: int
    radii: tuple
    states: int
    coupling: float = 1.0
    beta: float = 1.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        radii = tuple(int(r) for r in self.radii)
        if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValidationError("scheme: radii must be strictly increasing and nonempty")
        if radii[0] < 0:
            raise ValidationError("scheme: radii must be nonnegative")
        if self.states < 2:
            raise ValidationError("scheme: at least two states required")
        if self.dimension not in (1, 2):
            raise ValidationError("dimension: must be 1 or 2")
        if not 0 <= self.beta < math.inf:
            raise ValidationError(f"scenario.limits.beta: must be finite and nonnegative, got {self.beta!r}")
        if not math.isfinite(self.coupling):
            raise ValidationError(f"scenario.limits.J: must be finite, got {self.coupling!r}")
        object.__setattr__(self, "radii", radii)
        sites = (2 * radii[-1] + 1) ** self.dimension
        # the count is built and printed only below 10**20; anything larger is over budget
        cells = self.states**sites if sites * math.log10(self.states) < 20 else None
        if cells is None or cells > ENUMERATION_BUDGET:
            predicted = f"{self.states}^{sites}" + (f" = {cells}" if cells else "")
            raise BudgetError(
                f"scheme: {predicted} cells at radius {radii[-1]} "
                f"exceed the enumeration budget of {ENUMERATION_BUDGET}"
            )

    def box(self, radius: int) -> LatticeBox:
        key = ("box", radius)
        if key not in self._cache:
            self._cache[key] = LatticeBox(self.dimension, radius)
        return self._cache[key]

    def measure(self, radius: int) -> BoxMeasure:
        key = ("measure", radius)
        if key not in self._cache:
            self._cache[key] = BoxMeasure(self.box(radius), self.states, self.coupling, self.beta)
        return self._cache[key]


def _restricted_pair(pair, box: LatticeBox, q: int) -> PairCell:
    first, second = pair
    return PairCell(first.restrict(box, q), second.restrict(box, q))


def finite_volume_coeff(scheme: VolumeScheme, radius: int, phi, psi) -> float:
    """The coefficient from ``phi`` to ``psi`` in one box's algebra.

    ``phi`` and ``psi`` are pairs of tail cells.  Both are restricted to the
    box, then the ratio of product masses over the children set of the
    restricted ``phi`` is returned, or zero when the restricted ``psi`` is
    not among its pair-children.
    """
    if radius not in scheme.radii:
        raise ValidationError(f"radius {radius} not part of the scheme")
    box = scheme.box(radius)
    space = StateSpace(scheme.states)
    phi_pair = _restricted_pair(phi, box, scheme.states)
    psi_pair = _restricted_pair(psi, box, scheme.states)
    kids = children_set(phi_pair, components(box.graph), space)
    if psi_pair.first not in kids or psi_pair.second not in kids:
        return 0.0
    mu = scheme.measure(radius)
    total = sum(mu.mass(c) for c in kids)
    # dividing first keeps the square of a tiny total from underflowing to zero
    return (mu.mass(psi_pair.first) / total) * (mu.mass(psi_pair.second) / total)


@dataclass(frozen=True)
class CoefficientSequence:
    """One coefficient tracked across all volumes of a scheme."""

    volumes: tuple
    values: tuple
    limit_estimate: float
    converged: bool


def coefficient_sequence(scheme: VolumeScheme, phi, psi) -> CoefficientSequence:
    """Evaluate the coefficient on every volume and flag apparent settling.

    The sequence counts as converged when its last two values differ by
    less than ``1e-6``; the estimate is always the last value, with no
    extrapolation.
    """
    values = tuple(finite_volume_coeff(scheme, r, phi, psi) for r in scheme.radii)
    converged = len(values) >= 2 and abs(values[-1] - values[-2]) < CONVERGENCE_TOL
    return CoefficientSequence(scheme.radii, values, values[-1], converged)


def low_temp_limit_algebras(dimension: int, states: int, radii, beta_list, coupling: float = 1.0) -> dict:
    """Trend report for the constant-cell candidates across temperatures.

    For every inverse temperature and volume, reports the product-measure
    mass sitting on each diagonal constant pair.  The candidates are the
    one-generator algebras of the constant cells; the report also records
    that those generators are pairwise distinct.
    """
    betas = tuple(float(b) for b in beta_list)
    ordered = all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))
    if not (betas and ordered and 0 <= betas[0] and betas[-1] < math.inf):
        raise ValidationError("scenario.limits.low_temp.betas: nonnegative, finite and strictly increasing values required")
    radii = tuple(int(r) for r in radii)
    candidates = []
    schemes = [VolumeScheme(dimension, radii, states, coupling, beta) for beta in betas]
    largest = schemes[0].box(radii[-1])
    constant_cells = [
        TailCell(i).restrict(largest, states) for i in range(1, states + 1)
    ]
    generator_indices = [PairCell(c, c).index for c in constant_cells]
    for i in range(1, states + 1):
        masses = []
        for scheme in schemes:
            per_radius = []
            for r in radii:
                mu = scheme.measure(r)
                cell = TailCell(i).restrict(scheme.box(r), states)
                per_radius.append(mu.mass(cell) ** 2)
            masses.append(per_radius)
        candidates.append({"state": i, "masses": masses})
    return {
        "dimension": dimension,
        "states": states,
        "radii": list(radii),
        "betas": list(betas),
        "coupling": coupling,
        "candidates": candidates,
        "distinct_generators": len(set(generator_indices)) == states,
    }
