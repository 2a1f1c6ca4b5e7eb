"""Finite-volume coefficients over growing lattice boxes.

A tail cell assigns a state to every lattice site: a finite pattern plus a
constant tail state outside of it.  Restricting a pair of tail cells to a
box gives an ordinary pair cell there.  A box is connected, so a restricted
pair's children are its two cells, and a coefficient is a ratio of their
Boltzmann weights in which ``Z`` cancels: the Gibbs specification view of
Georgii (1988, ch. 1-2).  Tracking one coefficient across an increasing
family of boxes probes whether it settles down; for the Potts family at
large inverse temperature the mass drifts onto the diagonal constant pairs,
one candidate limit generator per state.

Everything is exact, with free boundary conditions.  Only the ``low_temp``
report needs normalised masses, from a transfer-matrix ``BoxMeasure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cells import Cell, PairCell
from .errors import BudgetError, ValidationError
from .graphs import LatticeBox
from .measures import ENUMERATION_BUDGET, POSITIVITY_FLOOR
# these three stay importable here: bench/tracing.py wraps them by these names
from .cells import children_set  # noqa: F401
from .graphs import components  # noqa: F401
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
        normalized = []
        seen = set()
        source = self.pattern.items() if isinstance(self.pattern, dict) else self.pattern
        for coord, state in source:
            key = (int(coord),) if isinstance(coord, int) else tuple(int(x) for x in coord)
            if key in seen:
                raise ValidationError(f"tail cell: duplicate pattern site {key}")
            seen.add(key)
            normalized.append((key, int(state)))
        object.__setattr__(self, "tail", int(self.tail))
        object.__setattr__(self, "pattern", tuple(sorted(normalized)))

    def restrict(self, box: LatticeBox, q: int) -> Cell:
        """The ordinary cell this tail cell induces on a box."""
        for name, state in [("tail", self.tail), *(("pattern", s) for _, s in self.pattern)]:
            if not 1 <= state <= q:
                raise ValidationError(f"scenario.limits.pairs.{name}: state must be in 1..{q}, got {state}")
        digits = [self.tail - 1] * box.site_count
        for coord, state in self.pattern:
            digits[box.site_index(coord)] = state - 1
        return Cell(tuple(digits), q)


def _equal_edges(cell: Cell, columns: int) -> int:
    """Equal neighbour pairs of a box cell whose sites form ``columns`` contiguous runs."""
    d = np.reshape(cell.digits, (columns, -1))
    return np.count_nonzero(d[:, 1:] == d[:, :-1]) + np.count_nonzero(d[1:] == d[:-1])


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
    Only the ``low_temp`` report uses it; coefficients need no ``Z``.
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
        return self.strength * _equal_edges(cell, self.columns) - self.log_partition

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
        if radius not in self._cache:
            self._cache[radius] = LatticeBox(self.dimension, radius)
        return self._cache[radius]

    def measure(self, radius: int) -> BoxMeasure:
        return BoxMeasure(self.box(radius), self.states, self.coupling, self.beta)


def finite_volume_coeff(scheme: VolumeScheme, radius: int, phi, psi) -> float:
    """The coefficient from ``phi`` to ``psi`` in one box's algebra.

    ``phi`` and ``psi`` are pairs of tail cells, restricted to the box.  The
    coefficient is zero unless both cells of ``psi`` are among the cells of
    ``phi``, its children set, and one when ``phi`` is diagonal.  Otherwise
    a child's share ``w(c) / (w(phi_1) + w(phi_2))`` is the logistic of
    ``+-beta*J*(eq(phi_1) - eq(phi_2))``, ``eq`` counting equal neighbours.
    """
    if radius not in scheme.radii:
        raise ValidationError(f"radius {radius} not part of the scheme")
    box = scheme.box(radius)
    first, second = (c.restrict(box, scheme.states) for c in phi)
    children = [c.restrict(box, scheme.states) for c in psi]
    if any(c != first and c != second for c in children):
        return 0.0
    strength = scheme.beta * scheme.coupling
    if not math.isfinite(strength):  # beta and J are finite, but their product can overflow
        raise ValidationError("measure: weights must be finite")
    if first == second:
        return 1.0
    columns = 2 * radius + 1
    gap = strength * (_equal_edges(first, columns) - _equal_edges(second, columns))
    return math.prod(math.exp(-np.logaddexp(0.0, gap if c == second else -gap)) for c in children)


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
    schemes = [VolumeScheme(dimension, radii, states, coupling, beta) for beta in betas]
    largest = schemes[0].box(radii[-1])
    constant_cells = [
        TailCell(i).restrict(largest, states) for i in range(1, states + 1)
    ]
    generator_indices = [PairCell(c, c).index for c in constant_cells]
    # every box edge of a constant cell is equal, so all states share one mass
    masses = [
        [scheme.measure(r).mass(TailCell(1).restrict(scheme.box(r), states)) ** 2 for r in radii]
        for scheme in schemes
    ]
    candidates = [
        {"state": i, "masses": [list(row) for row in masses]} for i in range(1, states + 1)
    ]
    return {
        "dimension": dimension,
        "states": states,
        "radii": list(radii),
        "betas": list(betas),
        "coupling": coupling,
        "candidates": candidates,
        "distinct_generators": len(set(generator_indices)) == states,
    }
