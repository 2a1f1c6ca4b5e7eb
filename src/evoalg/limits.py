"""Finite-volume coefficients over growing lattice boxes.

A tail cell is a finite pattern over a constant tail state; on a box it
gives an ordinary cell, read only at its pattern sites.  A box is
connected, so a restricted pair's children are its two cells, and a
coefficient is a ratio of their Boltzmann weights in which ``Z`` cancels
and only the pattern sites and their edges count (Georgii 1988, ch. 1-2).
At large inverse temperature the Potts mass drifts onto the diagonal
constant pairs, one candidate limit generator per state.  Everything is
exact, with free boundary conditions; only the ``low_temp`` report needs
normalised masses, read off transfer-matrix sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cells import cellwise, state_axes
from .errors import ValidationError, check_budget, is_index, shown, written
from .graphs import LatticeBox, coordinate, site_text
from .measures import POSITIVITY_FLOOR
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
        pattern = {}
        for coord, state in self.pattern.items() if isinstance(self.pattern, dict) else self.pattern:
            key = coordinate(coord, "scenario.limits.pairs.pattern")
            if not is_index(state):
                raise ValidationError(f"scenario.limits.pairs.pattern: expected an integer, got {shown(state)}")
            if key in pattern:
                raise ValidationError(f"tail cell: duplicate pattern site {site_text(key)}")
            pattern[key] = int(state)
        if not is_index(self.tail):
            raise ValidationError(f"scenario.limits.pairs.tail: expected an integer, got {shown(self.tail)}")
        object.__setattr__(self, "tail", int(self.tail))
        object.__setattr__(self, "pattern", tuple(sorted(pattern.items())))

    def restrict(self, box: LatticeBox, q: int) -> dict:
        """The pattern on a box as ``{site index: state}``; every other box site carries ``tail``."""
        for name, state in [("tail", self.tail), *(("pattern", s) for _, s in self.pattern)]:
            if not 1 <= state <= q:
                raise ValidationError(f"scenario.limits.pairs.{name}: state must be in 1..{q}, got {written(state)}")
        return {box.site_index(coord): state for coord, state in self.pattern}


def _sweep_entries(box: LatticeBox, states: int):
    """``columns * states**(2*width)``, the entries of a box's transfer sweep; ``math.inf``, unbuilt, from 10**20."""
    columns = box.site_count // box.width  # 2 * width is below 2 * 10**20, so a float, once columns is below 10**20
    if columns < 10**20 and math.log10(columns) + 2 * box.width * math.log10(states) < 20:
        return columns * int(states) ** (2 * box.width)
    return math.inf


def _logsumexp(x: np.ndarray) -> np.ndarray:
    top = x.max(axis=0)
    return top + np.log(np.exp(x - top).sum(axis=0))


def _column_sweep(width: int, states: int, strengths, stops):
    """Yield ``log Z`` of the first ``c`` columns for each column count ``c`` of the ascending ``stops``.

    A column's log weight is ``strength`` per equal neighbour pair inside it
    plus, for every column after the first, per equal pair across to the one
    before; ``log Z`` is a log-sum-exp over the ``q^width`` column states.
    A vector of ``strengths`` yields lists, one value per strength, with the
    bits of its own sweep: the strength axis leads in memory, so every sum
    runs in the same order.  Resuming takes the same steps as starting afresh.
    """
    axes = state_axes(2 * width, states)  # a column's sites on the low axes, the one before's on the high ones
    same = sum(axes[v] == axes[v + 1] for v in range(width - 1))
    inner = np.multiply.outer(strengths, cellwise(same, axes[:width]))
    same = sum(axes[v] == axes[width + v] for v in range(width))
    bond = np.multiply.outer(strengths, cellwise(same, axes).reshape(states**width, -1))
    log_z, done = inner, 1
    for stop in stops:
        for _ in range(stop - done):
            log_z = inner + _logsumexp((log_z[..., None] + bond).swapaxes(0, -2))
        done = stop
        yield _logsumexp(log_z.swapaxes(0, -1)).tolist()


def _constant_log_mass(strength, edges, log_partition):
    """``strength*E - log_partition`` of boxes of ``E = edges``.

    Takes numbers or arrays.  Rejects the first box, in row-major order, whose ``log Z`` is not finite
    or whose lightest cell, of log weight ``min(0, strength*E)`` (a box is bipartite), is below ``POSITIVITY_FLOOR``.
    """
    with np.errstate(all="ignore"):  # as with Python floats, an overflow gives inf and a nan no warning
        energy = np.multiply(strength, edges)
        infinite = ~np.isfinite(log_partition)
        failed = infinite | (np.minimum(0.0, energy) - log_partition < math.log(POSITIVITY_FLOOR))
        if failed.any():
            if infinite.flat[failed.argmax()]:
                raise ValidationError("measure: weights must be finite")
            raise ValidationError("gibbs: normalized weights underflow; measure no longer strictly positive")
        return energy - log_partition


class BoxMeasure:
    """The exact free-boundary Potts measure on a box (Baxter 1982, ch. 2, 7).

    The box is read as its ``2r+1`` runs of ``box.width`` sites, here called
    columns; every equal neighbour pair adds ``beta*J`` to a log weight, and
    ``log_partition`` is a log-sum-exp sweep over the ``q^width`` column
    states.  A constant cell has all ``E = box.edge_count`` edges equal: log
    mass ``constant_log_mass = beta*J*E - log_partition``.
    """

    def __init__(self, box: LatticeBox, states: int, coupling: float, beta: float):
        self.strength = beta * coupling
        check_budget(_sweep_entries(box, states), "transfer sweep: columns * q^(2*width)", "entries")
        self.log_partition = next(_column_sweep(box.width, states, self.strength, [box.site_count // box.width]))
        self.constant_log_mass = float(_constant_log_mass(self.strength, box.edge_count, self.log_partition))


def _scheme_shape(dimension, radii, states) -> tuple:
    """Check a scheme's integer inputs; return them as Python ints and a tuple of radii."""
    if not is_index(dimension) or dimension not in (1, 2):
        raise ValidationError(f"dimension: must be 1 or 2, got {shown(dimension)}")
    radii = tuple(radii)
    if not (radii and all(map(is_index, radii)) and radii[0] >= 0 and all(a < b for a, b in zip(radii, radii[1:]))):
        raise ValidationError(f"scheme: radii must be nonnegative, strictly increasing integers, got {shown(radii)}")
    if not is_index(states) or states < 2:
        raise ValidationError(f"scheme: states must be an integer of at least 2, got {shown(states)}")
    return int(dimension), tuple(int(r) for r in radii), int(states)


def _check_coupling(coupling):
    if not math.isfinite(coupling):
        raise ValidationError(f"scenario.limits.J: must be finite, got {coupling!r}")


@dataclass(frozen=True)
class VolumeScheme:
    """An increasing family of boxes sharing one Potts Hamiltonian family; its budget counts box sites.

    ``boxes`` maps each radius to its box, built once with the budget; it takes no part in equality, hash or repr.
    """

    dimension: int
    radii: tuple
    states: int
    coupling: float = 1.0
    beta: float = 1.0
    boxes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = _scheme_shape(self.dimension, self.radii, self.states)
        if not 0 <= self.beta < math.inf:
            raise ValidationError(f"scenario.limits.beta: must be finite and nonnegative, got {self.beta!r}")
        _check_coupling(self.coupling)
        for name, value in zip(("dimension", "radii", "states"), shape):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "boxes", {r: LatticeBox(self.dimension, r) for r in self.radii})
        check_budget(sum(box.site_count for box in self.boxes.values()),
                     f"scheme: sum of (2r+1)^{self.dimension} over {len(self.radii)} radii", "box sites")

    def box(self, radius: int) -> LatticeBox:
        """The box of one of the scheme's radii; any other radius, a non-integer included, is rejected."""
        if not (is_index(radius) and radius in self.boxes):
            raise ValidationError(f"radius {radius} not part of the scheme")
        return self.boxes[radius]

    def measure(self, radius: int) -> BoxMeasure:
        """The box measure of one of the scheme's radii."""
        return BoxMeasure(self.box(radius), self.states, self.coupling, self.beta)


def finite_volume_coeff(scheme: VolumeScheme, radius: int, phi, psi) -> float:
    """The coefficient from ``phi`` to ``psi`` in one box's algebra.

    ``phi`` and ``psi`` are pairs of tail cells, restricted to the box.  The
    coefficient is zero unless both cells of ``psi`` are among the cells of
    ``phi``, its children set, and one when ``phi`` is diagonal.  Otherwise
    a child's share ``w(c) / (w(phi_1) + w(phi_2))`` is the logistic of
    ``+-beta*J*(eq(phi_1) - eq(phi_2))``, ``eq`` counting equal neighbours
    on the box edges that meet a marked site, a pattern site of any of the
    four cells; every other edge joins two tail states in both cells.
    """
    if not all(isinstance(p, (tuple, list)) and len(p) == 2 and all(isinstance(c, TailCell) for c in p)
               for p in (phi, psi)):
        raise ValidationError("finite_volume_coeff: phi and psi must each be two tail cells")
    box = scheme.box(radius)
    cells = [(c.tail, c.restrict(box, scheme.states)) for c in (*phi, *psi)]
    marked = set().union(*(pattern for _, pattern in cells))
    # two cells agree on the box when they agree on the marked sites and, unless those fill it, in their tails
    fills = len(marked) == box.site_count
    first, second, *children = [(tuple(p.get(i, t) for i in marked), None if fills else t) for t, p in cells]
    if any(c != first and c != second for c in children):
        return 0.0
    strength = scheme.beta * scheme.coupling
    if not math.isfinite(strength):  # beta and J are finite, but their product can overflow
        raise ValidationError("measure: weights must be finite")
    if first == second:
        return 1.0
    edges = box.edges_meeting(marked)
    eq = [sum(p.get(a, t) == p.get(b, t) for a, b in edges) for t, p in cells[:2]]
    gap = strength * (eq[0] - eq[1])
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

    The value at ``r*``, the first scheme radius past the largest ``|coordinate|``
    of a pattern site (0 with none), is final: its box holds every marked
    site and its neighbours, so larger radii count the same edges and repeat it.
    The sequence counts as converged when its last two values differ by
    less than ``1e-6``; the estimate is always the last value, with no
    extrapolation.
    """
    values = [finite_volume_coeff(scheme, scheme.radii[0], phi, psi)]  # checks phi and psi
    support = max((max(map(abs, site)) for cell in (*phi, *psi) for site, _ in cell.pattern), default=0)
    for previous, radius in zip(scheme.radii, scheme.radii[1:]):
        values.append(values[-1] if previous > support else finite_volume_coeff(scheme, radius, phi, psi))
    values = tuple(values)
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
    dimension, radii, states = _scheme_shape(dimension, radii, states)
    boxes = [LatticeBox(dimension, r) for r in radii]
    # the entries of a sweep per beta and radius, a bound where one sweep serves them all; the masses are fewer
    check_budget(len(betas) * sum(_sweep_entries(box, states) for box in boxes),
                 f"low_temp: {len(betas)} betas * sum over {len(radii)} radii of columns * q^(2*width)", "entries")
    _check_coupling(coupling)
    # all states share one mass; a 1-D box of radius r+1 extends that of radius r, so one sweep serves every radius
    strengths = np.array([beta * coupling for beta in betas])
    columns = [box.site_count // box.width for box in boxes]
    if dimension == 1:
        log_z = list(_column_sweep(boxes[0].width, states, strengths, columns))
    else:
        log_z = [next(_column_sweep(box.width, states, strengths, [c])) for box, c in zip(boxes, columns)]
    # read past the budget, so each edge count fits an int64
    log_mass = _constant_log_mass(strengths[:, None], np.array([box.edge_count for box in boxes]), np.array(log_z).T)
    masses = [[math.exp(m) ** 2 for m in row] for row in log_mass.tolist()]
    return {
        "dimension": dimension,
        "states": states,
        "radii": list(radii),
        "betas": list(betas),
        "coupling": coupling,
        "candidates": [{"state": i, "masses": [list(row) for row in masses]} for i in range(1, states + 1)],
        # distinct constant cells make distinct diagonal pairs, so distinct generators
        "distinct_generators": True,
    }
