"""Cells, pair cells and children sets over a graph's component partition.

A cell assigns one of ``k`` states to every vertex.  States are the integers
``1..k``; internally cells store 0-based digits and are canonically encoded
as base-``k`` integers with vertex 0 least significant.  A pair cell is an
ordered pair of cells, encoded as ``first * k**n + second``.

The children of a pair ``(phi, psi)`` are the cells that agree with ``phi``
or with ``psi`` on every component of the graph, assembled componentwise.
For a pair disagreeing on ``c`` components the children set has ``2**c``
cells and the pair-children set ``4**c`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_budget

__all__ = [
    "StateSpace",
    "Cell",
    "PairCell",
    "base_code",
    "state_axes",
    "cellwise",
    "children_set",
    "component_contributions",
    "children_indices",
    "state_space_from_json",
]


@dataclass(frozen=True)
class StateSpace:
    """The ``k`` states ``1..k``, optionally carrying display labels."""

    k: int
    labels: tuple = None

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("states: k must be at least 1")
        labels = self.labels
        if labels is None:
            labels = tuple(str(s) for s in range(1, self.k + 1))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != self.k:
                raise ValidationError("states: label count must equal k")
            if len(set(labels)) != self.k:
                raise ValidationError("states: duplicate labels")
        object.__setattr__(self, "labels", labels)

    def label_of(self, state: int) -> str:
        return self.labels[state - 1]


@dataclass(frozen=True)
class Cell:
    """A total assignment of states to vertices.

    ``digits`` holds the 0-based state digit per vertex; ``states`` exposes
    the 1-based values.  The canonical index round-trips exactly with the
    assignment.
    """

    digits: tuple
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("cell: k must be at least 1")
        digits = tuple(int(d) for d in self.digits)
        if not digits:
            raise ValidationError("cell: at least one vertex required")
        if any(d < 0 or d >= self.k for d in digits):
            raise ValidationError("cell: digit out of range")
        object.__setattr__(self, "digits", digits)

    @classmethod
    def from_index(cls, index: int, n: int, k: int) -> "Cell":
        if not 0 <= index < k**n:
            raise ValidationError(f"cell index {index} out of range for k^n={k**n}")
        digits = []
        rest = index
        for _ in range(n):
            rest, d = divmod(rest, k)
            digits.append(d)
        return cls(tuple(digits), k)

    @classmethod
    def from_states(cls, states, k: int) -> "Cell":
        return cls(tuple(int(s) - 1 for s in states), k)

    @property
    def n(self) -> int:
        return len(self.digits)

    @property
    def index(self) -> int:
        return base_code(reversed(self.digits), self.k)

    @property
    def states(self) -> tuple:
        return tuple(d + 1 for d in self.digits)

    def label(self, space: StateSpace) -> str:
        return "(" + ",".join(space.label_of(s) for s in self.states) + ")"


def base_code(digits, k: int):
    """Base-``k`` code of a digit sequence, its first digit most significant; digits may be arrays."""
    value = 0
    for d in digits:
        value = value * k + d
    return value


def state_axes(n: int, k: int) -> list:
    """One array per vertex ``v``, its states ``0..k-1`` along axis ``n-1-v``: together they broadcast to every cell
    and ravel in canonical index order.  With one state all share one axis, which keeps any vertex count within
    numpy's dimension limit.  ``k**n`` cells past ``ENUMERATION_BUDGET`` raise a ``BudgetError`` first."""
    check_budget(k**n, "cell space: k^n", "cells")
    return [np.arange(k).reshape((k,) + (1,) * (v * (k > 1))) for v in range(n)]


def cellwise(value, digit) -> np.ndarray:
    """``value`` at every cell that the arrays ``digit`` broadcast to, flat in canonical index order."""
    return np.broadcast_to(value, np.broadcast_shapes(*map(np.shape, digit))).ravel()


@dataclass(frozen=True)
class PairCell:
    """An ordered pair of cells on the same vertex set and state space."""

    first: Cell
    second: Cell

    def __post_init__(self):
        if self.first.n != self.second.n or self.first.k != self.second.k:
            raise ValidationError("pair cell: members must share vertex set and state space")

    @classmethod
    def from_index(cls, index: int, n: int, k: int) -> "PairCell":
        kn = k**n
        if not 0 <= index < kn * kn:
            raise ValidationError(f"pair index {index} out of range for k^2n={kn * kn}")
        a, b = divmod(index, kn)
        return cls(Cell.from_index(a, n, k), Cell.from_index(b, n, k))

    @property
    def n(self) -> int:
        return self.first.n

    @property
    def k(self) -> int:
        return self.first.k

    @property
    def index(self) -> int:
        return self.first.index * self.first.k ** self.first.n + self.second.index

    def label(self, space: StateSpace) -> str:
        return f"({self.first.label(space)},{self.second.label(space)})"


def component_contributions(digit, parts: tuple, k: int) -> np.ndarray:
    """``sum(digit[v] * k**v)`` over each component's vertices, one column per component of ``parts``.

    ``digit[v]`` holds vertex ``v``'s states, as ``state_axes`` or as arrays
    that broadcast alike.  A cell's index is the sum of its contributions, and
    two cells agree on a component exactly when their contributions coincide.
    """
    shape = np.broadcast_shapes(*map(np.shape, digit))
    return np.stack([np.broadcast_to(sum(digit[v] * k**v for v in b), shape).ravel() for b in parts], axis=-1)


def children_indices(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Sorted children cell indices of pairs, from their parents' contributions.

    ``first`` and ``second`` have shape ``(R, B)``, and every pair differs on
    the same number ``c`` of components.  Row ``r`` of the ``(R, 2**c)``
    result is the componentwise minimum plus every subset sum of the
    differences: a child copies either parent on each component.  It has
    the inputs' dtype: int32 for the heredity layout, objects for Python
    integers.
    """
    diff = np.abs(first - second)
    c = int(np.count_nonzero(diff[0]))
    steps = diff[diff != 0].reshape(len(diff), c)
    subsets = ((np.arange(2**c)[:, None] >> np.arange(c)) & 1).astype(diff.dtype)
    base = np.minimum(first, second).sum(axis=1, dtype=diff.dtype)
    return np.sort(base[:, None] + steps @ subsets.T, axis=1)


def children_set(theta: PairCell, parts: tuple) -> set:
    """The cells assembled componentwise from the two parents of ``theta``.

    ``parts`` holds the components, as ``graphs.components`` gives them.  On
    every component the child copies the first parent's subcell or the
    second's, independently of the other components.
    """
    if sorted(v for blk in parts for v in blk) != list(range(theta.n)):
        raise ValidationError("children: partition does not cover the pair's vertex set")
    # each vertex's two parent states, as Python integers, so no cell index can overflow whatever the vertex count
    digit = np.array([theta.first.digits, theta.second.digits], dtype=object).T
    first, second = component_contributions(digit, parts, theta.k)
    kids = children_indices(first[None], second[None])[0]
    return {Cell.from_index(i, theta.n, theta.k) for i in kids.tolist()}


def state_space_from_json(descriptor: dict) -> StateSpace:
    """Build a state space from ``{"states": ["a", "A", ...]}``."""
    if not isinstance(descriptor, dict) or "states" not in descriptor:
        raise ValidationError("states: descriptor must contain a states list")
    labels = descriptor["states"]
    if not isinstance(labels, list) or not labels:
        raise ValidationError("states: nonempty list required")
    return StateSpace(len(labels), tuple(str(s) for s in labels))
