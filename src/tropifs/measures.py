"""Idempotent (Maslov) measures represented by their densities.

A measure mu with density lam acts on a function f through
mu(f) = max_x (lam(x) + f(x)).  On a finite space the density is just an
array over the points, with BOTTOM marking points outside the support.
A *probability* is a density whose maximum is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptySupportError
from .maxplus import BOTTOM
from .spaces import FiniteSpace


def _as_values(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if np.isnan(v).any() or (v == np.inf).any():
        raise ValueError("density values must be finite or -inf")
    return v


@dataclass
class Density:
    """Per-point max-plus values of an idempotent measure on a finite space."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.values)
        if self.values.shape != (self.space.n,):
            raise DimensionError("density length must match the space size")
        if not np.any(self.values > BOTTOM):
            raise EmptySupportError("density has empty support")
        self.values.flags.writeable = False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Density)
            and other.space is self.space
            and np.array_equal(self.values, other.values)
        )


def dirac(space: FiniteSpace, x: int, a: float = 0.0) -> Density:
    """Density with the single finite value ``a`` at point ``x``."""
    if not 0 <= x < space.n:
        raise IndexError(f"point index {x} out of range for {space.n}-point space")
    if not np.isfinite(a):
        raise ValueError("dirac level must be finite")
    v = np.full(space.n, BOTTOM)
    v[x] = a
    return Density(space, v)


def support(lam: Density) -> set:
    """Indices carrying a finite value."""
    return set(np.flatnonzero(lam.values > BOTTOM).tolist())


def mu_eval(lam: Density, f) -> float:
    """Evaluate the measure on a finite function: max_x (lam(x) + f(x))."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != lam.values.shape:
        raise DimensionError("function length must match the space size")
    return float(np.max(lam.values + f))


def normalize(lam: Density) -> Density:
    """Shift so the maximum finite value is exactly 0."""
    top = lam.values.max()
    if top == BOTTOM:
        raise EmptySupportError("cannot normalize an all-bottom density")
    return Density(lam.space, lam.values - top)


def indicator(space: FiniteSpace, a) -> np.ndarray:
    """Max-plus indicator of an index set: 0 on the set, -inf off it."""
    v = np.full(space.n, BOTTOM)
    idx = list(a)
    if idx:
        v[idx] = 0.0
    return v


def set_measure(lam: Density, a) -> float:
    """Measure of an index set: max of the density over the set (BOTTOM if empty)."""
    idx = list(a)
    if not idx:
        return BOTTOM
    return float(np.max(lam.values[idx]))


def idempotent_integral(lam: Density, h) -> float:
    """max_x (lam(x) + h(x)) where ``h`` may itself take BOTTOM."""
    h = _as_values(h)
    if h.shape != lam.values.shape:
        raise DimensionError("integrand length must match the space size")
    return float(np.max(lam.values + h))
