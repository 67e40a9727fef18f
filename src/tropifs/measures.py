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
from .maxplus import BOTTOM, _check_entries
from .spaces import FiniteSpace


@dataclass
class Density:
    """Per-point max-plus values of an idempotent measure on a finite space,
    or of a block of k measures, one per row of (k, n) ``values``."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_entries(self.values)
        if self.values.shape[-1:] != (self.space.n,) or self.values.ndim > 2:
            raise DimensionError("density length must match the space size")
        if not np.any(self.values > BOTTOM, axis=-1).all():
            raise EmptySupportError("density has empty support")
        self.values.flags.writeable = False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Density)
            and other.space is self.space
            and np.array_equal(self.values, other.values)
        )
