"""Max-plus semiring scalars and matrices.

Scalars live in R u {-inf} with a (+) b = max(a, b) and a (*) b = a + b.
BOTTOM is IEEE -inf: absorption under (*) and neutrality under (+) are then
exact float identities, provided +inf and NaN never enter (constructors
reject them).  Finite entries are ordinary float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalError, PositiveCycleError

#: Additive neutral / multiplicative absorber of the semiring.
BOTTOM = float("-inf")

#: Floyd-Warshall sweeps allowed before the closure counts as unstable.
_MAX_SWEEPS = 8


def _check_entries(entries: np.ndarray) -> np.ndarray:
    entries = np.asarray(entries, dtype=np.float64)
    if np.isnan(entries).any() or (entries == np.inf).any():
        raise ValueError("matrix entries must be finite or -inf")
    return entries


@dataclass
class MpMatrix:
    """Dense matrix over the max-plus semiring (float64, -inf for bottom)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = _check_entries(self.entries)
        if self.entries.ndim != 2:
            raise DimensionError("MpMatrix requires a 2-d entry table")

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, MpMatrix) and np.array_equal(
            self.entries, other.entries
        )


def kleene_plus(a: MpMatrix) -> MpMatrix:
    """Transitive closure A+ = A (+) A^2 (+) ... (+) A^n by Floyd-Warshall.

    Entry (i, j) is the supremum of total weights over all paths j -> i of
    length >= 1 (row index is the path target).  Requires that no cycle has
    strictly positive weight; this holds automatically when all entries are
    <= 0, and is detected otherwise through the diagonal of the result.

    The relaxation runs in place, so memory stays O(n^2).  Sweeps repeat
    until one changes no entry (one extra sweep in exact arithmetic; a few
    more may absorb rounding on non-dyadic input).  A sweep without change
    leaves P >= P[:, k] + P[k, :] for every k in float, so the triangle
    property of the closure is exact.
    """
    if a.rows != a.cols:
        raise DimensionError("kleene_plus requires a square matrix")
    p = a.entries.copy()
    n = a.rows
    for _ in range(_MAX_SWEEPS):
        before = p.copy()
        for k in range(n):
            np.maximum(p, p[:, k, None] + p[None, k, :], out=p)
        diag_max = np.max(np.diagonal(p)) if n else BOTTOM
        if diag_max > 0:
            raise PositiveCycleError(f"positive-weight cycle detected (diag max {diag_max})")
        if np.array_equal(p, before):
            return MpMatrix(p)
    raise InternalError("closure failed to stabilize")
