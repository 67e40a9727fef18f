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


def _sums_exact(entries: np.ndarray) -> bool:
    """Whether every sum one Floyd-Warshall sweep of ``entries`` forms is exact.

    True when every finite entry is <= 0 and none is -0.0, and, with
    2^E > 2 * n * max|entry| and Q = 2^(E - 53), every finite entry is an
    integer multiple of Q (a Q that underflows to 0 never qualifies).
    """
    finite = entries[entries > BOTTOM]
    if (finite > 0).any() or np.signbit(finite[finite == 0]).any():
        return False
    bound = 2.0 * entries.shape[0] * -float(finite.min(initial=0.0))
    if not np.isfinite(bound):
        return False
    q = np.ldexp(1.0, np.frexp(bound)[1] - 53)
    return bool(q > 0 and np.all(finite == np.round(finite / q) * q))


def kleene_plus(a: MpMatrix) -> MpMatrix:
    """Transitive closure A+ = A (+) A^2 (+) ... (+) A^n by Floyd-Warshall.

    Entry (i, j) is the supremum of total weights over all paths j -> i of
    length >= 1 (row index is the path target).  Requires that no cycle has
    strictly positive weight; this holds automatically when all entries are
    <= 0, and is detected otherwise through the diagonal of the result.

    The relaxation runs in place, so memory stays O(n^2).  In general sweeps
    repeat until one changes no entry (a few may absorb rounding on
    non-dyadic input).  A sweep without change leaves
    P >= P[:, k] + P[k, :] for every k in float, so the triangle property
    of the closure is exact.

    One sweep is enough when :func:`_sums_exact` holds: every finite entry
    is <= 0, none is -0.0, and all are integer multiples of Q = 2^(E - 53)
    with 2^E > 2 * n * max|entry| (the 2^-26 lattice, for one).  Proof:
    with weights <= 0 every operand P[i, k], P[k, j] of the sweep is the
    weight of a best path, which may be taken simple or one simple cycle,
    so it is a multiple of Q of magnitude <= n * max|entry|.  Their sum is
    a multiple of Q below 2^E = 2^53 * Q in magnitude, hence a float, so
    each sum is exact and the sweep computes the real closure.  A further
    sweep only forms sums of real path weights, none above the entry it
    meets, so it changes no value; and with no -0.0 in A no sum is -0.0
    (x + y is -0.0 only when both are), so it changes no sign of a zero
    either.  The confirming sweep would change no bit and is skipped.
    With -0.0 entries it could: ``np.maximum`` ties -0.0 and 0.0.
    """
    if a.rows != a.cols:
        raise DimensionError("kleene_plus requires a square matrix")
    p = a.entries.copy()
    n = a.rows
    exact = _sums_exact(p)
    through = np.empty_like(p)
    for _ in range(_MAX_SWEEPS):
        before = None if exact else p.copy()
        for k in range(n):
            np.add(p[:, k, None], p[None, k, :], out=through)
            np.maximum(p, through, out=p)
        diag_max = np.max(np.diagonal(p)) if n else BOTTOM
        if diag_max > 0:
            raise PositiveCycleError(f"positive-weight cycle detected (diag max {diag_max})")
        if exact or np.array_equal(p, before):
            return MpMatrix(p)
    raise InternalError("closure failed to stabilize")
