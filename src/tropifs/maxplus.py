"""Max-plus semiring scalars and matrices.

Scalars live in R u {-inf} with a (+) b = max(a, b) and a (*) b = a + b.
BOTTOM is IEEE -inf: absorption under (*) and neutrality under (+) are then
exact float identities, provided +inf and NaN never enter (constructors
reject them).  Finite entries are ordinary float64.  A sum below the float
range (about -1.8e308) saturates to BOTTOM, the max-plus value nearest
it, under ``np.errstate(over="ignore")``: no numpy warning is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalError, PositiveCycleError
from .spaces import row_chunks

#: Additive neutral / multiplicative absorber of the semiring.
BOTTOM = float("-inf")

#: Floyd-Warshall sweeps allowed before the closure of input that
#: :func:`_sums_exact` rejects counts as unstable.
_MAX_SWEEPS = 8


def _check_entries(entries: np.ndarray) -> np.ndarray:
    entries = np.asarray(entries, dtype=np.float64)
    if np.isnan(entries).any() or (entries == np.inf).any():
        raise ValueError("max-plus values must be finite or -inf")
    return entries


@dataclass
class MpMatrix:
    """Dense matrix over the max-plus semiring (float64, -inf for bottom)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = _check_entries(self.entries)
        if self.entries.ndim != 2:
            raise DimensionError("MpMatrix requires a 2-d entry table")

    def __eq__(self, other) -> bool:
        return isinstance(other, MpMatrix) and np.array_equal(
            self.entries, other.entries
        )


def _sums_exact(entries: np.ndarray) -> bool:
    """Whether every best path weight of ``entries``, and every partial sum
    along one, is a float, so that the closure's sums along them are exact.

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


def _plus_columns(n: int, src, tgt, w, sources: np.ndarray) -> np.ndarray:
    """col[:, k] = A+[:, sources[k]] for the edges y -> x of weight w <= 0
    of a graph on n points (one edge per pair, listed by source: ``src``
    sorted; ``sources`` distinct).

    Value iteration col <- max(col, transfer(col)) from the unit columns at
    all sources at once gives the best weight of a path of length >= 0:
    each round relaxes, in place, only the out-edges of the rows that
    changed in the round before, their (edges, k) block of sums taken in
    the slices of the shared chunk rule :func:`~tropifs.spaces.row_chunks`.
    Each such chunk reads the block before it scatters its sums with one
    ``np.maximum.at``; any order of these monotone updates reaches the
    same least fixed point.  Weights are <= 0, so off the diagonal that is
    the closure, and the diagonal entry A+[z, z] is the return weight: the
    max over edges y -> z of col[y, z] + w.
    """
    start = np.searchsorted(src, np.arange(n + 1))
    k = sources.size
    cols = np.full((n, k), BOTTOM)
    cols[sources, np.arange(k)] = 0.0
    frontier = sources
    for _ in range(n):  # a best path is simple, so n rounds always suffice
        if not frontier.size:
            break
        # the out-edge ranges [start[v], start[v + 1]) of the frontier, joined
        lo, counts = start[frontier], start[frontier + 1] - start[frontier]
        edges = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        grown = np.zeros(n, dtype=bool)
        for s in row_chunks(edges.size, k):
            part = edges[s]
            t = tgt[part]
            best = cols.take(src[part], axis=0)
            with np.errstate(over="ignore"):
                best += w[part, None]
            grown[t[(best > cols.take(t, axis=0)).any(axis=1)]] = True
            np.maximum.at(cols.reshape(-1), (t[:, None] * k + np.arange(k)).ravel(), best.ravel())
        frontier = np.flatnonzero(grown)
    if frontier.size:
        raise InternalError(f"path weights still changing after {n} rounds")
    slot = np.full(n, -1)
    slot[sources] = np.arange(k)
    into = slot[tgt] >= 0
    into_slot = slot[tgt[into]]
    ret = np.full(k, BOTTOM)
    with np.errstate(over="ignore"):
        np.maximum.at(ret, into_slot, cols[src[into], into_slot] + w[into])
    cols[sources, np.arange(k)] = ret
    # 0.0 + folds a -0.0 sum into 0.0
    return np.add(0.0, cols, out=cols)


def kleene_plus(a: MpMatrix) -> MpMatrix:
    """Transitive closure A+ = A (+) A^2 (+) ... (+) A^n.

    Entry (i, j) is the supremum of total weights over all paths j -> i of
    length >= 1 (row index is the path target).  Requires that no cycle has
    strictly positive weight; this holds automatically when all entries are
    <= 0, and is detected otherwise through the diagonal of the result.

    When :func:`_sums_exact` holds (every finite entry is <= 0, none is
    -0.0, and all are integer multiples of Q = 2^(E - 53) with
    2^E > 2 * n * max|entry|: the 2^-26 lattice, for one), the closure is
    :func:`_plus_columns` from all n points over the finite entries, which
    costs one round per edge of the longest best path, each over the edges
    out of the rows that changed: far below n^3 on a transition matrix,
    whose m maps give at most m * n edges, though above it on a dense
    table.  It is the real closure, bit for bit:

    * with weights <= 0 a best walk may be taken simple, or one simple
      cycle, so its weight is a multiple of Q of magnitude
      <= n * max|entry| < 2^E = 2^53 * Q, hence a float, and so is every
      partial sum along it;
    * every stored value is the float of a walk weight, formed by adding
      one edge at a time, and is never above the best weight: by
      induction, fl(v + w) <= fl(best(y) + w) <= best(x), since float
      addition is monotone and best(x) is a float;
    * along a best simple path every partial sum is exact, so the fixed
      point reaches each best weight;
    * no sum is -0.0 (x + y is -0.0 only when both are), so every zero is
      the +0.0 of the real closure.

    Other input keeps Floyd-Warshall, run in place so that memory stays
    O(n^2), in sweeps until one changes no entry (a few may absorb
    rounding on non-dyadic input).  A sweep without change leaves
    P >= P[:, k] + P[k, :] for every k in float, so the triangle property
    of the closure is exact.
    """
    n, cols = a.entries.shape
    if n != cols:
        raise DimensionError("kleene_plus requires a square matrix")
    if _sums_exact(a.entries):
        src, tgt = np.nonzero(a.entries.T > BOTTOM)
        return MpMatrix(_plus_columns(n, src, tgt, a.entries[tgt, src], np.arange(n)))
    p = a.entries.copy()
    through = np.empty_like(p)
    for _ in range(_MAX_SWEEPS):
        before = p.copy()
        with np.errstate(over="ignore"):
            for k in range(n):
                np.add(p[:, k, None], p[None, k, :], out=through)
                np.maximum(p, through, out=p)
        diag_max = np.max(np.diagonal(p)) if n else BOTTOM
        if diag_max > 0:
            raise PositiveCycleError(f"positive-weight cycle detected (diag max {diag_max})")
        if np.array_equal(p, before):
            return MpMatrix(p)
    raise InternalError("closure failed to stabilize")
