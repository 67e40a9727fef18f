"""Finite discretizations of compact metric spaces.

A :class:`FiniteSpace` is a point set with a full distance table and a
``resolution``: the covering radius the discretization guarantees relative
to the continuum it stands in for (0 when the space is exact, as for the
two-point space or any space used as-is).  Interval grids carry float
coordinates; truncated shift spaces carry words (tuples of symbols) under
the cylinder metric d(w, v) = (1/2)^(first mismatch position).
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptySetError

METRIC_TOL = 1e-12
#: Most points :func:`build_grid` and :func:`build_shift_space` will build.
#: Every space holds a dense n x n ``dist`` (2 GiB at this limit), so the
#: count is checked before anything is allocated.
MAX_POINTS = 2**14


def _lock(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def check_metric(dist: np.ndarray, tol: float = METRIC_TOL) -> None:
    """Symmetry, zero diagonal (and only there), triangle inequality."""
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ConfigError("distance table must be square")
    n = dist.shape[0]
    if not np.isfinite(dist).all() or (dist < 0).any():
        raise ConfigError("distances must be nonnegative reals")
    if not np.array_equal(dist, dist.T):
        raise ConfigError("distance table must be symmetric")
    if np.any(np.diagonal(dist) != 0):
        raise ConfigError("diagonal distances must be zero")
    top = dist.max() if n else 0.0
    off = dist + np.eye(n) * (top + 1.0)
    if n > 1 and np.min(off) <= 0:
        raise ConfigError("distinct points must have positive distance")
    # d(i,k) <= d(i,j) + d(j,k) for all triples, within a tolerance relative
    # to the largest distance (float rounding grows with the magnitude); a
    # running minimum over the middle index j keeps memory at O(n^2).
    through = np.full((n, n), np.inf)
    for j in range(n):
        np.minimum(through, dist[:, j, None] + dist[None, j, :], out=through)
    if np.any(dist > through + tol * max(1.0, top)):
        raise ConfigError("triangle inequality violated")


@dataclass
class FiniteSpace:
    """Finite point set standing in for a compact metric space."""

    labels: list
    dist: np.ndarray
    resolution: float = 0.0
    #: Optional payload: grid coordinates (float array, read by
    #: :func:`snap`) or shift words (tuple of tuples).
    points: Optional[object] = None
    #: Set only by the builders whose tables are metrics by construction
    #: (|x - y| on distinct grid points, the cylinder ultrametric), which
    #: skip the O(n^3) :func:`check_metric`.
    _metric_by_construction: InitVar[bool] = False

    def __post_init__(self, _metric_by_construction):
        self.dist = _lock(np.asarray(self.dist, dtype=np.float64))
        if not _metric_by_construction:
            check_metric(self.dist)
        if len(self.labels) != self.dist.shape[0]:
            raise ConfigError("labels and distance table disagree in size")
        if self.resolution < 0:
            raise ConfigError("resolution must be >= 0")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0


@dataclass
class IndexSpace:
    """Finite metric space of map indices."""

    labels: list
    dist: np.ndarray

    def __post_init__(self):
        self.dist = _lock(np.asarray(self.dist, dtype=np.float64))
        check_metric(self.dist)
        if len(self.labels) != self.dist.shape[0]:
            raise ConfigError("labels and distance table disagree in size")

    @property
    def m(self) -> int:
        return self.dist.shape[0]


def build_grid(a: float, b: float, n: int) -> FiniteSpace:
    """Uniform grid of ``n`` points on [a, b]; covering radius is half the spacing."""
    if n < 2:
        raise ConfigError("grid needs at least 2 points")
    if n > MAX_POINTS:
        raise ConfigError(f"grid of {n} points is larger than the limit of {MAX_POINTS}")
    if not a < b:
        raise ConfigError("grid requires a < b")
    xs = np.linspace(a, b, n)
    if not np.all(np.diff(xs) > 0):
        raise ConfigError("grid points must be distinct real numbers")
    dist = np.abs(xs[:, None] - xs[None, :])
    res = (b - a) / (2 * (n - 1))
    return FiniteSpace(
        labels=[repr(float(x)) for x in xs],
        dist=dist,
        resolution=res,
        points=_lock(xs),
        _metric_by_construction=True,
    )


def build_shift_space(symbols: int, depth: int) -> FiniteSpace:
    """All words of given depth over {1..symbols} under the cylinder metric.

    d(w, v) = (1/2)^i where i >= 1 is the first position at which the words
    differ; the covering radius recorded is the cylinder diameter
    (1/2)^depth.
    """
    if symbols < 1 or depth < 1:
        raise ConfigError("shift space needs symbols >= 1 and depth >= 1")
    # max() first keeps the power cheap whatever the inputs
    if max(symbols, depth) > MAX_POINTS or symbols**depth > MAX_POINTS:
        raise ConfigError(
            f"shift space of {symbols}^{depth} points is larger than the limit of {MAX_POINTS}"
        )
    words = tuple(itertools.product(range(1, symbols + 1), repeat=depth))
    n = len(words)
    arr = np.array(words)
    dist = np.zeros((n, n))
    for i in range(depth):
        level = np.where(arr[:, None, i] != arr[None, :, i], 0.5 ** (i + 1), 0.0)
        mask = dist == 0
        dist[mask] = level[mask]
    np.fill_diagonal(dist, 0.0)
    return FiniteSpace(
        labels=["".join(map(str, w)) for w in words],
        dist=dist,
        resolution=0.5**depth,
        points=words,
        _metric_by_construction=True,
    )


def build_point_space(labels: Sequence[str], dist, resolution: float = 0.0) -> FiniteSpace:
    """Explicit space from a distance table; exact (no discretization error) by default."""
    return FiniteSpace(labels=list(labels), dist=np.asarray(dist, float), resolution=resolution)


def snap(space: FiniteSpace, value: float) -> int:
    """Index of the grid point nearest ``value``; ties break toward the lowest index."""
    if space.points is None or not isinstance(space.points, np.ndarray):
        raise ConfigError("space has no coordinate payload to snap a value onto")
    return int(np.argmin(np.abs(space.points - float(value))))


def hausdorff(space: FiniteSpace, a, b) -> float:
    """Hausdorff distance between two nonempty index sets."""
    ai = np.fromiter(a, dtype=int) if not isinstance(a, np.ndarray) else a
    bi = np.fromiter(b, dtype=int) if not isinstance(b, np.ndarray) else b
    if ai.size == 0 or bi.size == 0:
        raise EmptySetError("hausdorff requires nonempty sets")
    sub = space.dist[np.ix_(ai, bi)]
    return float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))
