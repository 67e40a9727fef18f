"""Finite discretizations of compact metric spaces.

A :class:`FiniteSpace` is a point set with a metric and a ``resolution``:
the covering radius the discretization guarantees relative to the
continuum it stands in for (0 when the space is exact, as for the
two-point space or any space used as-is).  A space given as a distance
table holds that table.  The builders' spaces instead hold a record the
metric can be read from, and build their dense ``dist`` only when
something reads it:

* an interval grid holds a :class:`Grid` of its sorted float coordinates,
  under d(x, y) = |x - y|; the contraction and Lipschitz routines on a
  grid read the coordinates in about O(m^2 * n log n), while the
  distances to a set (:meth:`FiniteSpace.distances_to`, behind
  :func:`hausdorff` and the fuzzy level sweep) still read ``dist``;
* a truncated shift space holds a :class:`Shift` of its alphabet size and
  depth.  Its words (tuples of symbols) are listed lexicographically under
  the cylinder metric d(w, v) = (1/2)^(first mismatch position), so the
  words sharing a prefix of length p form contiguous index blocks of side
  symbols^(depth - p), and every routine on a shift (those distances, and
  the contraction and Lipschitz routines) works in O(n * depth) on those
  blocks.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptySetError

METRIC_TOL = 1e-12
#: Most values (rows x points) of a block that one step takes at a time:
#: each temporary stays within 512 KiB, or one row when a row is longer.
CHUNK_VALUES = 2**16
#: Most points :func:`build_grid` and :func:`build_shift_space` will build,
#: checked before anything is allocated.  Neither space holds a table, but
#: a grid's :meth:`FiniteSpace.distances_to` still builds its n x n
#: ``dist`` (2 GiB at this limit) on first read.
MAX_POINTS = 2**14


def row_chunks(rows: int, width: int):
    """Slices of the consecutive rows of a ``rows`` x ``width`` block, in
    order, each holding at most ``CHUNK_VALUES`` values, or one row when a
    row is longer.  Every blocked loop walks its rows in these slices."""
    step = max(1, CHUNK_VALUES // width)
    for first in range(0, rows, step):
        yield slice(first, min(first + step, rows))


def _lock(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def check_metric(dist: np.ndarray) -> None:
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
    # running minimum over the middle index j keeps memory at O(n^2).  A
    # sum that overflows is +inf, which bounds nothing.
    through = np.full((n, n), np.inf)
    with np.errstate(over="ignore"):
        for j in range(n):
            np.minimum(through, dist[:, j, None] + dist[None, j, :], out=through)
    if np.any(dist > through + METRIC_TOL * max(1.0, top)):
        raise ConfigError("triangle inequality violated")


class Shift(NamedTuple):
    """The words of length ``depth`` over {1..symbols}, listed lexicographically.

    The word at index i is the base-``symbols`` numeral of i, so the words
    sharing a prefix of length p are the index blocks of side
    :meth:`block` (p), and in any block the first and last index are
    farthest apart.
    """

    symbols: int
    depth: int

    @property
    def levels(self) -> np.ndarray:
        """``levels[p]`` = (1/2)^(p + 1), the distance of two words whose
        longest common prefix has length p.

        The dense table and every routine reading the metric from the word
        order take their distances from this array, so both give the same
        floats.
        """
        return 0.5 ** np.arange(1, self.depth + 1)

    def block(self, p: int) -> int:
        """Side of the index blocks of the words sharing a prefix of length ``p``."""
        return self.symbols ** (self.depth - p)

    def blockwise(self, ufunc, rows):
        """``ufunc`` reduced over every block of the last axis of ``rows``.

        Yields ``(p, r)`` for p = depth - 1 down to 0, where ``r[..., q]``
        reduces ``rows[..., q * block(p):(q + 1) * block(p)]``; each level
        is reduced from the one below it, in O(n) in all.
        """
        r = np.asarray(rows)
        for p in range(self.depth - 1, -1, -1):
            r = ufunc.reduce(r.reshape(*r.shape[:-1], -1, self.symbols), axis=-1)
            yield p, r

    def distances(self, i, k) -> np.ndarray:
        """d(i, k) elementwise over index arrays: the level of the longest
        common prefix, which counts the levels p >= 1 whose blocks hold both."""
        i, k = np.asarray(i), np.asarray(k)
        common = np.zeros(np.broadcast(i, k).shape, dtype=np.intp)
        for p in range(1, self.depth + 1):
            common += i // self.block(p) == k // self.block(p)
        return np.append(self.levels, 0.0)[common]

    def distances_to(self, t: np.ndarray, xs: np.ndarray, k) -> np.ndarray:
        """Distance from each word ``xs[i]`` to the set {v : t[v] < k[i]},
        +inf where that set is empty.

        The block of level p around x meets the set when the least ``t`` in
        it is below k.  Blocks nest, so the longest prefix x shares with the
        set counts the levels p >= 1 whose block meets it.
        """
        k = np.broadcast_to(k, xs.shape)
        common = (t[xs] < k).astype(np.intp)
        for p, first in self.blockwise(np.minimum, t):
            if p:
                common += first[xs // self.block(p)] < k
        near = np.append(self.levels, 0.0)[common]
        near[t.min() >= k] = np.inf
        return near

    def table(self) -> np.ndarray:
        """The dense n x n table, filled block-diagonally one level at a time."""
        n = self.symbols**self.depth
        dist = np.empty((n, n))
        for p, level in enumerate(self.levels):
            b = self.block(p)
            diagonal = np.arange(n // b)
            dist.reshape(n // b, b, n // b, b)[diagonal, :, diagonal, :] = level
        np.fill_diagonal(dist, 0.0)
        return dist


class Grid(NamedTuple):
    """Sorted, distinct float coordinates under d(x, y) = |x - y|.

    Every distance is ``abs`` of one float subtraction, here and in the
    dense table alike, so both give the same floats; as fl(x - y) is
    monotone in x and in y, the farthest pair is the first and the last
    point.
    """

    xs: np.ndarray

    def distances(self, i, k) -> np.ndarray:
        """d(i, k) elementwise over index arrays."""
        return np.abs(self.xs[i] - self.xs[k])

    def table(self) -> np.ndarray:
        """The dense n x n table."""
        dist = np.subtract.outer(self.xs, self.xs)
        return np.abs(dist, out=dist)


class FiniteSpace:
    """Finite point set standing in for a compact metric space, or the
    metric space of map indices of a system.

    ``labels`` is kept as a tuple, so every reader shares one immutable
    object.  ``points`` holds the words of a shift space (a tuple of
    tuples), and is None elsewhere.
    ``grid`` and ``shift`` are set only by :func:`build_grid` and
    :func:`build_shift_space`, and are how code tells those spaces: such a
    space takes no table, skips the O(n^3) :func:`check_metric` (its
    metric is one by construction) and builds ``dist`` on its first read.
    """

    def __init__(
        self,
        labels: Sequence[str],
        dist=None,
        resolution: float = 0.0,
        points: Optional[object] = None,
        shift: Optional[Shift] = None,
        grid: Optional[Grid] = None,
    ):
        self.labels = tuple(labels)
        self.resolution = resolution
        self.points = points
        self.shift = shift
        self.grid = grid
        if shift is not None:
            self._dist = None
            size = shift.symbols**shift.depth
        elif grid is not None:
            self._dist = None
            size = len(grid.xs)
        else:
            self._dist = _lock(dist)
            check_metric(self._dist)
            size = self._dist.shape[0]
        if len(self.labels) != size:
            raise ConfigError("labels and distance table disagree in size")
        if not 0 <= self.resolution < np.inf:  # NaN would switch the contraction check off
            raise ConfigError(f"resolution must be a finite number >= 0, got {self.resolution!r}")

    @property
    def dist(self) -> np.ndarray:
        if self._dist is None:
            record = self.shift if self.shift is not None else self.grid
            self._dist = _lock(record.table())
        return self._dist

    def distances(self, i, k) -> np.ndarray:
        """d(i, k) elementwise over index arrays, equal to ``dist[i, k]``;
        a grid or a shift reads them from its record."""
        record = self.shift if self.shift is not None else self.grid
        if record is not None:
            return record.distances(i, k)
        return self.dist[i, k]

    def distances_to(self, t: np.ndarray, xs: np.ndarray, k) -> np.ndarray:
        """Distance from each point ``xs[i]`` to the set {v : t[v] < k[i]},
        +inf where that set is empty.

        A shift reads them from its blocks (:meth:`Shift.distances_to`).
        Elsewhere each set is a prefix of the points in the order of ``t``:
        a running minimum of the ``dist`` rows in that order, copied at the
        prefixes some point reads, gives them all in O(n^2).  The points,
        sorted once by the prefix they read, read the copies of one
        :func:`row_chunks` block of prefixes before the next block is made
        (a copy per prefix took 128 MiB at n = 4096; reading each point as
        the sweep reaches its prefix made ``tropifs fuzzy`` 1.3x slower at
        n = 148).  Runs of 8 rows or more between two prefixes
        some point reads are folded in the blocks of
        :func:`row_chunks` while n <= 2048, where a block beats as many
        row minimums; shorter runs, and longer rows, go one row at a time.
        So besides ``dist`` and O(len(xs)) for the points, at most
        ``2 * CHUNK_VALUES`` values are held: one block of copies and one
        folded block of rows.
        One row at a time throughout made ``tropifs fuzzy`` on ``grid_random``
        1.16x slower at n = 148 and up to 1.24x at n = 64, with n = 513 and
        2048 within noise (2 shared vCPUs; the grid ``fuzzy`` workloads of
        ROADMAP item 1 are to measure both sides of this rule).
        """
        if self.shift is not None:
            return self.shift.distances_to(t, xs, k)
        order = np.argsort(t, kind="stable")
        reach = np.searchsorted(t[order], k)  # the set of x is the first reach points
        read = np.zeros(self.n + 1, dtype=bool)
        read[0] = read[reach] = True
        sizes = np.flatnonzero(read).tolist()
        # xs[i] reads the distances to the first sizes[level[i]] points
        level = np.cumsum(read)[reach] - 1
        chunks = list(row_chunks(len(sizes), self.n))
        picks = [()]  # the points that read each chunk: here all of them
        if len(chunks) > 1:
            level = np.broadcast_to(level, np.shape(xs))
            by_level = np.argsort(level, kind="stable")
            picks = np.split(by_level, np.searchsorted(level[by_level], [c.start for c in chunks[1:]]))
        rows = np.empty((chunks[0].stop, self.n))  # rows[j]: those of sizes[c.start + j]
        out = np.empty(np.shape(xs))
        dist, near, lo = self.dist, np.full(self.n, np.inf), 0
        for c, pick in zip(chunks, picks):
            for row, hi in zip(rows, sizes[c]):
                run = order[lo:hi]
                if hi - lo < 8 or self.n > 2048:
                    for v in run.tolist():
                        np.minimum(near, dist[v], out=near)
                else:
                    for s in row_chunks(hi - lo, self.n):
                        np.minimum(near, dist[run[s]].min(axis=0), out=near)
                row[:], lo = near, hi
            out[pick] = rows[level[pick] - c.start, xs[pick]]
        return out

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        if self.n < 2:
            return 0.0
        if self.shift is not None:
            return float(self.shift.levels[0])
        if self.grid is not None:
            return float(self.grid.xs[-1] - self.grid.xs[0])
        return float(self.dist.max())


def build_grid(a: float, b: float, n: int) -> FiniteSpace:
    """Uniform grid of ``n`` points on [a, b]; covering radius is half the spacing."""
    if n < 2:
        raise ConfigError("grid needs at least 2 points")
    if n > MAX_POINTS:
        raise ConfigError(f"grid of {n} points is larger than the limit of {MAX_POINTS}")
    if not a < b:
        raise ConfigError("grid requires a < b")
    if float(b) - float(a) == np.inf:
        raise ConfigError(f"grid span b - a overflows the float range (a = {a}, b = {b})")
    xs = _lock(np.linspace(a, b, n))
    if not np.all(np.diff(xs) > 0):
        raise ConfigError("grid points must be distinct real numbers")
    res = (b - a) / (2 * (n - 1))
    return FiniteSpace(
        labels=[repr(float(x)) for x in xs],
        resolution=res,
        grid=Grid(xs),
    )


def build_shift_space(symbols: int, depth: int) -> FiniteSpace:
    """All words of given depth over {1..symbols} under the cylinder metric.

    d(w, v) = (1/2)^i where i >= 1 is the first position at which the words
    differ; the covering radius recorded is the cylinder diameter
    (1/2)^depth.  A word's label spells its symbols, joined by "." when
    some symbol has two digits (more than 9 symbols), so that no two
    words share a label.
    """
    if symbols < 1 or depth < 1:
        raise ConfigError("shift space needs symbols >= 1 and depth >= 1")
    # max() first keeps the power cheap whatever the inputs
    if max(symbols, depth) > MAX_POINTS or symbols**depth > MAX_POINTS:
        raise ConfigError(
            f"shift space of {symbols}^{depth} points is larger than the limit of {MAX_POINTS}"
        )
    words = tuple(itertools.product(range(1, symbols + 1), repeat=depth))
    sep = "." if symbols > 9 else ""
    return FiniteSpace(
        labels=[sep.join(map(str, w)) for w in words],
        resolution=0.5**depth,
        points=words,
        shift=Shift(symbols, depth),
    )


def snap(space: FiniteSpace, value):
    """Index of the grid point nearest ``value``; ties break toward the lowest index.

    ``value`` may be an array, which gives an array of indices.  Nearest
    means least ``abs(grid.xs - value)``, one float subtraction per point.
    That is monotone in the point, so only the sorted predecessor and
    successor of a value compete, and both are found by one binary search.
    A value that ties the predecessor with the point before it (where the
    subtraction rounds two points to one distance) takes the full scan.
    """
    if space.grid is None:
        raise ConfigError("space has no coordinate payload to snap a value onto")
    xs = space.grid.xs
    v = np.asarray(value, dtype=np.float64)
    flat = v.reshape(-1)
    hi = np.minimum(np.searchsorted(xs, flat), xs.size - 1)
    lo = np.maximum(hi - 1, 0)
    near_lo, near_hi = np.abs(xs[lo] - flat), np.abs(xs[hi] - flat)
    pick = np.where(near_lo <= near_hi, lo, hi)
    rounded = (pick > 0) & (np.abs(xs[pick - 1] - flat) == np.minimum(near_lo, near_hi))
    for at in np.flatnonzero(rounded):
        pick[at] = np.argmin(np.abs(xs - flat[at]))
    return int(pick[0]) if v.ndim == 0 else pick.reshape(v.shape)


def hausdorff(space: FiniteSpace, a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two nonempty sets, given as index arrays.

    Each direction is the largest distance from one set to the other,
    read by :meth:`FiniteSpace.distances_to`: O(n * depth) on a shift (no
    table is read), O(n^2) otherwise.
    """
    if a.size == 0 or b.size == 0:
        raise EmptySetError("hausdorff requires nonempty sets")
    far = 0.0
    for src, dst in ((a, b), (b, a)):
        outside = np.ones(space.n, dtype=np.intp)
        outside[dst] = 0
        far = max(far, float(space.distances_to(outside, src, 1).max()))
    return far
