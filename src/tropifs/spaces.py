"""Finite discretizations of compact metric spaces.

A space is a point set with a metric and a ``resolution``: the covering
radius the discretization guarantees relative to the continuum it stands
in for (0 when the space is exact, as for the two-point space or any
space used as-is).  Every caller reads a space through ``n``, ``labels``,
``dist``, ``diameter``, :meth:`~FiniteSpace.distances` and
:meth:`~FiniteSpace.distances_to`.  There is one class per kind:

* a :class:`FiniteSpace` holds an explicit distance table, checked by
  :func:`check_metric`;
* a :class:`Grid` (:func:`build_grid`) holds the sorted float coordinates
  of an interval grid, under d(x, y) = |x - y|; the contraction and
  Lipschitz routines on a grid read the coordinates in about
  O(m^2 * n log n), and the distances to a set (behind :func:`hausdorff`
  and the fuzzy level sweep) read them a block of rows at a time, in
  O(n^2);
* a :class:`Shift` (:func:`build_shift_space`) holds the alphabet size and
  depth of a truncated shift.  Its words are listed lexicographically
  under the cylinder metric d(w, v) = (1/2)^(first mismatch position), so
  the words sharing a prefix of length p form contiguous index blocks of
  side symbols^(depth - p), and every routine on a shift (those
  distances, and the contraction and Lipschitz routines) works in
  O(n * depth) on those blocks.

A grid or a shift holds only its record: it skips the O(n^3)
:func:`check_metric` (its metric is one by construction), and states that
metric once, in :meth:`~FiniteSpace.distances`.  Its ``labels``, a
shift's ``points`` and its ``dist``, the n x n table of ``distances``
over all index pairs, are built on their first read, then kept; no
command reads a grid's or a shift's ``dist``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptySetError

METRIC_TOL = 1e-12
#: Most values (rows x points) of a block that one step takes at a time:
#: each temporary stays within 512 KiB, or one row when a row is longer.
CHUNK_VALUES = 2**16
#: Most points :func:`build_grid` and :func:`build_shift_space` will build,
#: checked before anything is allocated.  Neither space holds a table; the
#: bound stands for the O(n^2) per step of grid ``fuzzy``, whose level
#: sweep reads :meth:`FiniteSpace.distances_to`.
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


class FiniteSpace:
    """Finite point set standing in for a compact metric space, or the
    metric space of map indices of a system, given as a distance table.

    ``labels`` is kept as a tuple, so every reader shares one immutable
    object, and ``dist`` is read-only.  :class:`Grid` and :class:`Shift`
    derive both from their record instead.
    """

    @cached_property
    def dist(self) -> np.ndarray:
        """The n x n table of :meth:`distances` over all index pairs, built
        on a record space's first read; an explicit table keeps its own."""
        i = np.arange(self.n)
        return _lock(self.distances(i[:, None], i))

    def __init__(self, labels: Sequence[str], dist, resolution: float = 0.0):
        self.labels = tuple(labels)
        self.dist = _lock(dist)
        check_metric(self.dist)
        if len(self.labels) != self.dist.shape[0]:
            raise ConfigError("labels and distance table disagree in size")
        if not 0 <= resolution < np.inf:  # NaN would switch the contraction check off
            raise ConfigError(f"resolution must be a finite number >= 0, got {resolution!r}")
        self.resolution = resolution

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n > 1 else 0.0

    def distances(self, i, k) -> np.ndarray:
        """d(i, k) elementwise over index arrays, equal to ``dist[i, k]``."""
        return self.dist[i, k]

    def distances_to(self, t: np.ndarray, xs: np.ndarray, k) -> np.ndarray:
        """Distance from each point ``xs[i]`` to the set {v : t[v] < k[i]},
        +inf where that set is empty.

        Each set is a prefix of the points in the order of ``t``: x reads
        the first ``reach`` of them.  The points, sorted once by reach, go
        in :func:`row_chunks` blocks; a block takes the :meth:`distances`
        from its points to the prefix its last point reads, and one
        ``minimum.reduceat`` over each row's own prefix gives each point
        its least distance, in O(n^2) in all.  The block is released
        before the next is built, so besides O(len(xs)) for the points at
        most ``CHUNK_VALUES`` distances are held: a grid builds no table.
        """
        order = np.argsort(t, kind="stable")
        reach = np.full(np.shape(xs), np.searchsorted(t[order], k))
        out = np.full(np.shape(xs), np.inf)
        # the points by reach, without those whose set is empty: they stay at +inf
        by_reach = np.argsort(reach, kind="stable")[np.count_nonzero(reach == 0):]
        for s in row_chunks(by_reach.size, self.n):
            pick = by_reach[s]
            size = reach[pick]
            block = self.distances(xs[pick, None], order[:size[-1]]).reshape(-1)
            # point i reads block[bounds[2i]:bounds[2i + 1]]; the last one reads to the end
            bounds = np.arange(0, block.size, size[-1]).repeat(2)
            bounds[1::2] += size
            out[pick] = np.minimum.reduceat(block, bounds[:-1])[::2]
            del block
        return out


class Grid(FiniteSpace):
    """Sorted, distinct float coordinates ``xs`` under d(x, y) = |x - y|,
    each labelled by the ``repr`` of its float.

    Every distance is ``abs`` of one float subtraction; as fl(x - y) is
    monotone in x and in y, the farthest pair is the first and the last
    point.
    """

    def __init__(self, xs: np.ndarray, resolution: float):
        self.xs = _lock(xs)
        self.resolution = resolution

    @property
    def n(self) -> int:
        return self.xs.size

    @cached_property
    def labels(self) -> tuple:
        return tuple(map(repr, self.xs.tolist()))

    @property
    def diameter(self) -> float:
        return float(self.xs[-1] - self.xs[0])

    def distances(self, i, k) -> np.ndarray:
        d = self.xs[i] - self.xs[k]
        return np.abs(d, out=d)


class Shift(FiniteSpace):
    """The words of length ``depth`` over {1..symbols}, listed lexicographically,
    under the cylinder metric; the covering radius is the cylinder
    diameter (1/2)^depth.

    The word at index i is the base-``symbols`` numeral of i, so the words
    sharing a prefix of length p are the index blocks of side
    :meth:`block` (p), and in any block the first and last index are
    farthest apart.  ``points`` holds the words as tuples of symbols.  A
    word's label spells its symbols, joined by "." when some symbol has
    two digits (more than 9 symbols), so that no two words share a label.
    """

    def __init__(self, symbols: int, depth: int):
        self.symbols = symbols
        self.depth = depth

    @property
    def n(self) -> int:
        return self.symbols**self.depth

    @property
    def resolution(self) -> float:
        return 0.5**self.depth

    @cached_property
    def labels(self) -> tuple:
        digits = [str(s) for s in range(1, self.symbols + 1)]
        sep = "." if self.symbols > 9 else ""
        return tuple(map(sep.join, itertools.product(digits, repeat=self.depth)))

    @cached_property
    def points(self) -> tuple:
        return tuple(itertools.product(range(1, self.symbols + 1), repeat=self.depth))

    @property
    def diameter(self) -> float:
        return float(self.levels[0]) if self.n > 1 else 0.0

    @property
    def levels(self) -> np.ndarray:
        """``levels[p]`` = (1/2)^(p + 1), the distance of two words whose
        longest common prefix has length p.  Every routine reading the
        metric from the word order takes its distances from this array.
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
        +inf where that set is empty, in O(n * depth).

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


def build_grid(a: float, b: float, n: int) -> Grid:
    """Uniform grid of ``n`` points on [a, b]; covering radius is half the spacing."""
    if n < 2:
        raise ConfigError("grid needs at least 2 points")
    if n > MAX_POINTS:
        raise ConfigError(f"grid of {n} points is larger than the limit of {MAX_POINTS}")
    if not a < b:
        raise ConfigError("grid requires a < b")
    if float(b) - float(a) == np.inf:
        raise ConfigError(f"grid span b - a overflows the float range (a = {a}, b = {b})")
    xs = np.linspace(a, b, n)
    if not np.all(np.diff(xs) > 0):
        raise ConfigError("grid points must be distinct real numbers")
    return Grid(xs, (b - a) / (2 * (n - 1)))


def build_shift_space(symbols: int, depth: int) -> Shift:
    """All words of given depth over {1..symbols} under the cylinder metric
    d(w, v) = (1/2)^i, where i >= 1 is the first position at which the
    words differ.

    The depth must leave the least level (1/2)^depth a positive float:
    past 1074 it underflows to 0, and the contraction and Lipschitz
    estimates divide by the levels.
    """
    if symbols < 1 or depth < 1:
        raise ConfigError("shift space needs symbols >= 1 and depth >= 1")
    # max() first keeps the power cheap whatever the inputs
    if max(symbols, depth) > MAX_POINTS or symbols**depth > MAX_POINTS:
        raise ConfigError(
            f"shift space of {symbols}^{depth} points is larger than the limit of {MAX_POINTS}"
        )
    if 0.5**depth == 0:
        raise ConfigError(f"shift depth {depth} underflows: the cylinder distance "
                          f"(1/2)^{depth} is 0 as a float")
    return Shift(symbols, depth)


def snap(space: FiniteSpace, value):
    """Index of the grid point nearest ``value``; ties break toward the lowest index.

    ``value`` may be an array, which gives an array of indices.  Nearest
    means least ``abs(space.xs - value)``, one float subtraction per point.
    That is monotone in the point, so only the sorted predecessor and
    successor of a value compete, and both are found by one binary search.
    A value that ties the predecessor with the point before it (where the
    subtraction rounds two points to one distance) takes the full scan.
    """
    if not isinstance(space, Grid):
        raise ConfigError("space has no coordinate payload to snap a value onto")
    xs = space.xs
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
    read by :meth:`FiniteSpace.distances_to`: O(n * depth) on a shift,
    O(|set| * n) from blocks of :meth:`FiniteSpace.distances` otherwise.
    """
    if a.size == 0 or b.size == 0:
        raise EmptySetError("hausdorff requires nonempty sets")
    far = 0.0
    for src, dst in ((a, b), (b, a)):
        outside = np.ones(space.n, dtype=np.intp)
        outside[dst] = 0
        far = max(far, float(space.distances_to(outside, src, 1).max()))
    return far
