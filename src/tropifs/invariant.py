"""Construction and verification of invariant densities.

Every invariant density of a place-dependent system is pinned down by its
restriction to the Aubry set: given boundary levels lam1 on Aubry points
(at least one of them exactly 0), the density

    lam(x) = max over Aubry z of  S[x, z] + lam1(z)

is an exact fixed point of the transfer operator, and conversely every
invariant density arises this way.  For place-independent weights the
construction collapses to a single density, the column of S at any Aubry
point, which also equals the supremum of accumulated weight over coding
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InternalError,
    NonUniqueDensityError,
    NotConstantWeightError,
)
from .maxplus import BOTTOM
from .measures import Density
from .mpifs import MpIfs, d_rho, transfer_density
from .mane import PotentialMatrix
from .spaces import row_chunks

AUBRY_COLUMN_TOL = 1e-9
SERIES_TOL = 1e-9
#: Largest exp-scale deviation at which a density passes as a fixed point.
VERIFY_TOL = 1e-9
#: Most boundary assignments ``enumerate_invariants`` will build; the count
#: is levels^(|Aubry| - 1), which the config can make astronomically large.
MAX_ASSIGNMENTS = 100_000
#: Most values (assignments x points) ``enumerate_invariants`` will build:
#: the densities it keeps, and a key for each, can grow to that many.
#: 2^24 values take 128 MiB.
MAX_ENUMERATE_VALUES = 2**24


@dataclass
class BoundaryData:
    """Levels assigned to Aubry points; omitted points count as BOTTOM.

    A level is a float, or an array of k levels for a block of k densities.
    ``anchor`` must carry the level 0 exactly, which forces each built
    density to be a probability.
    """

    values: Dict[int, float]
    anchor: int

    def __post_init__(self):
        if self.anchor not in self.values:
            raise ConfigError("anchor must appear in the boundary mapping")
        if np.any(self.values[self.anchor] != 0.0):
            raise ConfigError("anchor level must be exactly 0")
        for z, v in self.values.items():
            if np.any(np.isnan(v) | (np.asarray(v) > 0)):
                raise ConfigError(f"boundary level at {z} must lie in [-inf, 0]")


def build_invariant(pot: PotentialMatrix, boundary: BoundaryData) -> Density:
    """Density lam(x) = max over boundary points z of S[x, z] + level(z).

    Array levels give a block, one density per row.  The anchor forces
    lam(anchor) >= S[anchor, anchor] = 0 while every term is <= 0, so each
    is a probability (a drift up to the Aubry tolerance is shifted away).
    """
    extra = set(boundary.values) - set(pot.aubry)
    if extra:
        raise ConfigError(f"boundary points {sorted(extra)} are not Aubry points")
    shape = np.broadcast_shapes(*map(np.shape, boundary.values.values()))
    lam = np.full(shape + (pot.space.n,), BOTTOM)
    with np.errstate(over="ignore"):  # a sum below the float range is BOTTOM
        for z, level in boundary.values.items():
            np.maximum(lam, pot.column(z) + np.asarray(level)[..., None], out=lam)
    top = lam.max(axis=-1, keepdims=True)
    for peak in top[np.abs(top) > pot.tol_aubry][:1]:
        raise InternalError(f"built density peaks at {peak}, not 0")
    lam -= np.where(top != 0.0, top, 0.0)  # - 0.0 keeps every bit, -0.0 included
    return Density(pot.space, lam)


@dataclass
class VerifyReport:
    passed: bool
    max_deviation: float


def verify_invariant(system: MpIfs, lam: Density, tol: float = VERIFY_TOL) -> VerifyReport:
    """Apply the transfer operator once and report the exp-scale deviation(s).

    A block is folded in the chunks of :func:`~tropifs.spaces.row_chunks`,
    each row on its own, so its deviations do not depend on the chunking.
    """
    vals = np.atleast_2d(lam.values)
    dev = np.empty(len(vals))
    for s in row_chunks(len(vals), lam.space.n):
        chunk = Density(lam.space, vals[s])
        dev[s] = d_rho(transfer_density(system, chunk), chunk)
    if lam.values.ndim == 1:
        dev = float(dev[0])
    return VerifyReport(passed=dev <= tol, max_deviation=dev)


def enumerate_invariants(pot: PotentialMatrix, levels: Sequence[float]) -> np.ndarray:
    """Sweep boundary levels over the non-anchor Aubry points.

    The lowest Aubry index is anchored at 0; every assignment of ``levels``
    to the remaining Aubry points is built, in ``itertools.product`` order
    and in the chunks of :func:`~tropifs.spaces.row_chunks`, and the distinct
    results come back as the rows of one (k, n) array, in first-seen order
    (verifying them is :func:`verify_invariant`'s job).  This generates
    (not enumerates) the continuum of invariant densities the boundary
    freedom allows.  More than :data:`MAX_ASSIGNMENTS` assignments, more
    than :data:`MAX_ENUMERATE_VALUES` values in their densities, or no
    assignment, raise :class:`ConfigError` before any is built.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if (np.isnan(levels) | (levels > 0)).any():
        raise ConfigError("levels must lie in [-inf, 0]")
    anchor = pot.aubry[0]
    others = list(pot.aubry[1:])
    total = len(levels) ** len(others)
    if total > MAX_ASSIGNMENTS:
        raise ConfigError(
            f"enumerate would build {len(levels)}^{len(others)} boundary assignments "
            f"({len(levels)} levels, {len(pot.aubry)} Aubry points), "
            f"more than the limit of {MAX_ASSIGNMENTS}"
        )
    if total * pot.space.n > MAX_ENUMERATE_VALUES:
        raise ConfigError(
            f"enumerate would build {total} boundary assignments of {pot.space.n} points, "
            f"{total * pot.space.n} values, more than the limit of {MAX_ENUMERATE_VALUES}"
        )
    if total == 0:
        raise ConfigError(f"levels is empty, but the {len(pot.aubry)} Aubry points need levels")

    # Keyed by bytes, keeping first-seen order; adding 0.0 folds -0.0 into
    # 0.0, so two densities share a key exactly when np.array_equal holds.
    seen = {}  # key -> number of the first assignment that built it
    blocks = []
    for s in row_chunks(total, pot.space.n):
        rows = np.arange(s.start, s.stop)
        vals = {anchor: np.zeros(len(rows))}
        for i, z in enumerate(others):  # the digits of each row number, most significant first
            vals[z] = levels[rows // len(levels) ** (len(others) - 1 - i) % len(levels)]
        lam = build_invariant(pot, BoundaryData(values=vals, anchor=anchor))
        keys = map(np.ndarray.tobytes, lam.values + 0.0)
        blocks.append(lam.values[[i for i, (key, row) in enumerate(zip(keys, rows.tolist()))
                                  if seen.setdefault(key, row) == row]])
    return np.concatenate(blocks)


MAX_CODING_DEPTH = 64
MAX_COMPOSITE_SET = 4096


def coding_map(system: MpIfs) -> Optional[int]:
    """Collapse depth of a constant-weight system with exact maps.

    The least k <= :data:`MAX_CODING_DEPTH` at which every composite of k
    maps is constant, so that a word of length k codes one point whatever
    it starts from.  A composite phi_w is constant exactly when its image
    phi_w(X) is one point, and phi_{j w}(X) = phi_j(phi_w(X)), so the
    distinct image sets are tracked level by level instead of the
    composites (on a shift they hold n points per level in all).  ``None``
    for snapped maps, whose composites may keep oscillating, and when the
    depth or :data:`MAX_COMPOSITE_SET` distinct image sets are exceeded.
    """
    if not system.is_constant_weight():
        raise NotConstantWeightError("coding map requires place-independent weights")
    if system.validation is None:
        raise ConfigError("system must be validated first")
    if not system.exact_maps:
        return None
    images = [np.arange(system.space.n)]
    for k in range(1, MAX_CODING_DEPTH + 1):
        nxt = {}
        for image in images:
            for j in range(system.num_maps):
                cand = np.unique(system.maps[j][image])
                nxt[cand.tobytes()] = cand
        images = list(nxt.values())
        if all(len(image) == 1 for image in images):
            return k
        if len(images) > MAX_COMPOSITE_SET:
            return None
    return None


def constant_weight_density(system: MpIfs, pot: PotentialMatrix) -> Density:
    """The unique invariant density of a constant-weight system.

    Returns the boundary density of the Aubry anchor (the lowest Aubry
    index) at level 0, built by :func:`build_invariant`, after asserting
    that every Aubry column of S lies within :data:`AUBRY_COLUMN_TOL` of
    the anchor's, one ``np.allclose`` per column (BOTTOM matches only
    BOTTOM).  With exact maps and every Aubry return weight S[z, z] at 0
    they must, by the structure of constant weights, so a disagreement is a
    bug; a ``tol_aubry`` that admits lower return weights, or snapped maps
    splitting the zero-cost dynamics into several closed classes (each
    with its own density), make it a :class:`NonUniqueDensityError`.  The
    result is cross-checked against the coding series, the best
    accumulated weight over words starting at the Aubry anchor: one
    transfer step stays below the density (so the series does at every
    depth), and for exact maps the series at the collapse depth matches
    it wherever the series is finite.
    """
    if not system.is_constant_weight():
        raise NotConstantWeightError("unique-density construction needs constant weights")
    depth = coding_map(system)
    anchor = pot.aubry[0]
    for z in pot.aubry[1:]:
        # every entry is <= 0, so the differences cannot overflow
        if not np.allclose(pot.column(z), pot.column(anchor), rtol=0.0, atol=AUBRY_COLUMN_TOL):
            low = min(pot.column(y)[y] for y in pot.aubry)
            if low < 0.0:
                why = f"tol_aubry {pot.tol_aubry} admits Aubry return weights S[z, z] down to {low}"
            elif not system.exact_maps:
                why = "the snapped maps split the zero-cost dynamics into several closed classes"
            else:
                raise InternalError("Aubry columns of S disagree for constant weights")
            raise NonUniqueDensityError(
                f"{why}: Aubry points {anchor} and {z} have different columns "
                f"of S, so there is no unique invariant density; use the invariant "
                f"command with mode 'enumerate' or 'boundary'"
            )
    lam = build_invariant(pot, BoundaryData({anchor: 0.0}, anchor))

    if np.any(transfer_density(system, lam).values > lam.values + SERIES_TOL):
        raise InternalError("one transfer step exceeds the S-column density")
    if depth is not None:
        series = np.full(system.space.n, BOTTOM)
        series[anchor] = 0.0
        for _ in range(depth):
            series = transfer_density(system, Density(system.space, series)).values
        finite = series > BOTTOM
        gap = np.max(np.abs(series[finite] - lam.values[finite]))
        if gap > SERIES_TOL:
            raise InternalError(f"coding series misses the density by {gap}")
    return lam
