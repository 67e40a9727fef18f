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

import itertools
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
from .measures import Density, normalize
from .mpifs import MpIfs, d_rho, transfer_density
from .mane import PotentialMatrix

AUBRY_COLUMN_TOL = 1e-9
SERIES_TOL = 1e-9
#: Most boundary assignments ``enumerate_invariants`` will build; the count
#: is levels^(|Aubry| - 1), which the config can make astronomically large.
MAX_ASSIGNMENTS = 100_000


@dataclass
class BoundaryData:
    """Levels assigned to Aubry points; omitted points count as BOTTOM.

    ``anchor`` must carry the level 0 exactly, which forces the built
    density to be a probability.
    """

    values: Dict[int, float]
    anchor: int

    def __post_init__(self):
        if self.anchor not in self.values:
            raise ConfigError("anchor must appear in the boundary mapping")
        if self.values[self.anchor] != 0.0:
            raise ConfigError("anchor level must be exactly 0")
        for z, v in self.values.items():
            if np.isnan(v) or v > 0 or v == np.inf:
                raise ConfigError(f"boundary level at {z} must lie in [-inf, 0]")


def build_invariant(pot: PotentialMatrix, boundary: BoundaryData) -> Density:
    """Density lam(x) = max over boundary points z of S[x, z] + level(z).

    The anchor forces lam(anchor) >= S[anchor, anchor] = 0 while every term
    is <= 0, so the result is a probability (a drift up to the Aubry
    diagonal tolerance is shifted away; more than that is a bug).
    """
    extra = set(boundary.values) - set(pot.aubry)
    if extra:
        raise ConfigError(f"boundary points {sorted(extra)} are not Aubry points")
    lam = np.full(pot.space.n, BOTTOM)
    for z, level in boundary.values.items():
        np.maximum(lam, pot.column(z) + level, out=lam)
    top = lam.max()
    if top != 0.0:
        if abs(top) > pot.tol_aubry:
            raise InternalError(f"built density peaks at {top}, not 0")
        lam = lam - top
    return Density(pot.space, lam)


@dataclass
class VerifyReport:
    passed: bool
    max_deviation: float
    tol: float

    def to_jsonable(self) -> dict:
        return {"passed": self.passed, "max_deviation": self.max_deviation, "tol": self.tol}


def verify_invariant(system: MpIfs, lam: Density, tol: float = 1e-12) -> VerifyReport:
    """Apply the transfer operator once and report the exp-scale deviation."""
    dev = d_rho(transfer_density(system, lam), lam)
    return VerifyReport(passed=dev <= tol, max_deviation=dev, tol=tol)


def enumerate_invariants(
    system: MpIfs,
    pot: PotentialMatrix,
    levels: Sequence[float],
    verify_tol: float = 1e-9,
) -> list:
    """Sweep boundary levels over the non-anchor Aubry points.

    The lowest Aubry index is anchored at 0; every assignment of ``levels``
    to the remaining Aubry points is built, and each distinct result is
    verified once as a fixed point (a deviation above ``verify_tol`` is
    an :class:`InternalError`).  Returns ``(density, max_deviation)``
    pairs in first-seen order.  This generates (not enumerates) the
    continuum of invariant densities the boundary freedom allows.  More
    than :data:`MAX_ASSIGNMENTS` assignments raise :class:`ConfigError`
    before any is built.
    """
    for lv in levels:
        if np.isnan(lv) or lv > 0:
            raise ConfigError("levels must lie in [-inf, 0]")
    anchor = pot.aubry[0]
    others = list(pot.aubry[1:])
    if len(levels) ** len(others) > MAX_ASSIGNMENTS:
        raise ConfigError(
            f"enumerate would build {len(levels)}^{len(others)} boundary assignments "
            f"({len(levels)} levels, {len(pot.aubry)} Aubry points), "
            f"more than the limit of {MAX_ASSIGNMENTS}"
        )

    # Keyed by bytes, keeping first-seen order; adding 0.0 folds -0.0 into
    # 0.0, so two densities share a key exactly when np.array_equal holds,
    # and then their deviations (on the exp scale, where -0.0 and 0.0 are
    # both 1) are equal too, so verifying the first one verifies both.
    distinct = {}
    for assignment in itertools.product(levels, repeat=len(others)):
        vals = {anchor: 0.0}
        vals.update(dict(zip(others, assignment)))
        lam = build_invariant(pot, BoundaryData(values=vals, anchor=anchor))
        key = (lam.values + 0.0).tobytes()
        if key in distinct:
            continue
        rep = verify_invariant(system, lam, tol=verify_tol)
        if not rep.passed:
            raise InternalError(
                f"built density failed verification (deviation {rep.max_deviation})"
            )
        distinct[key] = (lam, rep.max_deviation)
    return list(distinct.values())


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

    Returns the S column at an Aubry point after asserting all Aubry
    columns coincide.  For exact maps they must, by the structure of
    constant weights, so a disagreement is a bug; snapped maps can split
    the zero-cost dynamics into several closed classes, each with its own
    invariant density, which is :class:`NonUniqueDensityError`.  The
    result is cross-checked against the coding series, the best
    accumulated weight over words starting at the Aubry anchor: one
    transfer step stays below the density (so the series does at every
    depth), and for exact maps the series at the collapse depth matches
    it wherever the series is finite.
    """
    if not system.is_constant_weight():
        raise NotConstantWeightError("unique-density construction needs constant weights")
    depth = coding_map(system)
    finite_ref = pot.column(pot.aubry[0])
    for z in pot.aubry[1:]:
        a, b = finite_ref, pot.column(z)
        both = (a > BOTTOM) & (b > BOTTOM)
        if ((a > BOTTOM) != (b > BOTTOM)).any() or (
            both.any() and np.max(np.abs(a[both] - b[both])) > AUBRY_COLUMN_TOL
        ):
            if system.exact_maps:
                raise InternalError("Aubry columns of S disagree for constant weights")
            raise NonUniqueDensityError(
                f"the snapped maps split the zero-cost dynamics into several closed "
                f"classes: Aubry points {pot.aubry[0]} and {z} have different columns "
                f"of S, so there is no unique invariant density; use the invariant "
                f"command with mode 'enumerate' or 'boundary'"
            )
    lam = normalize(Density(pot.space, finite_ref.copy()))

    if np.any(transfer_density(system, lam).values > lam.values + SERIES_TOL):
        raise InternalError("one transfer step exceeds the S-column density")
    if depth is not None:
        series = np.full(system.space.n, BOTTOM)
        series[pot.aubry[0]] = 0.0
        for _ in range(depth):
            series = transfer_density(system, Density(system.space, series)).values
        finite = series > BOTTOM
        gap = np.max(np.abs(series[finite] - lam.values[finite]))
        if gap > SERIES_TOL:
            raise InternalError(f"coding series misses the density by {gap}")
    return lam
