"""Max-plus iterated function systems and their operators.

A system couples a finite space X with an index space J, one point map per
index (stored pre-snapped, as an index array over X), and one weight array
per index with values <= 0 normalized so that max_j q_j(x) = 0 at every x.

The operator exposed is ``transfer_density``, which acts on densities:

    (L lam)(x) = max over phi_j(y) = x of q_j(y) + lam(y).

It is also the operator on idempotent measures, which act through their
densities, and it is the max-plus adjoint of the operator on functions
(Lf)(x) = max_j q_j(x) + f(phi_j(x)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    NormalizationError,
    NotContractiveError,
)
from .maxplus import BOTTOM
from .measures import Density
from .spaces import FiniteSpace, Shift

NORMALIZATION_TOL = 1e-12
CONSTANT_WEIGHT_TOL = 1e-12


@dataclass
class MpIfs:
    """Validated max-plus IFS on a finite space.

    ``maps[j, y]`` is the index of phi_j(y); ``weights[j, y]`` is q_j(y).
    ``exact_maps`` records whether the point maps are exact on the space
    (shift prepends, explicit index maps) or were snapped from continuum
    images; snapped maps get a 2*resolution slack in the contraction check.
    """

    space: FiniteSpace
    index_space: FiniteSpace
    maps: np.ndarray
    weights: np.ndarray
    exact_maps: bool = False
    #: The report of the :func:`validate` call that validated the system.
    validation: Optional["ValidationReport"] = field(default=None, repr=False)

    def __post_init__(self):
        self.maps = np.asarray(self.maps, dtype=np.intp)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        m, n = self.index_space.n, self.space.n
        if self.maps.shape != (m, n):
            raise DimensionError("maps must have shape (|J|, |X|)")
        if self.weights.shape != (m, n):
            raise DimensionError("weights must have shape (|J|, |X|)")
        if self.maps.min(initial=0) < 0 or self.maps.max(initial=0) >= n:
            raise ConfigError("map targets out of range")
        if np.isnan(self.weights).any() or (self.weights == np.inf).any():
            raise ConfigError("weights must be <= 0 or -inf")

    @property
    def num_maps(self) -> int:
        return self.index_space.n

    @property
    def snap_slack(self) -> float:
        return 0.0 if self.exact_maps else self.space.resolution

    def is_constant_weight(self, tol: float = CONSTANT_WEIGHT_TOL) -> bool:
        """True when each q_j varies across X by at most ``tol`` (finite case)."""
        for j in range(self.num_maps):
            w = self.weights[j]
            finite = w > BOTTOM
            if not finite.all():
                if finite.any():
                    return False
                continue
            if w.max() - w.min() > tol:
                return False
        return True


@dataclass
class ValidationReport:
    valid: bool
    gamma_hat: float
    lip_c_hat: float
    normalization_drift: float
    renormalized: bool
    messages: list

    def to_jsonable(self) -> dict:
        return {
            "valid": self.valid,
            "gamma_hat": self.gamma_hat,
            "lip_c_hat": self.lip_c_hat,
            "normalization_drift": self.normalization_drift,
            "renormalized": self.renormalized,
            "messages": list(self.messages),
        }


def _contraction_constant(system: MpIfs) -> float:
    """Max over (j1,x1,j2,x2) of (d(img1, img2) - 2*slack) / (dJ + dX), floored at 0.

    On a shift the maximum is read from the cylinder blocks in
    O(m^2 * n * depth) (:func:`_shift_contraction_constant`).  Elsewhere it
    works one n x n block per map pair (j1, j2) with j2 >= j1, so memory is
    O(n^2), the size of the space's own ``dist``.  The pair (j2, j1) is
    skipped: its block is the transpose with the same quotients, because
    both distance tables are exactly symmetric (``check_metric`` enforces
    it, and the grid builder is symmetric by construction).  Only the
    diagonal blocks (dJ = 0) contain zero denominators.
    """
    if system.space.shift is not None:
        return _shift_contraction_constant(system, system.space.shift)
    dx = system.space.dist
    dj = system.index_space.dist
    img = system.maps  # (m, n)
    slack2 = 2.0 * system.snap_slack
    m, n = img.shape
    numer = np.empty((n, n))
    denom = np.empty((n, n))
    best = 0.0
    for j1 in range(m):
        rows = dx[img[j1]]
        for j2 in range(j1, m):
            np.take(rows, img[j2], axis=1, out=numer)
            np.subtract(numer, slack2, out=numer)
            np.add(dj[j1, j2], dx, out=denom)
            if dj[j1, j2] > 0:
                quot = np.divide(numer, denom, out=numer)
            else:
                mask = denom > 0
                quot = numer[mask] / denom[mask]
            if quot.size:
                best = max(best, float(quot.max()))
    return best


def _by_block(shift: Shift, ufunc, rows: np.ndarray):
    """``ufunc`` over every block of every level of each row, side by side,
    and the distance ``levels[p]`` of the level p of each block."""
    parts = list(shift.blockwise(ufunc, rows))
    dx = np.concatenate([np.full(r.shape[-1], shift.levels[p]) for p, r in parts])
    return np.concatenate([r for _, r in parts], axis=-1), dx


def _shift_contraction_constant(system: MpIfs, shift: Shift) -> float:
    """:func:`_contraction_constant` from the cylinder blocks of a shift.

    The quadruples (j1, x1, j2, x2) fall in three kinds:

    * j1 = j2, x1 != x2.  A block of level p stands for its pairs, at their
      largest distance levels[p], with the largest d(img, img) over them as
      numerator: the diameter of the image of the block, which in the word
      order is d(min index, max index).  Float -, + and / by a positive
      number are monotone, so a block's quotient is never above that of
      the pair attaining its numerator, and a pair at distance levels[p]
      sits in a block of level p with a numerator no smaller.
    * j1 != j2, x1 = x2 (dX = 0, and dJ > 0 since J is a metric space):
      taken point by point.
    * j1 != j2, x1 != x2 never exceeds the other two, so it is skipped: in
      the ultrametric, d(img1(x1), img2(x2)) is at most d(img1(x1),
      img1(x2)), whose quotient over dX is no smaller than over dJ + dX,
      or d(img1(x2), img2(x2)), whose quotient over dJ is no smaller
      either (both again by monotone rounding).

    The maximum is then the dense one, bit for bit, in O(m^2 * n * depth).
    """
    dj = system.index_space.dist
    img = system.maps
    slack2 = 2.0 * system.snap_slack
    lo, dx = _by_block(shift, np.minimum, img)
    hi, _ = _by_block(shift, np.maximum, img)
    best = max(0.0, float(((shift.distances(lo, hi) - slack2) / dx).max()))
    for j1 in range(img.shape[0]):
        for j2 in range(j1 + 1, img.shape[0]):
            same = shift.distances(img[j1], img[j2]) - slack2
            best = max(best, float((same / dj[j1, j2]).max()))
    return best


def _weight_lipschitz(system: MpIfs) -> float:
    """Max over maps j and points x1 != x2 with finite weights of
    |q_j(x1) - q_j(x2)| / d(x1, x2), floored at 0."""
    if system.space.shift is not None:
        return _shift_weight_lipschitz(system, system.space.shift)
    dx = system.space.dist
    best = 0.0
    for j in range(system.num_maps):
        w = system.weights[j]
        finite = w > BOTTOM
        if finite.sum() < 2:
            continue
        wf = w[finite]
        sub = dx[np.ix_(finite, finite)]
        diff = np.abs(wf[:, None] - wf[None, :])
        mask = sub > 0
        if mask.any():
            best = max(best, float(np.max(diff[mask] / sub[mask])))
    return best


def _shift_weight_lipschitz(system: MpIfs, shift: Shift) -> float:
    """:func:`_weight_lipschitz` from the cylinder blocks of a shift.

    A block of level p gives (max - min of its finite weights) / levels[p]:
    never above the quotient of its extreme pair, whose distance is at most
    levels[p], and never below that of any pair at exactly levels[p].
    """
    w = system.weights
    hi, dx = _by_block(shift, np.maximum, w)  # BOTTOM is -inf: only finite weights count
    lo, _ = _by_block(shift, np.minimum, np.where(w > BOTTOM, w, np.inf))
    return max(0.0, float(((hi - lo) / dx).max()))


def validate(system: MpIfs, normalization_tol: float = NORMALIZATION_TOL) -> ValidationReport:
    """Check normalization, contraction, and weight regularity.

    Sets ``validation`` (the returned report) on the system and silently
    re-normalizes the weights (subtracting the per-point max) when the
    drift is within ``normalization_tol``; larger drift raises
    :class:`NormalizationError`, and an estimated contraction constant
    >= 1 raises :class:`NotContractiveError`.
    """
    messages = []
    col_max = system.weights.max(axis=0)
    if (col_max == BOTTOM).any():
        raise NormalizationError("some point has all weights at -inf")
    drift = float(np.max(np.abs(col_max)))
    renormalized = False
    if drift > 0:
        if drift > normalization_tol:
            raise NormalizationError(
                f"weight normalization drift {drift} exceeds {normalization_tol}"
            )
        system.weights = system.weights - col_max[None, :]
        renormalized = True
        messages.append(f"weights re-normalized (drift {drift})")
    if (system.weights > 0).any():
        raise NormalizationError("weights must be <= 0 after normalization")

    gamma = _contraction_constant(system)
    if gamma >= 1.0:
        raise NotContractiveError(f"contraction estimate gamma_hat = {gamma} >= 1")
    lip = _weight_lipschitz(system)

    system.weights.flags.writeable = False
    system.validation = ValidationReport(
        valid=True,
        gamma_hat=gamma,
        lip_c_hat=lip,
        normalization_drift=drift,
        renormalized=renormalized,
        messages=messages,
    )
    return system.validation


def transfer_density(system: MpIfs, lam: Density) -> Density:
    """(L lam)(x) = max over pairs (j, y) with phi_j(y) = x of q_j(y) + lam(y).

    Points with empty preimage get BOTTOM.  A block is done on its (n, k)
    transpose with one flat ``np.maximum.at`` per map, so every value meets
    the pairs in the (j, y) order of one sequential pass, as ties of ±0 need.
    """
    if lam.space is not system.space and lam.space.n != system.space.n:
        raise DimensionError("density lives on a different space")
    vals = np.atleast_2d(lam.values).T
    out = np.full(vals.shape, BOTTOM)
    cols = np.arange(vals.shape[1])
    for phi, q in zip(system.maps, system.weights):
        hit = phi[:, None] * len(cols) + cols
        np.maximum.at(out.reshape(-1), hit.reshape(-1), (vals + q[:, None]).reshape(-1))
    return Density(system.space, np.ascontiguousarray(out.T).reshape(lam.values.shape))


def d_rho(a: Density, b: Density):
    """Sup distance on the exponential scale: max_x |e^a(x) - e^b(x)|.

    BOTTOM entries compare as 0, so the metric is finite on all densities.
    A float for two densities, an array of one per row for two blocks.
    """
    dev = np.max(np.abs(np.exp(a.values) - np.exp(b.values)), axis=-1)
    return dev if dev.ndim else float(dev)
