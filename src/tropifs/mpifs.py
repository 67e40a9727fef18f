"""Max-plus iterated function systems and their operators.

A system couples a finite space X with an index space J, one point map per
index (stored pre-snapped, as an index array over X), and one weight array
per index with values <= 0 normalized so that max_j q_j(x) = 0 at every x.

Two operators are exposed:

* ``dual_transfer``      acts on finite functions:  (Lf)(x)   = max_j q_j(x) + f(phi_j(x))
* ``transfer_density``   acts on densities:         (L lam)(x) = max over phi_j(y) = x of q_j(y) + lam(y)

``transfer_density`` is also the operator on idempotent measures, which act
through their densities.

The two L's are max-plus adjoint: mu_eval(L lam, f) == mu_eval(lam, Lf).
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
from .measures import Density, mu_eval, normalize
from .spaces import FiniteSpace, IndexSpace

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
    index_space: IndexSpace
    maps: np.ndarray
    weights: np.ndarray
    exact_maps: bool = False
    gamma_hat: Optional[float] = None
    lip_c_hat: Optional[float] = None
    validated: bool = field(default=False, repr=False)
    #: The report of the :func:`validate` call that validated the system.
    validation: Optional["ValidationReport"] = field(default=None, repr=False)

    def __post_init__(self):
        self.maps = np.asarray(self.maps, dtype=np.intp)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        m, n = self.index_space.m, self.space.n
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
        return self.index_space.m

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
    """Max over (j1,x1,j2,x2) of (d(img1, img2) - 2*slack) / (dJ + dX)."""
    dx = system.space.dist
    dj = system.index_space.dist
    img = system.maps  # (m, n)
    d_img = dx[img.reshape(-1)[:, None], img.reshape(-1)[None, :]]
    m, n = img.shape
    denom = (
        np.repeat(np.repeat(dj, n, axis=0), n, axis=1)
        + np.tile(dx, (m, m))
    )
    numer = d_img - 2.0 * system.snap_slack
    mask = denom > 0
    if not mask.any():
        return 0.0
    return float(max(np.max(numer[mask] / denom[mask]), 0.0))


def _weight_lipschitz(system: MpIfs) -> float:
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


def validate(system: MpIfs, normalization_tol: float = NORMALIZATION_TOL) -> ValidationReport:
    """Check normalization, contraction, and weight regularity.

    Fills ``gamma_hat``, ``lip_c_hat`` and ``validation`` (the returned
    report) on the system and silently re-normalizes the weights
    (subtracting the per-point max) when the drift is within
    ``normalization_tol``; larger drift raises
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

    system.gamma_hat = gamma
    system.lip_c_hat = lip
    system.validated = True
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


def dual_transfer(system: MpIfs, f) -> np.ndarray:
    """(Lf)(x) = max_j q_j(x) + f(phi_j(x)); finite whenever f is."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (system.space.n,):
        raise DimensionError("function length must match the space size")
    return np.max(system.weights + f[system.maps], axis=0)


def transfer_density(system: MpIfs, lam: Density) -> Density:
    """(L lam)(x) = max over pairs (j, y) with phi_j(y) = x of q_j(y) + lam(y).

    Points with empty preimage get BOTTOM.
    """
    if lam.space is not system.space and lam.space.n != system.space.n:
        raise DimensionError("density lives on a different space")
    vals = system.weights + lam.values[None, :]
    out = np.full(system.space.n, BOTTOM)
    np.maximum.at(out, system.maps.reshape(-1), vals.reshape(-1))
    return Density(system.space, out)


def check_duality(system: MpIfs, lam: Density, f) -> bool:
    """Exact equality of mu_eval(L lam, f) and mu_eval(lam, Lf)."""
    lhs = mu_eval(transfer_density(system, lam), f)
    rhs = mu_eval(lam, dual_transfer(system, f))
    return lhs == rhs


@dataclass
class IterationResult:
    density: Density
    iterations: int
    converged: bool


def d_rho(a: Density, b: Density) -> float:
    """Sup distance on the exponential scale: max_x |e^a(x) - e^b(x)|.

    BOTTOM entries compare as 0, so the metric is finite on all densities.
    """
    return float(np.max(np.abs(np.exp(a.values) - np.exp(b.values))))


def iterate_transfer(
    system: MpIfs,
    lam0: Density,
    max_iters: Optional[int] = None,
    tol: float = 1e-12,
) -> IterationResult:
    """Fixed-point search: apply the transfer operator and re-normalize.

    Stops when consecutive iterates are within ``tol`` in the exponential
    sup metric.  This is a search heuristic: the place-dependent operator
    need not be contractive, so non-convergence is a legitimate outcome
    reported through the ``converged`` flag.
    """
    if max_iters is None:
        max_iters = 10 * system.space.n
    cur = normalize(lam0)
    for k in range(1, max_iters + 1):
        nxt = normalize(transfer_density(system, cur))
        if d_rho(cur, nxt) <= tol:
            return IterationResult(nxt, k, True)
        cur = nxt
    return IterationResult(cur, max_iters, False)
