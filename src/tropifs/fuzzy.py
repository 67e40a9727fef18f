"""Fuzzy IFS layer conjugate to the max-plus one.

The scale map t -> e^t carries a probability density to a normal fuzzy set
and intertwines the density transfer operator with the fuzzy
Hutchinson-Barnsley operator

    (Z u)(x) = max over phi_j(y) = x of  e^(q_j(y)) * u(y),

whose grey-level maps are t -> e^(q) * t.  Distances between fuzzy sets
are measured by the supremum over thresholds of the Hausdorff distance
between level cuts; on a finite space that supremum is attained on the
finitely many attained membership values, so it is computed exactly.

The supremum comes from one sweep down the levels rather than one
Hausdorff distance per level: the cuts only grow as the level falls, so
each point needs its distance to the other set's cut only at the level
where the point itself joins its cut.  Every cut {v >= c} is the set
{-v < k} for k the float after -c, and the space gives the distance from
each point to such a set (:meth:`FiniteSpace.distances_to`): O(n * depth)
per call on a shift space, O(n^2) on other spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigError, InternalError, NonConvergenceError
from .maxplus import BOTTOM
from .measures import Density
from .mpifs import MpIfs
from .spaces import FiniteSpace, hausdorff

#: A step of at most this d_infty ends ``fhb_attractor`` at a fixed point.
FHB_TOL = 1e-12


def _check_membership(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if np.isnan(v).any() or (v < 0).any() or (v > 1).any():
        raise ConfigError("memberships must lie in [0, 1]")
    return v


@dataclass
class FuzzySet:
    """Membership function over a finite space."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_membership(self.values)
        if self.values.shape != (self.space.n,):
            raise ConfigError("membership length must match the space size")
        self.values.flags.writeable = False

    @property
    def is_normal(self) -> bool:
        return self.values.max() == 1.0


def theta_conjugate(lam: Density) -> FuzzySet:
    """Exponential image of a probability density; BOTTOM becomes 0."""
    if lam.values.max() != 0.0:
        raise ConfigError("density must be normalized (max exactly 0)")
    return FuzzySet(lam.space, np.exp(lam.values))


def alpha_cut(u: FuzzySet, alpha: float) -> np.ndarray:
    """Increasing indices of {u >= alpha}; at alpha = 0 of the support {u > 0}."""
    if np.isnan(alpha) or alpha < 0 or alpha > 1:
        raise ConfigError("alpha must lie in [0, 1]")
    if alpha == 0:
        return np.flatnonzero(u.values > 0)
    return np.flatnonzero(u.values >= alpha)


def _cut_distance(space: FiniteSpace, a: np.ndarray, b: np.ndarray) -> float:
    if not a.size and not b.size:
        return 0.0
    if not a.size or not b.size:
        return space.diameter
    return hausdorff(space, a, b)


def _sup_cut_distance(space: FiniteSpace, a: np.ndarray, b: np.ndarray):
    """sup over levels t of the cut distance between {a >= t} and {b >= t}.

    Points at BOTTOM lie in no cut; the levels are the finite values of
    ``a`` and ``b``.  Returns the supremum and a level attaining it (None
    when no value is finite).

    As t falls the cuts only grow, so the distance from a fixed point of
    one cut to the other cut only shrinks: each point counts at the level
    where it joins its cut and nowhere below.  The supremum is then the
    largest of these per-point distances in both directions, an empty
    opposite cut counting the diameter.  Only min and max of distances
    are taken, so the value is exactly the per-level Hausdorff supremum.
    Cost O(n * depth) per call on a shift, O(n^2) otherwise.
    """
    best, level = 0.0, None
    for src, dst in ((a, b), (b, a)):
        xs = np.flatnonzero(src > BOTTOM)
        # the cut {dst >= src(x)} is {-dst < the float after -src(x)}: negation is exact
        near = space.distances_to(-dst, xs, np.nextafter(-src[xs], np.inf))
        if xs.size:
            i = int(np.argmax(near))
            d = space.diameter if near[i] == np.inf else float(near[i])
            if level is None or d > best:
                best, level = d, float(src[xs[i]])
    return best, level


def d_infty(u: FuzzySet, v: FuzzySet) -> float:
    """sup over alpha in [0,1] of the Hausdorff distance between alpha-cuts.

    The cuts are piecewise constant in alpha, changing only at attained
    membership values, so the supremum over the attained values plus 0 is
    exact; the cut at 0 (the support) equals the cut at the least positive
    attained value, so only positive levels are swept.  An empty cut
    against a nonempty one counts the full diameter.  The Hausdorff
    distance at the attaining level is recomputed from the alpha-cuts as a
    cross-check.
    """
    if u.space is not v.space and u.space.n != v.space.n:
        raise ConfigError("fuzzy sets live on different spaces")
    a = np.where(u.values > 0, u.values, BOTTOM)
    b = np.where(v.values > 0, v.values, BOTTOM)
    best, level = _sup_cut_distance(u.space, a, b)
    t = 0.0 if level is None else level
    check = _cut_distance(u.space, alpha_cut(u, t), alpha_cut(v, t))
    if check != best:
        raise InternalError(f"level sweep gives {best}, alpha-cuts at {t} give {check}")
    return check


def d_theta(lam: Density, eta: Density) -> float:
    """Distance between probabilities: sup over levels of Hausdorff distance
    between the super-level sets {x : density(x) >= beta}.

    Equals ``d_infty`` of the exponential images; computed directly on the
    densities over the finitely many attained finite values.
    """
    if lam.values.max() != 0.0 or eta.values.max() != 0.0:
        raise ConfigError("d_theta is defined between probability densities")
    if lam.space is not eta.space and lam.space.n != eta.space.n:
        raise ConfigError("densities live on different spaces")
    return _sup_cut_distance(lam.space, lam.values, eta.values)[0]


def fhb_apply(system: MpIfs, u: FuzzySet) -> FuzzySet:
    """One step of the fuzzy Hutchinson-Barnsley operator.

    (Z u)(x) = max over pairs (j, y) with phi_j(y) = x of e^(q_j(y)) u(y),
    and 0 where the preimage is empty.
    """
    grey = np.exp(system.weights) * u.values[None, :]
    out = np.zeros(system.space.n)
    np.maximum.at(out, system.maps.reshape(-1), grey.reshape(-1))
    return FuzzySet(system.space, out)


@dataclass
class FhbResult:
    attractor: FuzzySet
    iterations: int
    trace: List[float]


def fhb_attractor(
    system: MpIfs,
    u0: FuzzySet,
    tol: float = FHB_TOL,
    max_iters: Optional[int] = None,
) -> FhbResult:
    """Iterate the FHB operator until a step moves at most ``tol`` in d_infty.

    Exhausting the budget raises :class:`NonConvergenceError` carrying the
    trace so far and the last iterate; an input that is already fixed
    returns with zero iterations and an empty trace.

    Nothing guarantees convergence.  Constant weights make the operator a
    Banach contraction in d_infty only when the maps contract, and maps
    snapped to a grid do so only down to the snap slack, below which the
    points off the zero-cost cycles decay by e^q per step until they
    underflow: ``grid_random`` with n = 148, seed 8 and constant weights
    ends its 1,480 steps with d_infty stuck at 0.0136.  ROADMAP.md item 3
    reads the attractor off the Aubry set instead.
    """
    if not u0.is_normal:
        raise ConfigError("starting fuzzy set must be normal")
    if max_iters is None:
        max_iters = max(100, 10 * system.space.n)
    cur = u0
    trace: List[float] = []
    for k in range(1, max_iters + 1):
        nxt = fhb_apply(system, cur)
        d = d_infty(cur, nxt)
        if d == 0.0 and k == 1:
            return FhbResult(nxt, 0, [])
        trace.append(d)
        if d <= tol:
            return FhbResult(nxt, k, trace)
        cur = nxt
    err = NonConvergenceError(f"no fixed point within {max_iters} iterations")
    err.trace = trace
    err.last = cur
    raise err
