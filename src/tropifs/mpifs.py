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

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    NormalizationError,
    NotContractiveError,
)
from .maxplus import BOTTOM, _check_entries
from .measures import Density
from .spaces import FiniteSpace, Grid, Shift, row_chunks

NORMALIZATION_TOL = 1e-12
CONSTANT_WEIGHT_TOL = 1e-12
#: Relative width of the window of near-ties that the grid search
#: evaluates exactly (see :func:`_grid_quotient_max`).
NEAR_TIE = 1e-9
#: Pairs per point the grid search may evaluate before it falls back to
#: the row blocks.
PAIR_BUDGET = 64
_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1000  # well inside the normal floats


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
        _check_entries(self.weights)

    @property
    def num_maps(self) -> int:
        return self.index_space.n

    @property
    def snap_slack(self) -> float:
        return 0.0 if self.exact_maps else self.space.resolution

    def is_constant_weight(self) -> bool:
        """True when each q_j varies across X by at most CONSTANT_WEIGHT_TOL (finite case)."""
        for j in range(self.num_maps):
            w = self.weights[j]
            finite = w > BOTTOM
            if not finite.all():
                if finite.any():
                    return False
                continue
            if w.max() - w.min() > CONSTANT_WEIGHT_TOL:
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
        return asdict(self)


def _estimates(system: MpIfs) -> tuple:
    """(gamma_hat, lip_c_hat), the two estimates :func:`validate` checks.

    gamma_hat is the max over (j1,x1,j2,x2) of (d(img1, img2) - 2*slack) /
    (dJ + dX), and lip_c_hat the max over maps j and points x1 != x2 with
    finite weights of |q_j(x1) - q_j(x2)| / d(x1, x2), both floored at 0.

    On a shift both are read from the cylinder blocks in O(m^2 * n * depth)
    (:func:`_shift_estimates`), and on a grid located and verified from the
    coordinates in about O(m^2 * n log n) by one quotient search
    (:func:`_grid_estimates`), which leaves an estimate to the row blocks of
    :func:`_block_estimates` on rare inputs.  The row blocks compute only
    what the grid left undecided.  An explicit table always takes them.
    lip_c_hat is None where the grid search found gamma_hat >= 1 and only
    the row blocks, O(m * n^2), could give it: :func:`validate` refuses
    such a system on gamma_hat alone.
    """
    space = system.space
    if isinstance(space, Shift):
        return _shift_estimates(system, space)
    gamma = lip = None
    if isinstance(space, Grid):
        gamma, lip = _grid_estimates(system, space.xs)
    if gamma is None or (lip is None and gamma < 1.0):
        gamma, lip = _block_estimates(system, gamma, lip)
    return gamma, lip


def _block_estimates(system: MpIfs, gamma: Optional[float], lip: Optional[float]) -> tuple:
    """:func:`_estimates` over every quadruple and pair for each estimate
    given as None, one block of rows of x1 at a time, so memory is O(n)
    beyond the space itself; an estimate given is returned as it is.

    Each block reads its distances dX once, from
    :meth:`FiniteSpace.distances`, which equal the table's, for both
    estimates.  For gamma_hat only the map pairs j2 >= j1 are taken: the
    block of (j2, j1) holds the same quotients transposed, because both
    distance tables are exactly symmetric (``check_metric`` enforces it,
    and the builders' metrics are symmetric by construction).  Only the
    diagonal blocks (dJ = 0) contain zero denominators.  For lip_c_hat
    each map's quotients are those of the pairs with finite weights and
    dX > 0.  O(m^2 * n^2) time.
    """
    space, img = system.space, system.maps
    dj = system.index_space.dist
    slack2 = 2.0 * system.snap_slack
    finite = system.weights > BOTTOM
    weights = np.where(finite, system.weights, 0.0)  # no -inf - -inf below
    m, n = img.shape
    best_gamma = best_lip = 0.0
    points = np.arange(n)
    for s in row_chunks(n, n):
        r = points[s, None]
        dx = space.distances(r, points)
        if gamma is None:
            for j1, j2 in zip(*np.triu_indices(m)):
                numer = space.distances(img[j1][r], img[j2]) - slack2
                denom = dj[j1, j2] + dx
                if dj[j1, j2] > 0:
                    quot = numer / denom
                else:
                    mask = denom > 0
                    quot = numer[mask] / denom[mask]
                if quot.size:
                    best_gamma = max(best_gamma, float(quot.max()))
        if lip is None:
            apart = dx > 0
            for fin, w in zip(finite, weights):
                mask = apart & fin[s, None] & fin
                if mask.any():
                    diff = np.abs(w[s, None] - w)
                    best_lip = max(best_lip, float(np.max(diff[mask] / dx[mask])))
    return (best_gamma if gamma is None else gamma, best_lip if lip is None else lip)


def _grid_estimates(system: MpIfs, xs: np.ndarray) -> tuple:
    """:func:`_estimates` on a grid from its sorted coordinates ``xs``, bit
    for bit, with None for each estimate the row blocks must decide.

    gamma_hat is one :func:`_grid_quotient_max` over the coordinates
    ys = xs[maps] of the images, with a case per map pair (ja, jb) taken in
    both orders, the index distance dJ of the pair and the snap slack.

    lip_c_hat takes one :func:`_grid_quotient_max` per map over its finite
    weights, as a single case with ys = the weights, dJ = 0 and no slack.
    Its quotients are the dense ones, since fl(a - 0) = a and fl(0 + d) = d.
    The search starts at the steepest slope between neighbouring finite
    points, the quotient of a pair and, for a Lipschitz bound, usually
    the answer.
    """
    j1, j2 = np.triu_indices(system.num_maps)
    off = j1 < j2
    ja, jb = np.concatenate([j1, j2[off]]), np.concatenate([j2, j1[off]])
    gamma = _grid_quotient_max(xs, xs[system.maps], ja, jb, system.index_space.dist[ja, jb],
                               2.0 * system.snap_slack)
    lip, case = 0.0, np.zeros(1, dtype=np.intp)
    for w in system.weights:
        finite = np.flatnonzero(w > BOTTOM)
        if finite.size < 2:
            continue
        x, y = xs[finite], w[finite]
        slope = float((np.abs(np.diff(y)) / np.diff(x)).max())
        if slope == np.inf:  # a quotient overflowed, and so does the maximum
            return gamma, slope
        found = _grid_quotient_max(x, y[None], case, case, np.zeros(1), 0.0, slope)
        if found is None:
            return gamma, None
        lip = max(lip, found)
    return gamma, lip


def _grid_quotient_max(xs: np.ndarray, ys: np.ndarray, ja: np.ndarray, jb: np.ndarray,
                       dj: np.ndarray, slack2: float, low: float = 0.0) -> Optional[float]:
    """The largest of 0 and the float quotients

        (|ys[ja, i] - ys[jb, k]| - slack2) / (dj + |xs[i] - xs[k]|)

    of every case (ja, jb, dj) over the index pairs i <= k (i < k when
    dj = 0, whose i = k has no quotient), or None when the row blocks must
    decide.  ``xs`` is sorted and distinct, and ``ys`` has finite rows.

    Each case is split by the sign s = +-1 of

        (s * (ys[ja, i] - ys[jb, k]) - slack2) / (dj + x_k - x_i),

    and |ys[ja, i] - ys[jb, k]| is the larger of the two signs.

    * **Locate.** Dinkelbach's method (Management Sci. 13, 1967) raises a
      shared bound: for the bound L it finds, in every case at once, the
      pair maximizing numerator - L * denominator from prefix maxima of
      s * ys[ja, i] + L * x_i, and L becomes the largest float quotient of
      those pairs, until it stops growing.  L starts at ``low``, which is
      0 or the float quotient of a pair, and is always the quotient of a
      pair, so it is at most the maximum.  A first round at L = 0 finds
      the largest float numerator of every case exactly (float addition
      is monotone), so if none of its pairs has a positive numerator, no
      pair has a positive quotient.  A positive numerator whose quotient
      underflowed to 0 leaves the row blocks to decide.
    * **Verify.** Every pair whose float quotient is >= L is listed, with
      a few near-ties more, and the maximum is read off them.  With
      u = 2^-53 and L >= 2^-1000 (so the quotients that count are normal
      floats), such a pair has (a - slack2) / (dj + e) >= L * (1 - 3u)
      >= C = L * (1 - NEAR_TIE), where a and e are the float differences.
      Float subtraction has relative error u even below the normal range,
      so a and e differ from the exact |ys[ja, i] - ys[jb, k]| and
      |x_k - x_i| by at most 2u * Y and 2u * X, Y bounding |ys| and X
      bounding |xs|.  In exact arithmetic the pair then has, in the case
      of its sign,

          A_i + B_k >= slack2 + C * dj - 2u * (Y + C * X),
          A_i = s * ys[ja, i] + C * x_i,   B_k = -s * ys[jb, k] - C * x_k.

      Each term is at most R = 2 * (Y + C * X) + slack2 + C * dj in size,
      so computing both sides in floats errs by less than 8u * R, plus a
      few products' absolute underflow below 2^-1074, and the test is run
      with a margin of 64u * R >= 2^-1000.  It is separable, so
      :func:`_pairs_above` lists its pairs in O(n + hits * log n) per case.

    Falls back (None) when a locate round's sums could overflow (2 * (Y +
    L * X) does), when L is outside the normal range, when 64u * R is
    below 2^-1000 or R overflows, or when the cases list more than
    ``PAIR_BUDGET`` * n pairs.
    """
    n = xs.size
    ja, jb, dj = np.tile(ja, 2), np.tile(jb, 2), np.tile(dj, 2)
    sign = np.repeat([1.0, -1.0], ja.size // 2)
    groups = [np.arange(s.start, s.stop) for s in row_chunks(ja.size, n)]

    def sums(c, bound):
        """The separable halves s * ys[ja, i] + bound * x_i and
        -s * ys[jb, k] - bound * x_k of the cases ``c``, one row each."""
        lead = sign[c, None] * ys[ja[c]] + bound * xs
        return lead, -sign[c, None] * ys[jb[c]] - bound * xs

    def quotients(c, i, k):
        """The float numerators and quotients of the pairs (i, k) of the cases ``c``."""
        numer = np.abs(ys[ja[c], i] - ys[jb[c], k]) - slack2
        return numer, numer / (dj[c] + np.abs(xs[i] - xs[k]))

    ybound, xbound = float(np.abs(ys).max()), max(abs(float(xs[0])), abs(float(xs[-1])))
    top = 0.0
    for _ in range(16):
        if not 2.0 * (ybound + low * xbound) < np.inf:  # a sum of this round could overflow
            return None
        found = low
        for c in groups:
            strict = dj[c] == 0
            lead, tail = sums(c, low)
            best_before = np.maximum.accumulate(lead, axis=1)
            best_before[strict, 1:] = best_before[strict, :-1]
            best_before[strict, 0] = -np.inf
            k = np.argmax(best_before + tail, axis=1)
            allowed = np.arange(n) < (k + ~strict)[:, None]
            i = np.argmax(np.where(allowed, lead, -np.inf), axis=1)
            numer, quot = quotients(c, i, k)
            top = max(top, float(numer.max()))
            found = max(found, float(quot.max()))
        if found == np.inf:
            return None
        if not found > low:
            break
        low = found
    if low == 0.0:  # the first round's pairs have the largest numerators
        return 0.0 if top <= 0.0 else None
    if low < _TINY:
        return None
    bound = low * (1.0 - NEAR_TIE)
    margin = 64 * _U * (2.0 * (ybound + bound * xbound) + slack2 + bound * dj)
    if not ((_TINY <= margin) & (margin < np.inf)).all():
        return None
    best, budget = low, PAIR_BUDGET * n
    for c in groups:
        lead, tail = sums(c, bound)
        hits = _pairs_above(lead, tail, slack2 + bound * dj[c] - margin[c], dj[c] == 0, budget)
        if hits is None:
            return None
        rows, i, k = hits
        budget -= rows.size
        if rows.size:
            best = max(best, float(quotients(c[rows], i, k)[1].max()))
    return best


def _pairs_above(lead: np.ndarray, tail: np.ndarray, floor: np.ndarray, strict: np.ndarray,
                 budget: int):
    """Every (row, i, k) with i <= k (i < k on a ``strict`` row) and
    fl(lead[row, i] + tail[row, k]) >= floor[row], or None when more than
    ``budget`` of them (or of their enclosing blocks) turn up.

    The columns are padded to a power of two and halved into dyadic
    blocks.  A pair of blocks I < K holds a pair at least as large as the
    sum of their maxima, and a block I with itself holds the largest sum
    ``inner`` of its pairs i <= k, which the halves give: the best of their
    own and of the left half's maximum plus the right half's.  Float
    addition is monotone, so every bound is attained by a pair below it,
    and a descent from the whole range keeps only the block pairs that
    hold a listed pair: O(n) per row to build, O(log n) per pair listed.
    """
    size = 1 << max(0, lead.shape[1] - 1).bit_length()
    pad = ((0, 0), (0, size - lead.shape[1]))
    leads = [np.pad(lead, pad, constant_values=-np.inf)]
    tails = [np.pad(tail, pad, constant_values=-np.inf)]
    inner = [np.where(strict[:, None], -np.inf, leads[0] + tails[0])]
    while leads[-1].shape[1] > 1:
        a, b, both = leads[-1], tails[-1], inner[-1]
        inner.append(np.maximum(np.maximum(both[:, 0::2], both[:, 1::2]), a[:, 0::2] + b[:, 1::2]))
        leads.append(np.maximum(a[:, 0::2], a[:, 1::2]))
        tails.append(np.maximum(b[:, 0::2], b[:, 1::2]))
    # (row, i) of a block of width w is tracked as row * w + i: a child's
    # index is then twice its parent's plus 0 or 1
    top = len(leads) - 1
    i = k = np.arange(lead.shape[0])  # the whole range of each row
    for level in range(top, -1, -1):
        if level < top:
            i, k = 2 * i[:, None] + [0, 0, 1, 1], 2 * k[:, None] + [0, 1, 0, 1]
            keep = i <= k
            i, k = i[keep], k[keep]
        total = leads[level].ravel()[i] + tails[level].ravel()[k]
        same = np.flatnonzero(i == k)
        total[same] = inner[level].ravel()[i[same]]
        keep = total >= floor[i >> (top - level)]
        i, k = i[keep], k[keep]
        if i.size > budget:
            return None
    return i >> top, i & (size - 1), k & (size - 1)


def _shift_estimates(system: MpIfs, shift: Shift) -> tuple:
    """:func:`_estimates` from the cylinder blocks of a shift, bit for bit.

    For gamma_hat the quadruples (j1, x1, j2, x2) fall in three kinds:

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

    For lip_c_hat a block of level p gives (max - min of its finite
    weights) / levels[p]: never above the quotient of its extreme pair,
    whose distance is at most levels[p], and never below that of any pair
    at exactly levels[p].

    Both are then the dense maxima in O(m^2 * n * depth).
    """
    dj, img, w = system.index_space.dist, system.maps, system.weights
    slack2 = 2.0 * system.snap_slack

    def blocks(ufunc, rows):
        return np.concatenate([r for _, r in shift.blockwise(ufunc, rows)], axis=-1)

    # blockwise yields the symbols^p blocks of each level p, p = depth - 1 down to 0
    dx = np.repeat(shift.levels[::-1], shift.symbols ** np.arange(shift.depth)[::-1])
    spread = shift.distances(blocks(np.minimum, img), blocks(np.maximum, img)) - slack2
    gamma = max(0.0, float((spread / dx).max()))
    for j1, j2 in zip(*np.triu_indices(img.shape[0], 1)):
        same = shift.distances(img[j1], img[j2]) - slack2
        gamma = max(gamma, float((same / dj[j1, j2]).max()))
    hi = blocks(np.maximum, w)  # BOTTOM is -inf: only finite weights count
    lo = blocks(np.minimum, np.where(w > BOTTOM, w, np.inf))
    return gamma, max(0.0, float(((hi - lo) / dx).max()))


def validate(system: MpIfs) -> ValidationReport:
    """Check normalization, contraction, and weight regularity.

    Sets ``validation`` (the returned report) on the system and silently
    re-normalizes the weights (subtracting the per-point max) when the
    drift is within ``NORMALIZATION_TOL``; larger drift raises
    :class:`NormalizationError`.  Both estimates come from
    :func:`_estimates`; then a contraction estimate >= 1 raises
    :class:`NotContractiveError`, and a Lipschitz estimate past the float
    range is a :class:`ConfigError`: it could not be written.
    """
    messages = []
    col_max = system.weights.max(axis=0)
    if (col_max == BOTTOM).any():
        raise NormalizationError("some point has all weights at -inf")
    drift = float(np.max(np.abs(col_max)))
    renormalized = False
    if drift > 0:
        if drift > NORMALIZATION_TOL:
            raise NormalizationError(
                f"weight normalization drift {drift} exceeds {NORMALIZATION_TOL}"
            )
        system.weights = system.weights - col_max[None, :]
        renormalized = True
        messages.append(f"weights re-normalized (drift {drift})")

    with np.errstate(over="ignore"):  # an estimate that overflows is refused below
        gamma, lip = _estimates(system)
    if gamma >= 1.0:
        raise NotContractiveError(f"contraction estimate gamma_hat = {gamma} >= 1")
    if lip == np.inf:
        raise ConfigError("weight Lipschitz estimate lip_c_hat overflows: some weight "
                          "difference over its distance exceeds the float range")

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

    Points with empty preimage get BOTTOM.  A (k, n) block is folded as given, row i's
    targets offset by i * n, by one flat ``np.maximum.at`` per map: every value meets the
    pairs in the (j, y) order of one sequential pass, as ties of ±0 need.
    """
    if lam.space is not system.space and lam.space.n != system.space.n:
        raise DimensionError("density lives on a different space")
    vals = np.atleast_2d(lam.values)
    out = np.full(vals.shape, BOTTOM)
    rows = np.arange(len(vals))[:, None] * vals.shape[1]
    for phi, q in zip(system.maps, system.weights):
        np.maximum.at(out.reshape(-1), (rows + phi).reshape(-1), (vals + q).reshape(-1))
    return Density(system.space, out.reshape(lam.values.shape))


def d_rho(a: Density, b: Density):
    """Sup distance on the exponential scale: max_x |e^a(x) - e^b(x)|.

    BOTTOM entries compare as 0, so the metric is finite on all densities.
    A float for two densities, an array of one per row for two blocks.
    """
    dev = np.max(np.abs(np.exp(a.values) - np.exp(b.values)), axis=-1)
    return dev if dev.ndim else float(dev)
