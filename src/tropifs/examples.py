"""Canonical systems for tests and demonstrations.

* the two-point system with constant maps and weights (0, -1), small enough
  that every quantity is a hand computation;
* the binary-shift family with first-symbol-matching weights, which carries
  a whole one-parameter family of invariant densities and is the standard
  witness that place-dependent weights break uniqueness;
* seeded random generators for grids and truncated shifts.

Generated weights are quantized to the dyadic lattice 2^-26 so that all
max-plus path sums are exact float64 values regardless of association
order; exact-equality checks across independently computed quantities are
then meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DemonstrationError,
    GenerationError,
    NormalizationError,
    NotContractiveError,
)
from .measures import Density
from .mpifs import MpIfs, transfer_density, validate
from .mane import mane_potential
from .invariant import BoundaryData, build_invariant
from .fuzzy import d_theta
from .spaces import FiniteSpace, Shift, build_shift_space, snap

QUANT = float(2**-26)
#: Most maps :func:`random_system` will build, checked before any table.
#: Validation costs about m^2 * n on a grid: at n = 2^14 (the largest
#: grid) `tropifs validate` took 3.0 s at 32 maps and 11.7 s at 64 (2 shared
#: vCPUs).
MAX_MAPS = 32
#: Most alphas :class:`ShiftExampleSpec` takes.  The demonstration checks
#: every pair by ``d_theta``, k(k - 1) / 2 calls: at this limit and
#: depth 14, `tropifs demo31` took 1.8-2.0 s (2 shared vCPUs).
MAX_ALPHAS = 32


def _dyadic(arr: np.ndarray) -> np.ndarray:
    """Round to the 2^-26 lattice; sums of thousands of these are exact."""
    return np.round(np.asarray(arr, dtype=np.float64) / QUANT) * QUANT


def discrete_index_space(labels: Sequence[str], spacing: float = 1.0) -> FiniteSpace:
    m = len(labels)
    dist = spacing * (1.0 - np.eye(m))
    return FiniteSpace(labels=labels, dist=dist)


def _prepend_maps(symbols: int, depth: int) -> np.ndarray:
    """maps[j, i]: the word i with the symbol j + 1 prepended and its last symbol dropped.

    Words are listed lexicographically over {1..symbols}, so the index of a
    word is its base-``symbols`` numeral; dropping the last symbol divides
    the index by ``symbols`` and the new leading symbol adds j * symbols^(depth-1).
    """
    n = symbols**depth
    return np.arange(symbols)[:, None] * symbols ** (depth - 1) + np.arange(n) // symbols


def build_two_point_system() -> MpIfs:
    """Two points, two constant maps (one onto each point), weights 0 and -1."""
    space = FiniteSpace(labels=["p0", "p1"], dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
    index_space = discrete_index_space(["1", "2"], spacing=2.0)
    maps = np.array([[0, 0], [1, 1]])
    weights = np.array([[0.0, 0.0], [-1.0, -1.0]])
    system = MpIfs(space, index_space, maps, weights, exact_maps=True)
    validate(system)
    return system


def build_nonunique_shift_system(depth: int) -> MpIfs:
    """Binary shift truncation with prepend maps and first-symbol weights.

    phi_j prepends the symbol j and drops the last symbol (exact on the
    truncation); q_j(x) is 0 when j matches the leading symbol of x and -1
    otherwise.  The transfer operator of this system fixes a continuum of
    densities, one per boundary level on the all-2 word.
    """
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    space = build_shift_space(2, depth)
    index_space = discrete_index_space(["1", "2"], spacing=1.0)
    maps = _prepend_maps(2, depth)
    first = np.arange(space.n) // 2 ** (depth - 1)  # leading symbol minus 1
    weights = np.where(np.arange(2)[:, None] == first, 0.0, -1.0)
    system = MpIfs(space, index_space, maps, weights, exact_maps=True)
    validate(system)
    return system


def lambda_alpha(depth: int, alpha) -> Density:
    """The invariant density of the binary-shift example at parameter alpha,
    or for an array of alphas the block of them, one row per alpha.

    A depth-n word is read as itself followed by an infinite tail of its
    last symbol; its value is minus the number of symbol changes, lowered
    by alpha when the tail symbol is 2.  The maximum 0 sits at the all-1
    word.  Words that would need infinitely many alternations (value
    bottom in the untruncated model) have no representative here, so the
    truncated density is finite everywhere.  Word i spells the base-2
    digits of i plus 1, so its changes are its unequal adjacent digits.
    """
    alphas = np.asarray(alpha, dtype=np.float64)
    if not ((0 <= alphas) & (alphas < 1)).all():
        raise ConfigError("alpha must lie in [0, 1)")
    space = build_shift_space(2, depth)
    i = np.arange(space.n)
    changes = sum((((i >> p) ^ (i >> (p + 1))) & 1 for p in range(depth - 1)), np.zeros_like(i))
    # negated as integers: a float -0.0 - 0.0 would give -0.0, not 0.0
    vals = (-changes).astype(np.float64) - np.where(i & 1, alphas[..., None], 0.0)
    return Density(space, vals)


@dataclass
class ShiftExampleSpec:
    """Depth and parameters of the demonstration.

    At most ``MAX_ALPHAS`` alphas are taken.  Each must lie in [0, 1) as
    given, and stay below 1 and distinct once snapped to the 2^-26 lattice
    (it is reported snapped): a transfer step computes
    -1 + (-changes - alpha), which rounds differently from the stored
    -changes - alpha unless alpha is dyadic.
    """

    depth: int
    alphas: Sequence[float]

    def __post_init__(self):
        if self.depth < 2:
            raise ConfigError("depth must be >= 2")
        if len(self.alphas) > MAX_ALPHAS:
            raise ConfigError(f"{len(self.alphas)} alphas is more than the limit of {MAX_ALPHAS}")
        snapped = {}  # snapped alpha -> the alpha given
        for a in self.alphas:
            if not 0 <= a < 1:
                raise ConfigError(f"alphas must lie in [0, 1), got {a!r}")
            s = float(_dyadic(a))
            if s == 1.0:
                raise ConfigError(f"alpha {a!r} snaps to 1.0 on the 2^-26 lattice, not below 1")
            if s in snapped:
                raise ConfigError(f"alphas {snapped[s]!r} and {a!r} both snap to {s!r} on the "
                                  "2^-26 lattice; alphas must be distinct")
            snapped[s] = a
        self.alphas = list(snapped)


def demonstrate_nonuniqueness(spec: ShiftExampleSpec) -> tuple[dict, Density]:
    """Exhibit one distinct invariant density per alpha, three ways.

    Each candidate must be an exact fixed point of the transfer operator,
    pairwise d_theta distances must be positive, and each must coincide
    exactly with the density built from the potential with boundary
    {all-1 word: 0, all-2 word: -alpha}.  The candidates are one block,
    checked by one transfer step and one build.  Returns the report (the
    ``report.json`` dict) and the block, one row per alpha.
    """
    system = build_nonunique_shift_system(spec.depth)
    pot = mane_potential(system)
    one_idx, two_idx = 0, system.space.n - 1  # the all-1 and the all-2 word

    alphas = np.array(spec.alphas, dtype=np.float64)
    lams = lambda_alpha(spec.depth, alphas)
    fixed = (transfer_density(system, lams).values == lams.values).all(axis=-1).tolist()
    rows = [Density(lams.space, row) for row in lams.values]
    pairwise = [[0.0] * len(rows) for _ in rows]
    for i in range(len(rows)):
        for k in range(i + 1, len(rows)):  # d_theta is symmetric, bit for bit
            pairwise[i][k] = pairwise[k][i] = d_theta(rows[i], rows[k])
    boundary = BoundaryData({one_idx: np.zeros(len(alphas)), two_idx: -alphas}, one_idx)
    matches = (build_invariant(pot, boundary).values == lams.values).all(axis=-1).tolist()

    problems = []
    if not all(fixed):
        problems.append(f"fixed-point check failed for alphas "
                        f"{[a for a, ok in zip(spec.alphas, fixed) if not ok]}")
    for i in range(len(rows)):
        for k in range(i + 1, len(rows)):
            if pairwise[i][k] <= 0:
                problems.append(f"densities for alphas {spec.alphas[i]} and "
                                f"{spec.alphas[k]} are not distinct")
    if not all(matches):
        problems.append("potential-based reconstruction mismatch")
    if problems:
        raise DemonstrationError("; ".join(problems))
    return {
        "depth": spec.depth,
        "alphas": list(spec.alphas),
        "fixed_point_exact": fixed,
        "pairwise_d_theta": pairwise,
        "boundary_match_exact": matches,
        "num_distinct": len(spec.alphas),
    }, lams


def _affine_grid_maps(space: FiniteSpace, num_maps: int, rng, constant_first: bool):
    xs = space.xs
    a, b = float(xs[0]), float(xs[-1])
    maps = np.zeros((num_maps, space.n), dtype=np.intp)
    for j in range(num_maps):
        if constant_first and j == 0:
            target = snap(space, rng.uniform(a, b))
            maps[j, :] = target
            continue
        slope = rng.uniform(0.2, 0.6) * (1 if rng.random() < 0.5 else -1)
        span_lo = min(slope * a, slope * b)
        span_hi = max(slope * a, slope * b)
        shift = rng.uniform(a - span_lo, b - span_hi)
        maps[j] = snap(space, shift + slope * xs)
    return maps


def _grid_weights(space: FiniteSpace, num_maps: int, rng, constant: bool):
    if constant:
        w = -_dyadic(rng.uniform(2**-4, 2.0, size=num_maps))
        w[0] = 0.0
        return np.repeat(w[:, None], space.n, axis=1)
    xs = space.xs
    span = max(float(xs[-1] - xs[0]), 1.0)
    raw = np.empty((num_maps, space.n))
    for j in range(num_maps):
        amp = rng.uniform(0.2, 1.0)
        freq = rng.uniform(0.5, 2.0) * np.pi / span
        phase = rng.uniform(0, 2 * np.pi)
        raw[j] = amp * np.sin(freq * xs + phase) - rng.uniform(0.0, 1.0)
    raw = _dyadic(raw)
    return raw - raw.max(axis=0, keepdims=True)


def _shift_weights(space: FiniteSpace, symbols: int, rng, constant: bool):
    if constant:
        w = -_dyadic(rng.uniform(2**-4, 2.0, size=symbols))
        zeros = rng.choice(symbols, size=int(rng.integers(1, min(symbols, 2) + 1)), replace=False)
        w[zeros] = 0.0
        return np.repeat(w[:, None], space.n, axis=1)
    first = np.arange(space.n) // space.block(1)  # leading symbol minus 1
    table = -_dyadic(rng.uniform(0.0, 2.0, size=(symbols, symbols)))
    raw = table[:, first]
    return raw - raw.max(axis=0, keepdims=True)


def random_system(
    space: FiniteSpace,
    num_maps: int,
    seed: int,
    constant_weights: bool = False,
) -> MpIfs:
    """Seeded random valid system on a grid or truncated shift space.

    Grid systems use affine contractions snapped to the grid; shift systems
    use the prepend maps (``num_maps`` must equal the symbol count).  When
    ``constant_weights`` is set, grid systems make the zero-weight map
    constant so the zero-cost dynamics has a genuine fixed point.  Retries
    with derived seeds until validation passes, then fails with
    :class:`GenerationError`.
    """
    if num_maps < 1:
        raise ConfigError("need at least one map")
    if num_maps > MAX_MAPS:
        raise ConfigError(f"{num_maps} maps is more than the limit of {MAX_MAPS}")
    symbolic = isinstance(space, Shift)
    if symbolic:
        if num_maps != space.symbols:
            raise ConfigError("shift systems need one prepend map per symbol")
        maps = _prepend_maps(space.symbols, space.depth)
        index_space = discrete_index_space([str(j) for j in range(1, space.symbols + 1)])
    else:
        spacing = 2.5 * space.diameter
        if spacing == np.inf:
            raise ConfigError(f"index spacing 2.5 * diameter overflows the float range "
                              f"(diameter {space.diameter})")
        index_space = discrete_index_space([str(j) for j in range(num_maps)], spacing=spacing)

    last_error = None
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        try:
            if symbolic:
                weights = _shift_weights(space, num_maps, rng, constant_weights)
                system = MpIfs(space, index_space, maps.copy(), weights, exact_maps=True)
            else:
                m = _affine_grid_maps(space, num_maps, rng, constant_first=constant_weights)
                weights = _grid_weights(space, num_maps, rng, constant_weights)
                system = MpIfs(space, index_space, m, weights, exact_maps=False)
            validate(system)
            return system
        except (NormalizationError, NotContractiveError) as exc:
            last_error = exc
    raise GenerationError(f"no valid system after 100 attempts: {last_error}")
