"""Seeded inputs of the benchmark workloads.

Every workload is a *session*: a fixed sequence of ``tropifs`` invocations,
each on its own config.  ``closure`` holds every invocation that builds the
dense closure (a grid study and a shift study); ``shift-fuzzy`` builds none.
The inputs are inline systems written with the
compact ``{"grid": ...}`` / ``{"shift": ...}`` space forms, so parsing the
config stays negligible next to the work it asks for.

The seed draws every weight (and the fuzzy start membership), but the shape
of each system is fixed by construction so that the amount of work does not
depend on the seed:

* weights sit on the 2^-26 dyadic lattice, so path sums are exact and the
  outputs can be checked for exact equality;
* which map has weight 0 at a point is fixed, and every other weight is a
  penalty drawn from a range whose lower end is more than half its upper
  end.  Two penalties then always cost more than one, so a best path takes
  as few penalised steps as the structure allows.  On the shifts this fixes
  the optimal path lengths, hence the closure's number of squarings and
  the fuzzy iteration count, for every seed; on the grid they stayed the
  same on every seed tried.

The library's ``grid_random`` and ``shift_random`` builders are not used:
with them the closure takes 4 to 6 squarings and the fuzzy iteration 9 to
12 steps depending on the seed, which spreads the timings across seeds by
more than the benchmark's bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

QUANT = 2.0**-26

#: Penalty range of non-zero weights (see the module docstring).
PENALTY = (1.0, 1.75)

#: Slopes and offsets of the grid maps x -> slope * x + offset on [0, 1].
GRID_MAPS = ((0.5, 0.0), (-0.45, 0.9), (0.4, 0.55))

GRID_N = 512
FUZZY_SYMBOLS, FUZZY_DEPTH = 2, 9
ENUM_SYMBOLS, ENUM_DEPTH = 7, 3
#: Boundary levels of the enumerate sweep; all lie above every penalty, so
#: each of the 3^(|Aubry|-1) assignments gives a distinct density.
ENUM_LEVELS = (0.0, -1.0 / 16, -1.0 / 8)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``tropifs <command> --config <name>.json --out <name>/``."""

    name: str
    command: str
    config: dict


#: Workload names; why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("closure", "shift-fuzzy")


def _dyadic(x) -> np.ndarray:
    return np.round(np.asarray(x, dtype=np.float64) / QUANT) * QUANT


def _penalties(rng, shape) -> np.ndarray:
    return -_dyadic(rng.uniform(*PENALTY, size=shape))


def _index_space(m: int, spacing: float) -> dict:
    return {
        "labels": [str(j) for j in range(1, m + 1)],
        "dist": (spacing * (1.0 - np.eye(m))).tolist(),
    }


def grid_system(seed: int, constant: bool = False) -> dict:
    """Three snapped affine contractions on the ``GRID_N``-point grid of [0, 1].

    Place-dependent: the map with weight 0 at x is the one indexed by the
    third of [0, 1] that holds x, and the other two carry seeded penalties.
    Constant: map 1 is the constant map onto the grid point nearest 1/3 with
    weight 0, and maps 2 and 3 carry one seeded penalty each.
    """
    n = GRID_N
    rng = np.random.default_rng([seed, n, int(constant)])
    xs = np.linspace(0.0, 1.0, n)
    maps = np.empty((len(GRID_MAPS), n), dtype=np.int64)
    for j, (slope, offset) in enumerate(GRID_MAPS):
        maps[j] = np.clip(np.rint((slope * xs + offset) * (n - 1)), 0, n - 1)
    m = maps.shape[0]
    if constant:
        maps[0] = round((n - 1) / 3)
        w = _penalties(rng, m)
        w[0] = 0.0
        weights = np.repeat(w[:, None], n, axis=1)
    else:
        weights = _penalties(rng, (m, n))
        weights[np.arange(n) * m // n, np.arange(n)] = 0.0
    return {
        "space": {"grid": {"a": 0.0, "b": 1.0, "n": n}},
        "index_space": _index_space(m, 2.5),
        "maps": maps.tolist(),
        "weights": weights.tolist(),
        "exact_maps": False,
    }


def shift_words(symbols: int, depth: int) -> list:
    """Words in the order ``build_shift_space`` lists them (lexicographic)."""
    return [
        tuple(int(c) + 1 for c in np.base_repr(i, symbols).zfill(depth))
        for i in range(symbols**depth)
    ]


def shift_system(seed: int, symbols: int, depth: int) -> dict:
    """Prepend maps on the depth-truncated shift with first-symbol weights.

    q_j(x) is 0 when j is the first symbol of x and a seeded penalty
    p[j, x_1] otherwise, so the Aubry set is exactly the constant words.
    """
    rng = np.random.default_rng([seed, symbols, depth])
    words = shift_words(symbols, depth)
    index = {w: i for i, w in enumerate(words)}
    table = _penalties(rng, (symbols, symbols))
    np.fill_diagonal(table, 0.0)
    maps = [[index[(j,) + w[:-1]] for w in words] for j in range(1, symbols + 1)]
    weights = [[float(table[j - 1, w[0] - 1]) for w in words] for j in range(1, symbols + 1)]
    return {
        "space": {"shift": {"symbols": symbols, "depth": depth}},
        "index_space": _index_space(symbols, 1.0),
        "maps": maps,
        "weights": weights,
        "exact_maps": True,
    }


def constant_word_indices(symbols: int, depth: int) -> list:
    """Indices of the constant words, which form the Aubry set of ``shift_system``."""
    return [shift_words(symbols, depth).index((s,) * depth) for s in range(1, symbols + 1)]


def fuzzy_start(seed: int, n: int) -> list:
    """Seeded memberships in [0, 1) with one point set exactly to 1."""
    rng = np.random.default_rng([seed, n, 1])
    u0 = rng.uniform(0.0, 1.0, size=n)
    u0[int(rng.integers(n))] = 1.0
    return u0.tolist()


def session(workload: str, seed: int) -> list:
    """The invocations of one session of ``workload``."""
    if workload == "closure":
        shift = {"inline": shift_system(seed, ENUM_SYMBOLS, ENUM_DEPTH)}
        return [
            Invocation("grid-enumerate", "invariant", {
                "system": {"inline": grid_system(seed)},
                "invariant": {"mode": "enumerate", "levels": [0.0]},
            }),
            Invocation("grid-constant", "invariant", {
                "system": {"inline": grid_system(seed, constant=True)},
                "invariant": {"mode": "constant"},
            }),
            Invocation("mane", "mane", {"system": shift}),
            Invocation("enumerate", "invariant", {
                "system": shift,
                "invariant": {"mode": "enumerate", "levels": list(ENUM_LEVELS)},
            }),
        ]
    if workload == "shift-fuzzy":
        return [
            Invocation("fuzzy", "fuzzy", {
                "system": {"inline": shift_system(seed, FUZZY_SYMBOLS, FUZZY_DEPTH)},
                "fuzzy": {"tol": 1e-12, "u0": fuzzy_start(seed, FUZZY_SYMBOLS**FUZZY_DEPTH)},
            }),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def config_bytes(inv: Invocation) -> bytes:
    return json.dumps(inv.config, sort_keys=True).encode()


def write_configs(invocations, directory: Path) -> list:
    """Write one config file per invocation; returns the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for inv in invocations:
        path = directory / f"{inv.name}.json"
        path.write_bytes(config_bytes(inv))
        paths.append(path)
    return paths
