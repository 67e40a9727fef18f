"""Checks of the CLI's outputs, recomputed with the benchmark's own numpy code.

Nothing here imports ``tropifs``: the transfer operator and the fuzzy
Hutchinson-Barnsley step are rebuilt from the ``maps``/``weights`` of the
inline system the benchmark generated.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import constant_word_indices

NEG_INF = float("-inf")


def _system(inv) -> tuple:
    doc = inv.config["system"]["inline"]
    return np.asarray(doc["maps"], dtype=np.int64), np.asarray(doc["weights"], dtype=np.float64)


def _points(inv) -> int:
    return len(inv.config["system"]["inline"]["maps"][0])


def _push_max(maps, values, fill) -> np.ndarray:
    """out[x] = max over (j, y) with maps[j, y] = x of values[j, y]; ``fill`` if none."""
    targets = maps.ravel()
    vals = values.ravel()
    order = np.lexsort((vals, targets))
    targets, vals = targets[order], vals[order]
    last = np.flatnonzero(np.append(targets[1:] != targets[:-1], True))
    out = np.full(maps.shape[1], fill)
    out[targets[last]] = vals[last]
    return out


def transfer(maps, weights, lam) -> np.ndarray:
    """(L lam)(x) = max over phi_j(y) = x of q_j(y) + lam(y)."""
    return _push_max(maps, weights + lam[None, :], NEG_INF)


def fhb_step(maps, weights, u) -> np.ndarray:
    """(Z u)(x) = max over phi_j(y) = x of e^(q_j(y)) u(y)."""
    return _push_max(maps, np.exp(weights) * u[None, :], 0.0)


def _number(cell) -> float:
    return NEG_INF if cell == "-inf" else float(cell)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_densities(inv, out: Path, expected_count=None) -> list:
    """Every density is an exact fixed point with maximum exactly 0."""
    maps, weights = _system(inv)
    densities = json.loads((out / "density.json").read_text())
    reports = json.loads((out / "verify.json").read_text())
    errors = []
    if expected_count is not None and len(densities) != expected_count:
        errors.append(f"{len(densities)} densities, expected {expected_count}")
    if len(reports) != len(densities) or not all(r["passed"] for r in reports):
        errors.append("verify.json does not pass every density")
    for i, doc in enumerate(densities):
        lam = np.array([_number(v) for v in doc["values"]])
        if lam.shape != (maps.shape[1],) or lam.max() != 0.0:
            errors.append(f"density {i} is not a probability on {maps.shape[1]} points")
        elif not np.array_equal(transfer(maps, weights, lam), lam):
            errors.append(f"density {i} is not a fixed point of the transfer operator")
    return errors


def read_aubry(out: Path) -> list:
    return json.loads((out / "aubry.json").read_text())["indices"]


def check_potential(inv, out: Path, expected_aubry) -> list:
    """S <= 0 everywhere, S = 0 on the Aubry diagonal, the expected Aubry set."""
    rows = _read_csv(out / "S.csv")[1:]
    s = np.array([[_number(c) for c in row[1:]] for row in rows])
    aubry = read_aubry(out)
    errors = []
    n = _points(inv)
    if s.shape != (n, n):
        errors.append(f"S.csv has shape {s.shape}, expected {(n, n)}")
        return errors
    if (s > 0).any():
        errors.append("S.csv has a positive entry")
    if any(s[a, a] != 0.0 for a in aubry):
        errors.append("S.csv has a nonzero Aubry diagonal entry")
    if sorted(aubry) != sorted(expected_aubry):
        errors.append(f"Aubry set {aubry}, expected {sorted(expected_aubry)}")
    return errors


def check_attractor(inv, out: Path) -> list:
    """The attractor is normal and fixed under one FHB step within ``tol``."""
    maps, weights = _system(inv)
    tol = inv.config["fuzzy"]["tol"]
    u = np.array([float(row[1]) for row in _read_csv(out / "attractor.csv")[1:]])
    trace = [float(row[1]) for row in _read_csv(out / "trace.csv")[1:]]
    errors = []
    if u.shape != (maps.shape[1],) or u.max() != 1.0:
        errors.append("attractor is not a normal fuzzy set on the space")
    elif np.max(np.abs(fhb_step(maps, weights, u) - u)) > tol:
        errors.append("attractor is not fixed under one FHB step")
    if not trace or trace[-1] > tol:
        errors.append("trace does not end within tol")
    return errors


def digests(out_dirs: dict) -> dict:
    """sha256 of every output file, keyed ``<invocation>/<file>``."""
    found = {}
    for name, out in out_dirs.items():
        for path in sorted(Path(out).iterdir()):
            found[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def check_session(invocations, out_dirs: dict) -> dict:
    """All checks of one session: invocation name -> failures, for failing ones.

    A shift system's Aubry set is its constant words (see ``shift_system``),
    so an ``enumerate`` on a shift must give levels^(symbols - 1) densities;
    every other ``invariant`` run gives exactly one.
    """
    errors = {}
    for inv in invocations:
        out = out_dirs[inv.name]
        shift = inv.config["system"]["inline"]["space"].get("shift")
        try:
            if inv.command == "fuzzy":
                found = check_attractor(inv, out)
            elif inv.command == "mane":
                found = check_potential(inv, out, constant_word_indices(**shift))
            elif shift and inv.config["invariant"]["mode"] == "enumerate":
                levels = len(inv.config["invariant"]["levels"])
                found = check_densities(inv, out, levels ** (shift["symbols"] - 1))
            else:
                found = check_densities(inv, out, 1)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            errors[inv.name] = found
    return errors
