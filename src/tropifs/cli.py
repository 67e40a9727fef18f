"""Command-line driver.

    tropifs <validate|mane|invariant|fuzzy|demo31> --config <path> --out <dir> [--seed N]

Exit codes: 0 on success, 2 on a domain failure (invalid system, empty
Aubry set, non-convergence, mode mismatch, no unique density for the
constant mode), 3 on usage or configuration errors, wrongly typed config
values, spaces over ``spaces.MAX_POINTS`` points, ``mane`` on more than
``mane.MAX_CLOSURE_POINTS`` points, Aubry columns over
``mane.MAX_COLUMN_VALUES`` values and ``demo31`` on more than
``examples.MAX_ALPHAS`` alphas included.  All outputs are JSON or CSV
files in the output directory and are byte-identical across runs for a
fixed config and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# tropifs calls no BLAS routine (dot, matmul, linalg, einsum): one thread, unless the user set it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import serialize
from .config import RunConfig, build_system, load_config
from .errors import (
    ConfigError,
    GenerationError,
    NonConvergenceError,
    NormalizationError,
    NotContractiveError,
    TropifsError,
)
from .examples import ShiftExampleSpec, demonstrate_nonuniqueness
from .fuzzy import FHB_TOL, FuzzySet, fhb_attractor, theta_conjugate
from .invariant import (
    VERIFY_TOL,
    BoundaryData,
    build_invariant,
    constant_weight_density,
    enumerate_invariants,
    verify_invariant,
)
from .mane import AUBRY_TOL, MAX_CLOSURE_POINTS, mane_potential, transition_matrix
from .maxplus import kleene_plus
from .measures import Density

#: What ``build_system`` raises for a system it cannot build or validate.
DOMAIN_ERRORS = (NormalizationError, NotContractiveError, GenerationError)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 3


def _resolve_point(space, key):
    """Boundary keys may be indices or point labels; a label must name one
    point, and an index given as a string must be spelled as ``str`` spells
    it (``"7"``, not ``"07"``, ``" 7"`` or ``"0_7"``)."""
    if isinstance(key, int) and not isinstance(key, bool):
        return key
    if isinstance(key, str):
        if key in space.labels:
            if space.labels.count(key) > 1:
                raise ConfigError(f"boundary point {key!r} names more than one point")
            return space.labels.index(key)
        try:
            if str(int(key)) == key:
                return int(key)
        except ValueError:
            pass
    raise ConfigError(f"unknown boundary point {key!r}")


def _list(params: dict, key: str, default: list) -> list:
    value = params.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def cmd_validate(cfg: RunConfig, out: Path, seed) -> int:
    try:
        system = build_system(cfg, seed)
    except DOMAIN_ERRORS as exc:
        serialize.write_json(out / "validation.json", {"valid": False, "error": str(exc)})
        return EXIT_DOMAIN
    report = system.validation.to_jsonable()
    report["points"] = system.space.n
    report["maps"] = system.num_maps
    report["constant_weights"] = system.is_constant_weight()
    serialize.write_json(out / "validation.json", report)
    return EXIT_OK


def cmd_mane(cfg: RunConfig, out: Path, seed) -> int:
    system = build_system(cfg, seed)
    if system.space.n > MAX_CLOSURE_POINTS:
        raise ConfigError(
            f"mane writes the dense n x n closure S, and n = {system.space.n} points "
            f"is larger than the limit of {MAX_CLOSURE_POINTS}"
        )
    tol = serialize.scalar(cfg.mane.get("tol_aubry", AUBRY_TOL), float, "tol_aubry")
    pot = mane_potential(system, tol_aubry=tol)
    serialize.matrix_to_csv(out / "S.csv", kleene_plus(transition_matrix(system)),
                            labels=system.space.labels)
    serialize.write_json(out / "aubry.json", serialize.aubry_to_jsonable(pot))
    return EXIT_OK


def cmd_invariant(cfg: RunConfig, out: Path, seed) -> int:
    system = build_system(cfg, seed)
    params = cfg.invariant
    mode = params.get("mode", "constant")
    tol = serialize.scalar(params.get("tol", VERIFY_TOL), float, "tol")
    tol_aubry = serialize.scalar(params.get("tol_aubry", AUBRY_TOL), float, "tol_aubry")
    # the whole block is read before the closure, so a config error costs no closure
    if mode == "boundary":
        raw = params.get("boundary")
        if not (isinstance(raw, dict) and raw.keys() == {"anchor", "levels"}
                and isinstance(raw["levels"], dict)):
            raise ConfigError("boundary mode needs exactly {'anchor': ..., 'levels': {...}}")
        levels = {}
        for key, value in raw["levels"].items():
            point = _resolve_point(system.space, key)
            if point in levels:
                raise ConfigError(f"boundary key {key!r} names point {point}, "
                                  "which an earlier key names too")
            levels[point] = serialize.value_from_jsonable(value)
        boundary = BoundaryData(values=levels, anchor=_resolve_point(system.space, raw["anchor"]))
    elif mode == "enumerate":
        levels = [serialize.value_from_jsonable(v) for v in _list(params, "levels", [0.0])]
    elif mode != "constant":
        raise ConfigError(f"unknown invariant mode {mode!r}")
    pot = mane_potential(system, tol_aubry=tol_aubry)

    if mode == "boundary":
        values = build_invariant(pot, boundary).values
    elif mode == "constant":
        values = constant_weight_density(system, pot).values
    else:
        values = enumerate_invariants(pot, levels)

    lam = Density(system.space, np.atleast_2d(values))  # every mode writes a block
    rep = verify_invariant(system, lam, tol)
    serialize.write_json(out / "density.json", serialize.density_to_jsonable(lam))
    serialize.write_json(out / "verify.json", [
        {"passed": passed, "max_deviation": dev, "tol": tol}
        for passed, dev in zip(rep.passed.tolist(), rep.max_deviation.tolist())
    ])
    if serialize.scalar(cfg.output.get("csv", False), bool, "output.csv"):
        for i, values in enumerate(lam.values):
            serialize.density_to_csv(out / f"density_{i:03d}.csv", Density(lam.space, values))
    return EXIT_OK


def cmd_fuzzy(cfg: RunConfig, out: Path, seed) -> int:
    system = build_system(cfg, seed)
    params = cfg.fuzzy
    tol = serialize.scalar(params.get("tol", FHB_TOL), float, "tol")
    max_iters = params.get("max_iters")  # absent or null: the library default
    if max_iters is not None:
        max_iters = serialize.scalar(max_iters, int, "max_iters", minimum=1)
    u0_spec = params.get("u0", "uniform")
    if u0_spec == "uniform":
        u0 = FuzzySet(system.space, np.ones(system.space.n))
    elif u0_spec == "invariant":
        pot = mane_potential(system)
        u0 = theta_conjugate(constant_weight_density(system, pot))
    elif isinstance(u0_spec, list):
        u0 = FuzzySet(system.space, serialize.floats(
            u0_spec, lambda x: serialize.scalar(x, float, "u0 entry")))
    else:
        raise ConfigError(f"u0 must be 'uniform', 'invariant' or a list, got {u0_spec!r}")
    try:
        result = fhb_attractor(system, u0, tol=tol, max_iters=max_iters)
    except NonConvergenceError as exc:
        serialize.trace_to_csv(out / "trace.csv", exc.trace)
        serialize.fuzzy_to_csv(out / "attractor.csv", exc.last)
        raise
    serialize.fuzzy_to_csv(out / "attractor.csv", result.attractor)
    serialize.trace_to_csv(out / "trace.csv", result.trace)
    return EXIT_OK


def cmd_demo31(cfg: RunConfig, out: Path, seed) -> int:
    params = cfg.demo31
    spec = ShiftExampleSpec(
        depth=serialize.scalar(params.get("depth", 6), int, "depth"),
        alphas=[serialize.scalar(a, float, "alpha")
                for a in _list(params, "alphas", [0.0, 0.25, 0.5])],
    )
    report, block = demonstrate_nonuniqueness(spec)
    serialize.write_json(out / "report.json", report)
    # the block of densities, one row per alpha, as it was checked ([] for no alphas)
    serialize.write_json(out / "density.json", serialize.density_to_jsonable(block))
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "mane": cmd_mane,
    "invariant": cmd_invariant,
    "fuzzy": cmd_fuzzy,
    "demo31": cmd_demo31,
}


#: Built once at import: the first ``ArgumentParser()`` of a process imports
#: ``locale`` through gettext, a start-up cost ``main`` then no longer pays.
PARSER = argparse.ArgumentParser(prog="tropifs", description=__doc__)
PARSER.add_argument("command", choices=sorted(COMMANDS))
PARSER.add_argument("--config", required=True)
PARSER.add_argument("--out", default=".")
PARSER.add_argument("--seed", type=int, default=None)


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out, args.seed)
    except ConfigError as exc:
        print(f"tropifs: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TropifsError as exc:
        print(f"tropifs: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"tropifs: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
