"""Every run whose output bytes must not change, listed once, and its runner.

``python3 tests/byte_runs.py BASE_TREE [HEAD_TREE]`` runs each entry of ``RUNS`` in both
source trees at once (cwd = tree, PYTHONPATH = tree/src, outputs in a temporary directory),
checks that both exit alike and as the entry requires and write the same stderr, and
compares each listed file that either side wrote.  HEAD_TREE defaults to this checkout.  It
prints the counts and exits 1 on any mismatch, with the stderr of each side of a
mismatching run.  The runs on GOLDEN_SYSTEMS draw only their own seeds: test_cli.py pins
their digests.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np


class Run(NamedTuple):
    name: str  # unique
    command: str  # a tropifs command, or "bench": the benchmark's sha256 lines
    config: dict  # for "bench", its --workload and --seed
    files: tuple  # compared; each one written whenever ``exit`` is set
    exit: Optional[int] = None  # the exit code required, if any


FILES = {"validate": ("validation.json",), "mane": ("S.csv", "aubry.json"),
         "invariant": ("density.json", "verify.json"), "fuzzy": ("attractor.csv", "trace.csv"),
         "demo31": ("report.json", "density.json"), "bench": ("sha256",)}
TWO_POINT, SHIFT6 = {"builder": "two_point"}, {"builder": "nonunique_shift", "depth": 6}
CONSTANT, CSV, UNIFORM = {"mode": "constant"}, {"output": {"csv": True}}, {"fuzzy": {"u0": "uniform"}}
TWO_POINT_DOC = {
    "space": {"labels": ["p0", "p1"], "dist": [[0.0, 1.0], [1.0, 0.0]], "resolution": 0.0},
    "index_space": {"labels": ["1", "2"], "dist": [[0.0, 2.0], [2.0, 0.0]]},
    "maps": [[0, 0], [1, 1]], "weights": [[0.0, 0.0], [-1.0, -1.0]], "exact_maps": True}
# An explicit table with non-dyadic distances and weights takes validate's row blocks.
EXPLICIT_5 = {"space": {"labels": ["0", "0.3", "0.7", "1.3", "2.1"], "dist": [
    [0, 0.3, 0.7, 1.3, 2.1], [0.3, 0, 0.4, 1.0, 1.8], [0.7, 0.4, 0, 0.6, 1.4],
    [1.3, 1.0, 0.6, 0, 0.8], [2.1, 1.8, 1.4, 0.8, 0]]},
    "index_space": {"labels": ["1", "2"], "dist": [[0, 1], [1, 0]]}, "exact_maps": True,
    "maps": [[0, 0, 0, 0, 0], [1, 1, 1, 2, 2]], "weights": [[0, -0.1, -0.3, 0, -0.7], [-0.2, 0, 0, -0.45, 0]]}


def grid(n, seed, constant=None, a=0, b=1):
    return {"builder": "grid_random", "a": a, "b": b, "n": n, "num_maps": 3, "seed": seed,
            **({} if constant is None else {"constant_weights": constant})}


def shift(depth, seed, constant=None, symbols=3):
    return {"builder": "shift_random", "symbols": symbols, "depth": depth, "seed": seed,
            **({} if constant is None else {"constant_weights": constant})}


def inline(space, maps, weights, exact_maps):
    """A system on ``space`` whose map j has the weights ``weights[j]``, a row or one
    number, and the index space of the maps' labels "1", "2", ... at distance 2.5."""
    m = len(maps)
    return {"system": {"inline": {"space": space, "maps": maps, "exact_maps": exact_maps, "index_space": {
        "labels": [str(j + 1) for j in range(m)],
        "dist": [[0.0 if i == j else 2.5 for j in range(m)] for i in range(m)]},
        "weights": [w if isinstance(w, list) else [w] * len(row) for w, row in zip(weights, maps)]}}}


def tied_grid(constant):
    """Three snapped affine contractions on the 512-point grid of [0, 1] with dyadic
    penalty weights, the shape of the benchmark's grid runs.  gamma_hat is 0.5 exactly,
    attained by 8 256 pairs of map 1 alone, or 0.45 by 66 pairs with ``constant`` weights."""
    n, xs, rng = 512, np.linspace(0.0, 1.0, 512), np.random.default_rng([1, 512, int(constant)])
    maps = np.array([np.clip(np.rint((slope * xs + offset) * (n - 1)), 0, n - 1)
                     for slope, offset in ((0.5, 0.0), (-0.45, 0.9), (0.4, 0.55))], dtype=np.int64)
    weights = -np.round(rng.uniform(1.0, 1.75, size=3 if constant else (3, n)) * 2**26) / 2**26
    if constant:
        maps[0], weights[0] = round((n - 1) / 3), 0.0
        weights = np.repeat(weights[:, None], n, axis=1)
    else:
        weights[np.arange(n) * 3 // n, np.arange(n)] = 0.0
    return inline({"grid": {"a": 0.0, "b": 1.0, "n": n}}, maps.tolist(), weights.tolist(), False)


def uneven_line(n):
    """An explicit table of ``n`` points on a line at seeded gaps of 1 to 4 times 2^-10, so
    every distance is exact, under the snapped contractions of ``tied_grid``.  Map j has
    weight 0 on the j-th third of the points and seeded dyadic penalties elsewhere."""
    rng = np.random.default_rng([n, 29])
    xs = np.cumsum(rng.integers(1, 5, n)) / 2**10
    maps = [np.abs(xs[None, :] - (slope * xs + offset * xs[-1])[:, None]).argmin(axis=1).tolist()
            for slope, offset in ((0.5, 0.0), (-0.45, 0.9), (0.4, 0.55))]
    weights = -np.round(rng.uniform(0.25, 1.0, (3, n)) * 2**10) / 2**10
    weights[np.arange(n) * 3 // n, np.arange(n)] = 0.0
    return inline({"labels": list(map(repr, xs.tolist())), "dist": np.abs(xs[:, None] - xs).tolist(),
                   "resolution": float(np.diff(xs).max() / 2)}, maps, weights.tolist(), False)


SHIFT_MAPS = [[0, 0, 1, 1, 2, 2, 3, 3], [4, 4, 5, 5, 6, 6, 7, 7]]  # prepends on the binary shift
GOLDEN_SYSTEMS = {
    "two-point": {"system": TWO_POINT},
    "shift4": {"system": {"builder": "nonunique_shift", "depth": 4}},
    # the only zero-weight map of this snapped grid is the constant map onto point 5
    "snapped": inline({"grid": {"a": 0.0, "b": 1.0, "n": 17}}, [
        [5] * 17, [8, 8, 9, 10, 10, 10, 11, 12, 12, 12, 13, 14, 14, 14, 15, 16, 16]], [0.0, -0.5], False),
    "shift-constant": inline({"shift": {"symbols": 2, "depth": 3}}, SHIFT_MAPS, [0.0, -0.75], True),
    # the two-point system on labels that csv must quote and json must escape
    "quoted-labels": {"system": {"inline": {
        **TWO_POINT_DOC, "space": {**TWO_POINT_DOC["space"], "labels": ["x,y", 'say "\u00e9"']}}}},
    # the two-point system on labels outside ASCII, read and written as UTF-8 in every locale
    "non-ascii-labels": {"system": {"inline": {
        **TWO_POINT_DOC, "space": {**TWO_POINT_DOC["space"], "labels": ["p\u00e9", "q\u03bb"]}}}},
    # identity maps: gamma_hat is 1, and validate writes the error report
    "non-contractive": {"system": {"inline": {**TWO_POINT_DOC, "maps": [[0, 1], [0, 1]]}}},
    # one Floyd-Warshall sweep leaves some zeros of S with the other sign than a fixed point
    "signed-zeros": inline({"shift": {"symbols": 2, "depth": 3}}, SHIFT_MAPS, [
        [-0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0], [-0.75, -0.75] + [-0.0] * 6], True),
    # place-dependent weights; the non-injective maps fix three points at zero cost
    "snapped-grid": inline({"grid": {"a": 0.0, "b": 1.0, "n": 9}}, [
        [0, 0, 1, 1, 2, 2, 3, 3, 4], [4, 4, 5, 5, 6, 6, 7, 7, 8]], [
        [0.0] * 5 + [-0.25, -0.5, -0.75, -1.0], [-1.0, -0.75, -0.5, -0.25] + [0.0] * 5], False),
    **{f"grid{n}{kind}": {"system": grid(n, seed, bool(kind), a, b)}
       for n, seed, a, b in ((64, 5, 0, 1), (700, 11, -1, 2.5)) for kind in ("", "-constant")},
    **{f"tied-grid{kind}": tied_grid(bool(kind)) for kind in ("", "-constant")},
}


# path sums below the float range saturate to BOTTOM: map 2 costs -1.7e308 at both points (one
# Aubry point), or each map costs it at one point (both points are Aubry points)
OVERFLOWING = {"one-aubry": {**TWO_POINT_DOC, "weights": [[0.0, 0.0], [-1.7e308, -1.7e308]]},
               "two-aubry": {**TWO_POINT_DOC, "weights": [[0.0, -1.7e308], [-1.7e308, 0.0]]}}


def case(name, command, config, exit=None, more=()):
    """The run of ``command`` that compares the files it always writes, and ``more``."""
    return Run(name, command, config, FILES[command] + more, exit)


def levels(*values):
    return {"mode": "enumerate", "levels": list(values)}


RUNS = [
    *(case(f"demo31{suffix}", "demo31", config, 0) for suffix, config in (
        ("", {}), ("-no-alphas", {"demo31": {"alphas": []}}),
        ("-depth12", {"demo31": {"depth": 12, "alphas": [0.0, 0.25, 0.5, 0.75]}}))),
    *(case(f"{system}-validate", "validate", GOLDEN_SYSTEMS[system], 2 if system == "non-contractive" else 0)
      for system in ("two-point", "shift4", "snapped", "shift-constant", "non-contractive", "grid64",
                     "grid64-constant", "grid700", "grid700-constant", "tied-grid", "tied-grid-constant")),
    *(case(f"{system}-mane", "mane", GOLDEN_SYSTEMS[system], 0) for system in (
        "two-point", "shift4", "snapped", "shift-constant", "quoted-labels", "signed-zeros",
        "non-ascii-labels")),
    *(case(f"{system}-fuzzy", "fuzzy", GOLDEN_SYSTEMS[system], 0)
      for system in ("shift-constant", "non-ascii-labels")),
    *(case(name, "invariant", {**GOLDEN_SYSTEMS[system], "invariant": invariant, **(CSV if csv else {})},
           0, tuple(f"density_{i:03}.csv" for i in range(csv))) for name, system, invariant, csv in (
        ("two-point-constant", "two-point", CONSTANT, 0),
        ("two-point-enumerate", "two-point", levels(0.0, -0.5), 0),
        ("two-point-boundary", "two-point",
         {"mode": "boundary", "boundary": {"anchor": 0, "levels": {"0": 0.0}}}, 0),
        ("shift4-enumerate", "shift4", levels(0.0, -0.25, -0.5), 0),
        ("snapped-constant", "snapped", CONSTANT, 0),
        ("snapped-constant-csv", "snapped", CONSTANT, 1),
        ("shift-constant", "shift-constant", CONSTANT, 0),
        ("quoted-labels-enumerate", "quoted-labels", {"mode": "enumerate"}, 0),
        # repeated, signed-zero and bottom levels give duplicate densities
        ("shift4-enumerate-csv", "shift4", levels(0.0, "-inf", -0.25, 0.0, -0.0, "-inf"), 3),
        ("snapped-grid-enumerate", "snapped-grid", levels(0.0, -0.5, "-inf", -0.5, -0.0), 0))),
    # the benchmark at several seeds: which closure path runs depends on the draws
    *(case(f"{w}-{seed}", "bench", {"workload": w, "seed": seed}, 0)
      for seed in (1, 2, 4242) for w in ("closure", "shift-fuzzy")),
    # validate up to the largest grid a config may ask for, on shifts and on explicit tables
    *(case(f"validate-{n}-{seed}-{json.dumps(c)}", "validate", {"system": grid(n, seed, c)}, 0)
      for n in (64, 513, 2048, 16384) for seed in (1, 2) for c in (False, True)),
    *(case(f"validate-shift-{s}-{d}-{seed}-{json.dumps(c)}", "validate", {"system": shift(d, seed, c, s)}, 0)
      for s, d in ((3, 4), (3, 6), (2, 9)) for seed in (1, 2) for c in (False, True)),
    *(case(f"validate-{name}", "validate", {"system": system}, 0) for name, system in (
        ("two-point", TWO_POINT), ("shift-nonunique-6", SHIFT6), ("explicit-5", {"inline": EXPLICIT_5}),
        ("explicit-5-bottom", {"inline": {**EXPLICIT_5, "weights": [
            [0, -0.1, "-inf", 0, -0.7], EXPLICIT_5["weights"][1]]}}),
        # every pair ties on linear weights, so lip_c_hat is left to the row blocks
        ("linear-513", {"inline": {
            "space": {"grid": {"a": 0, "b": 1, "n": 513}}, "index_space": EXPLICIT_5["index_space"],
            "maps": [[0] * 513, [i // 2 for i in range(513)]],
            "weights": [[0] * 513, [(0 - i) / 4096 for i in range(513)]]}}))),
    # the dense closure up to mane's limit of 2048 points
    *(case(f"mane-{n}-{seed}-{json.dumps(c)}", "mane", {"system": grid(n, seed, c)}, 0)
      for n, seed in ((64, 1), (64, 2), (513, 1), (513, 2), (2048, 1)) for c in (False, True)),
    *(case(f"mane-shift-{d}-{seed}-{json.dumps(c)}", "mane", {"system": shift(d, seed, c)}, 0)
      for d in (4, 6) for seed in (1, 2) for c in (False, True)),
    case("mane-nonunique-6", "mane", {"system": SHIFT6}, 0),
    # the level sweep and the alpha-cut cross-check on each kind of space; a run that ends
    # without a fixed point (exit 2) writes both files too
    *(case(f"fuzzy-{n}-{seed}-{json.dumps(c)}", "fuzzy", {"system": grid(n, seed, c), **UNIFORM})
      for n in (16, 64, 513) for seed in (1, 2) for c in (False, True)),
    # rows longer than 2048 points fold one row at a time; n = 148, seed 8 ends without a
    # fixed point after 1,480 steps, with memberships left at the least subnormals
    *(case(f"fuzzy-{n}-{seed}-true", "fuzzy", {"system": grid(n, seed, True), **UNIFORM}, code)
      for n, seed, code in ((4096, 7, 0), (148, 8, 2))),
    # u0 "invariant" starts at a fixed point: on two_point the trace is its header alone
    *(case(f"fuzzy-invariant-{name}", "fuzzy", {"system": system, "fuzzy": {"u0": "invariant"}}, 0)
      for name, system in (("two-point", TWO_POINT), ("shift-4-1", shift(4, 1, True)),
                           ("grid-64-1", grid(64, 1, True)))),
    # the max_iters cap: the n = 148 run above stops after 50 of its 1,480 steps
    case("fuzzy-148-8-true-max-50", "fuzzy",
         {"system": grid(148, 8, True), "fuzzy": {"u0": "uniform", "max_iters": 50}}, 2),
    case("fuzzy-explicit-5", "fuzzy", {"system": {"inline": EXPLICIT_5}, **UNIFORM}),
    # 260 points: the distances from all of them take two blocks of rows
    case("fuzzy-explicit-260", "fuzzy", {**uneven_line(260), **UNIFORM}, 0),
    *(case(f"fuzzy-shift-{d}-{seed}", "fuzzy", {"system": shift(d, seed, True), **UNIFORM})
      for d in (4, 6) for seed in (1, 2)),
    *(case(f"demo31-{d}-{name}", "demo31", {"demo31": {"depth": d, "alphas": alphas}})
      for d in (6, 14) for name, alphas in (("three", [0, 0.25, 0.5]), ("none", []))),
    # the most alphas demo31 takes: every pair's d_theta, mirrored into the matrix
    case("demo31-8-max-alphas", "demo31", {"demo31": {"depth": 8, "alphas": [i / 32 for i in range(32)]}}, 0),
    *(case(f"overflow-{name}-{command}", command, {"system": {"inline": doc}, **extra}, 0)
      for name, doc in OVERFLOWING.items()
      for command, extra in (("invariant", {"invariant": levels(0, -1.7e308)}), ("mane", {}))),
    # constant mode on place-dependent weights, and enumerate past MAX_ASSIGNMENTS, exit
    # nonzero and write neither file
    *(case(f"invariant-{kind.__name__}-{size}-{seed}-{json.dumps(c)}-{mode}", "invariant", {
        "system": kind(size, seed, c), "invariant": levels(0, -0.5) if mode == "enumerate" else CONSTANT})
      for kind, size in ((grid, 64), (grid, 513), (shift, 4), (shift, 6))
      for seed in (1, 2) for c in (False, True) for mode in ("enumerate", "constant")),
    # both maps draw weight 0: all 4,096 points are Aubry points, one column each
    case("invariant-all-aubry-shift-12", "invariant",
         {"system": shift(12, 7, True, symbols=2), "invariant": CONSTANT}, 0),
    # boundary mode: label keys and csv output on a shift, and a grid whose tol_aubry of 0.5
    # admits Aubry points off the zero-weight cycles, so its density fails the transfer check
    # ("passed": false) and the run still exits 0
    case("invariant-boundary-shift", "invariant", {"system": SHIFT6, "invariant": {"mode": "boundary",
         "boundary": {"anchor": "111111", "levels": {"111111": 0, "222222": -0.25}}}, **CSV},
         0, ("density_000.csv",)),
    case("invariant-boundary-grid", "invariant", {"system": grid(11, 0), "invariant": {
        "mode": "boundary", "tol_aubry": 0.5,
        "boundary": {"anchor": 1, "levels": {str(i): 0 for i in (1, 2, 4, 5, 6, 7, 8)}}}}, 0),
    # a loose tol_aubry: points that some near-zero cycle reaches, on no such cycle, are
    # candidates that the return-weight test must drop
    *(run for name, system in (("grid-3", grid(2048, 3)), ("grid-5", grid(2048, 5)), ("shift-7", shift(6, 7)))
      for run in (case(f"loose-mane-{name}", "mane", {"system": system, "mane": {"tol_aubry": 0.5}}, 0),
                  case(f"loose-invariant-{name}", "invariant",
                       {"system": system, "invariant": {"mode": "enumerate", "tol_aubry": 0.3}}))),
]


def execute(run: Run, trees: tuple, config: Path, outs: tuple) -> tuple:
    """The exit codes and stderr of ``run`` in both trees at once; a benchmark's sha256
    lines, if any, go to ``out``/sha256."""
    procs = []
    for tree, out in zip(trees, outs):
        argv = ["-m", "tropifs", run.command, "--config", str(config), "--out", str(out)]
        if run.command == "bench":
            argv = ["bench/run.py", "--seconds", "1", *(f"--{k}={v}" for k, v in run.config.items())]
        env = {**os.environ, "PYTHONPATH": f"{tree}/src"}
        procs.append(subprocess.Popen([sys.executable, *argv], cwd=tree, env=env, text=True,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    errs = []
    for proc, out in zip(procs, outs):
        stdout, stderr = proc.communicate()
        lines = [line for line in stdout.splitlines(True) if line.startswith("sha256 ")]
        if run.command == "bench" and lines:
            out.mkdir(parents=True)
            (out / "sha256").write_text("".join(lines))
        errs.append(stderr)
    return tuple(proc.returncode for proc in procs), errs


def compare(run: Run, codes: tuple, errs: tuple, base: Path, head: Path) -> tuple:
    """(files compared, mismatches) of ``run`` from the base and head exit codes, stderr
    and outputs."""
    problems = [] if codes[0] == codes[1] else [f"{run.name}: exit {codes[0]} at base, {codes[1]} at head"]
    if errs[0] != errs[1]:
        problems.append(f"{run.name}: stderr differs")
    if run.exit is not None and codes[1] != run.exit:
        problems.append(f"{run.name}: exit {codes[1]} at head, not {run.exit}")
    compared = 0
    for file in run.files:
        a, b = base / file, head / file
        if run.exit is not None and not b.exists():
            problems.append(f"{run.name}/{file}: not written at head")
        if a.exists() or b.exists():
            compared += 1
            if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
                problems.append(f"{run.name}/{file}: differs")
    return compared, problems


def check(runs: list, base: Path, head: Path) -> tuple:
    """(files compared, mismatches) over ``runs``.  A mismatching run prints the stderr of
    both sides, and its config and outputs stay in the temporary directory it names."""
    tmp, compared, problems = Path(tempfile.mkdtemp(prefix="byte_runs-")), 0, []
    for run in runs:
        config, outs = tmp / f"{run.name}.json", (tmp / "base" / run.name, tmp / "head" / run.name)
        config.write_text(json.dumps(run.config))
        codes, errs = execute(run, (base, head), config, outs)
        count, found = compare(run, codes, errs, *outs)
        for side, err in zip(("base", "head") if found else (), errs):
            print(f"{run.name} ({config}), stderr at {side}:\n{err}", end="")
        compared, problems = compared + count, problems + found
    if not problems:
        shutil.rmtree(tmp)
    return compared, problems


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        sys.exit("usage: python3 tests/byte_runs.py BASE_TREE [HEAD_TREE]")
    base, head = (Path(tree).resolve() for tree in [*argv, Path(__file__).parents[1]][:2])
    if base == head:  # the two benchmark runs would share one work directory
        sys.exit(f"{base} is both trees: compare another checkout, such as a git archive of the parent")
    compared, problems = check(RUNS, base, head)
    for problem in problems:
        print(problem)
    print(f"{len(RUNS)} runs, {compared} files compared, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
