import csv
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tropifs
import tropifs.cli as cli
from tropifs import mane
from tropifs.cli import main
from tropifs.examples import MAX_MAPS, build_two_point_system, lambda_alpha
from tropifs.fuzzy import theta_conjugate
from tropifs.invariant import MAX_ENUMERATE_VALUES
from tropifs.mane import MAX_CLOSURE_POINTS
from tropifs.spaces import MAX_POINTS

from byte_runs import OVERFLOWING, RUNS, TWO_POINT_DOC, inline
from oracles import system_to_jsonable


def run(tmp_path, command, config, out="out", seed=None):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), tmp_path / out


SHIFT4 = {"system": {"builder": "nonunique_shift", "depth": 4}}


def test_validate_shift(tmp_path):
    code, out = run(tmp_path, "validate", SHIFT4)
    assert code == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["valid"] and report["gamma_hat"] == 0.5
    assert report["lip_c_hat"] == 2.0


def test_validate_broken_normalization(tmp_path):
    system = build_two_point_system()
    doc = system_to_jsonable(system)
    doc["weights"] = [[-1.0, -1.0], [-1.0, -1.0]]
    code, out = run(tmp_path, "validate", {"system": {"inline": doc}})
    assert code == 2
    report = json.loads((out / "validation.json").read_text())
    assert not report["valid"]


def test_validate_all_bottom_weights(tmp_path):
    doc = system_to_jsonable(build_two_point_system())
    doc["weights"] = [[0.0, "-inf"], [0.0, "-inf"]]
    code, out = run(tmp_path, "validate", {"system": {"inline": doc}})
    assert code == 2
    report = json.loads((out / "validation.json").read_text())
    assert report == {"error": "some point has all weights at -inf", "valid": False}


def test_validate_retries_a_draw_on_a_grid_one_ulp_apart(tmp_path):
    # the first draw fails the contraction check, the second passes
    system = {"builder": "grid_random", "a": 1.0, "b": 1.0000000000000033, "n": 16,
              "num_maps": 2, "seed": 4}
    code, out = run(tmp_path, "validate", {"system": system})
    assert code == 0
    assert json.loads((out / "validation.json").read_text())["gamma_hat"] == 0.5714285714285714


def test_validate_reports_renormalization(tmp_path):
    doc = system_to_jsonable(build_two_point_system())
    doc["weights"] = [[-1e-13, -1e-13], [-1.0, -1.0]]
    code, out = run(tmp_path, "validate", {"system": {"inline": doc}})
    assert code == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["normalization_drift"] == 1e-13
    assert report["renormalized"] is True
    assert report["messages"] == ["weights re-normalized (drift 1e-13)"]


CONSTANT_GRID = {"builder": "grid_random", "a": 0, "b": 1, "n": 16, "num_maps": 2,
                 "seed": 3, "constant_weights": True}

# Blocks every scipy import in the process it runs in, then runs the CLI
# once per argv list given as JSON on the command line.
SCIPY_BLOCKED_PROBE = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(name + " is blocked")

sys.meta_path.insert(0, BlockScipy())
from tropifs.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, "scipy" in sys.modules, "concurrent.futures" in sys.modules]))
"""


def test_cli_commands_run_with_scipy_blocked(tmp_path):
    # no command needs scipy, and nothing the CLI runs pulls in
    # concurrent.futures
    configs = {
        "invariant-enumerate": ("invariant", {
            **SHIFT4, "invariant": {"mode": "enumerate", "levels": [0.0, -0.5]}}),
        "invariant-constant": ("invariant", {
            "system": CONSTANT_GRID, "invariant": {"mode": "constant"}}),
        "mane": ("mane", SHIFT4),
        "fuzzy": ("fuzzy", {"system": CONSTANT_GRID, "fuzzy": {"u0": "invariant"}}),
        "demo31": ("demo31", {"demo31": {"depth": 4}}),
    }
    argvs = []
    for name, (command, config) in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        argvs.append([command, "--config", str(path), "--out", str(tmp_path / name)])
    src = str(Path(tropifs.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_PROBE, json.dumps(argvs)],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(done.stdout) == [[0] * len(argvs), False, False]


@pytest.mark.parametrize("module, loaded", [
    ("tropifs", []),
    ("tropifs.spaces", ["tropifs.errors", "tropifs.spaces"]),
])
def test_an_import_loads_only_the_modules_it_needs(module, loaded):
    # every name imports from its module, so the package itself pulls in no module
    probe = ("import importlib, json, sys; importlib.import_module(sys.argv[1]); "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tropifs.'))))")
    done = subprocess.run(
        [sys.executable, "-c", probe, module],
        env={"PYTHONPATH": str(Path(tropifs.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(done.stdout) == loaded


@pytest.mark.skipif(sys.platform != "linux", reason="reads the thread count from /proc")
def test_the_cli_starts_one_blas_thread_unless_told_otherwise():
    probe = ("import os, tropifs.cli; status = open('/proc/self/status').read(); "
             "print(status.split('Threads:')[1].split()[0], os.environ['OPENBLAS_NUM_THREADS'])")

    def threads_and_setting(**env):
        return subprocess.run(
            [sys.executable, "-c", probe],
            env={"PYTHONPATH": str(Path(tropifs.__file__).resolve().parents[1]), **env},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        ).stdout.split()

    assert threads_and_setting() == ["1", "1"]
    assert threads_and_setting(OPENBLAS_NUM_THREADS="2")[1] == "2"  # the user's value wins


def test_missing_config_file(tmp_path):
    code = main(["validate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 3


def test_malformed_config(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", "--config", str(p), "--out", str(tmp_path)]) == 3
    p2 = tmp_path / "unknown.json"
    p2.write_text(json.dumps({"system": {"builder": "two_point"}, "bogus": 1}))
    assert main(["validate", "--config", str(p2), "--out", str(tmp_path)]) == 3
    p3 = tmp_path / "twosource.json"
    p3.write_text(json.dumps({"system": {"builder": "two_point", "inline": {}}}))
    assert main(["validate", "--config", str(p3), "--out", str(tmp_path)]) == 3
    p4 = tmp_path / "longint.json"  # more digits than Python parses into an int
    p4.write_text('{"system": {"builder": "nonunique_shift", "depth": ' + "9" * 5000 + "}}")
    assert main(["validate", "--config", str(p4), "--out", str(tmp_path)]) == 3
    doc = system_to_jsonable(build_two_point_system())
    doc["maps"] = [[0, 10**30], [1, 1]]  # overflows the index type
    p5 = tmp_path / "overflow.json"
    p5.write_text(json.dumps({"system": {"inline": doc}}))
    assert main(["validate", "--config", str(p5), "--out", str(tmp_path)]) == 3


def test_inline_non_metric_space_rejected(tmp_path):
    doc = system_to_jsonable(build_two_point_system())
    doc["space"]["dist"] = [[0.0, 1.0], [2.0, 0.0]]
    code, _ = run(tmp_path, "validate", {"system": {"inline": doc}})
    assert code == 3


def test_enumerate_over_the_assignment_limit(tmp_path, capsys):
    # eight constant maps with zero weight: every image point is Aubry
    m = 8
    doc = {
        "space": {"grid": {"a": 0.0, "b": 1.0, "n": m}},
        "index_space": {
            "labels": [str(j) for j in range(m)],
            "dist": (1.0 - np.eye(m)).tolist(),
        },
        "maps": [[j] * m for j in range(m)],
        "weights": [[0.0] * m for _ in range(m)],
    }
    levels = [0.0, -0.5, -1.0, -1.5, -2.0, -2.5]  # 6^7 = 279936 assignments
    code, _ = run(tmp_path, "invariant", {
        "system": {"inline": doc},
        "invariant": {"mode": "enumerate", "levels": levels},
    })
    assert code == 3
    err = capsys.readouterr().err
    assert "6^7 boundary assignments" in err and "8 Aubry points" in err


def test_enumerate_over_the_value_limit_exits_before_building(tmp_path, capsys, monkeypatch):
    # the prepend maps on the 9-symbol shift of depth 4 (6561 words), weight 0 when a map
    # prepends the word's own first symbol: the 9 constant words are the Aubry set, so
    # 4 levels give 4^8 = 65536 assignments, under MAX_ASSIGNMENTS, of 6561 values each
    symbols, depth = 9, 4
    words = np.arange(symbols**depth)
    maps = [(j * symbols ** (depth - 1) + words // symbols).tolist() for j in range(symbols)]
    weights = [np.where(words // symbols ** (depth - 1) == j, 0.0, -0.5).tolist() for j in range(symbols)]
    config = inline({"shift": {"symbols": symbols, "depth": depth}}, maps, weights, True)

    def build_invariant(*args):
        raise AssertionError("a density was built")

    monkeypatch.setattr("tropifs.invariant.build_invariant", build_invariant)
    code, out = run(tmp_path, "invariant", {**config, "invariant": {
        "mode": "enumerate", "levels": [0.0, -1 / 16, -1 / 8, -3 / 16]}})
    assert code == 3 and not (out / "density.json").exists()
    assert ("enumerate would build 65536 boundary assignments of 6561 points, 429981696 values, "
            f"more than the limit of {MAX_ENUMERATE_VALUES}") in capsys.readouterr().err


TWO_POINT = {"builder": "two_point"}
SHIFT3 = {"builder": "nonunique_shift", "depth": 3}
GRID8 = {"builder": "grid_random", "a": 0, "b": 1, "n": 8, "num_maps": 2}


@pytest.mark.parametrize("command, config, message", [
    ("validate", {"system": {**GRID8, "a": "x"}}, "a must be a number, got 'x'"),
    ("validate", {"system": {**GRID8, "a": 10**400}}, "a is out of range"),
    ("fuzzy", {"system": TWO_POINT, "fuzzy": {"max_iters": "x"}}, "max_iters must be an integer"),
    ("invariant", {"system": SHIFT3, "invariant": {"mode": "enumerate", "levels": ["a"]}},
     "max-plus value must be a number, got 'a'"),
    ("invariant", {"system": SHIFT3, "invariant": {
        "mode": "boundary", "boundary": {"anchor": "111", "levels": {"111": 0, "222": "x"}}}},
     "max-plus value must be a number, got 'x'"),
    ("demo31", {"demo31": {"depth": "x"}}, "depth must be an integer"),
    ("fuzzy", {"system": TWO_POINT, "fuzzy": {"u0": ["a", 1]}}, "u0 entry must be a number"),
    # read as bool("false"), this built a constant-weight system
    ("validate", {"system": {**GRID8, "constant_weights": "false"}},
     "constant_weights must be true or false"),
    # read as "no limit given"
    ("fuzzy", {"system": TWO_POINT, "fuzzy": {"max_iters": 0}}, "max_iters must be >= 1"),
    # read as the tolerance 1
    ("mane", {"system": TWO_POINT, "mane": {"tol_aubry": True}}, "tol_aubry must be a number"),
    # read as bool("false"): exact maps, so no snapping slack in the contraction check
    ("validate", {"system": {"inline": {**system_to_jsonable(build_two_point_system()),
                                        "exact_maps": "false"}}},
     "exact_maps must be true or false"),
    # read as int(2.5) = 2 points
    ("validate", {"system": {"inline": {**system_to_jsonable(build_two_point_system()),
                                        "space": {"grid": {"a": 0, "b": 1, "n": 2.5}}}}},
     "grid n must be an integer"),
    ("mane", {"system": TWO_POINT, "mane": 5}, "config block 'mane' must be an object"),
    # read as [[0, 0], [1, 1]]
    ("validate", {"system": {"inline": {**TWO_POINT_DOC, "maps": [[0.9, 0.2], [1.7, 1.0]]}}},
     "maps entries must each be an integer, got float"),
    ("validate", {"system": {"inline": {**TWO_POINT_DOC, "maps": [[0, True], [1, 1]]}}},
     "maps entries must each be an integer, got bool"),
    ("validate", {"system": {"inline": {**TWO_POINT_DOC, "maps": [0, 1]}}},
     "maps must be a list of lists"),
    # read as the distance 1
    ("validate", {"system": {"inline": {**TWO_POINT_DOC, "space": {
        **TWO_POINT_DOC["space"], "dist": [[0, "1"], ["1", 0]]}}}},
     "space dist entries must each be a number, got str"),
    ("validate", {"system": {"inline": {**TWO_POINT_DOC, "index_space": {
        **TWO_POINT_DOC["index_space"], "dist": [[0, True], [None, 0]]}}}},
     "index_space dist entries must each be a number, got NoneType, bool"),
    # written as the S.csv header ",,['a']"
    ("mane", {"system": {"inline": {**TWO_POINT_DOC, "space": {
        **TWO_POINT_DOC["space"], "labels": [None, ["a"]]}}}},
     "space labels must be a list of strings, got [None, ['a']]"),
    ("validate", {"system": {"inline": {**TWO_POINT_DOC, "index_space": {
        **TWO_POINT_DOC["index_space"], "labels": "12"}}}},
     "index_space labels must be a list of strings, got '12'"),
    ("invariant", {"system": SHIFT3, "invariant": {
        "mode": "boundary", "boundary": {"anchor": "zz", "levels": {"111": 0}}}},
     "unknown boundary point 'zz'"),
    ("invariant", {"system": SHIFT3, "invariant": {"mode": "enumerate", "levels": 0.5}},
     "levels must be a list, got 0.5"),
    ("demo31", {"demo31": {"depth": 4, "alphas": 0.5}}, "alphas must be a list, got 0.5"),
    ("invariant", {"system": SHIFT3, "invariant": {"mode": "bogus"}},
     "unknown invariant mode 'bogus'"),
    ("fuzzy", {"system": TWO_POINT, "fuzzy": {"u0": "flat"}},
     "u0 must be 'uniform', 'invariant' or a list, got 'flat'"),
    ("fuzzy", {"system": TWO_POINT, "fuzzy": {"u0": [1.0]}},
     "membership length must match the space size"),
    ("validate", [1, 2], "config must be a JSON object"),
    ("validate", {"system": {"builder": "bogus"}}, "unknown system builder 'bogus'"),
    ("validate", {"system": {"builder": "grid_random", "a": 0, "b": 1, "n": 8}},
     "builder 'grid_random' missing parameter 'num_maps'"),
    ("validate", {"system": {**GRID8, "num_maps": 0}}, "need at least one map"),
    ("validate", {"system": {"inline": {**TWO_POINT_DOC, "space": {
        **TWO_POINT_DOC["space"], "dist": [[0.5, 1], [1, 0]]}}}},
     "diagonal distances must be zero"),
    ("validate", {"system": {"inline": {**TWO_POINT_DOC, "space": {
        **TWO_POINT_DOC["space"], "labels": ["a", "b", "c"]}}}},
     "labels and distance table disagree in size"),
], ids=["grid-a", "grid-a-huge", "max_iters-str", "levels", "boundary-level", "demo31-depth", "u0",
        "constant_weights-str", "max_iters-0", "tol_aubry-bool", "inline-exact_maps",
        "inline-grid-n", "block", "inline-maps-float", "inline-maps-bool", "inline-maps-flat",
        "inline-space-dist-str", "inline-index-dist", "inline-space-labels",
        "inline-index-labels", "boundary-anchor", "levels-scalar", "demo31-alphas-scalar",
        "invariant-mode", "u0-str", "u0-length", "config-list", "builder", "builder-param",
        "num_maps-0", "inline-diagonal", "inline-labels-size"])
def test_wrongly_typed_config_value_is_a_config_error(tmp_path, capsys, command, config, message):
    code, _ = run(tmp_path, command, config)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("tropifs: config error: ") and err.count("\n") == 1
    assert message in err


def _weights(row):
    return {"system": {"inline": {**TWO_POINT_DOC, "weights": [row, [0.0, 0.0]]}}}


def _u0(u0):
    return {"system": TWO_POINT, "fuzzy": {"u0": u0}}


# The first bad entry of a list names the error, read in one pass or not.
@pytest.mark.parametrize("command, config, message", [
    ("validate", _weights([0.0, "x"]), "a max-plus value must be a number, got 'x'"),
    ("validate", _weights([0, 10**400]), "a max-plus value is out of range"),
    ("validate", _weights([-(10**400), 0.0]), "a max-plus value is out of range"),
    ("validate", _weights(["-inf", float("nan")]), "not a max-plus value: nan"),
    ("validate", _weights([0.0, float("inf")]), "not a max-plus value: inf"),
    ("validate", _weights([True, 0.0]), "a max-plus value must be a number, got True"),
    ("validate", _weights([float("nan"), "x"]), "not a max-plus value: nan"),
    ("validate", _weights(["x", float("nan")]), "a max-plus value must be a number, got 'x'"),
    ("validate", _weights(["-Infinity", 0.0]),
     "a max-plus value must be a number, got '-Infinity'"),
    ("fuzzy", _u0([1.0, "x"]), "u0 entry must be a number, got 'x'"),
    ("fuzzy", _u0([10**400, 1.0]), "u0 entry is out of range"),
    ("fuzzy", _u0([1, False]), "u0 entry must be a number, got False"),
], ids=["str", "huge", "huge-negative", "nan", "inf", "bool", "nan-first", "str-first",
        "inf-spelled", "u0-str", "u0-huge", "u0-bool"])
def test_inline_number_lists_keep_their_messages(tmp_path, capsys, command, config, message):
    code, _ = run(tmp_path, command, config)
    assert code == 3
    assert capsys.readouterr().err == f"tropifs: config error: {message}\n"


def test_inline_weights_take_ints_and_the_bottom_token(tmp_path):
    code, out = run(tmp_path, "validate", _weights([0, "-inf"]))
    assert code == 0
    assert json.loads((out / "validation.json").read_text())["valid"]


def _three_point_table(resolution):
    """An explicit three-point line with one snapped map that doubles the
    distance of the first two points: gamma_hat is 2 at resolution 0."""
    return {"system": {"inline": {
        "space": {"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                  "resolution": resolution},
        "index_space": {"labels": ["1"], "dist": [[0]]},
        "maps": [[0, 2, 0]],
        "weights": [[0.0, 0.0, 0.0]],
    }}}


def test_resolution_zero_keeps_the_contraction_check(tmp_path):
    code, out = run(tmp_path, "validate", _three_point_table(0.0))
    assert code == 2
    assert "gamma_hat = 2.0 >= 1" in json.loads((out / "validation.json").read_text())["error"]


@pytest.mark.parametrize("resolution", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_resolution_is_a_config_error(tmp_path, capsys, resolution):
    # a NaN slack made every quotient NaN, and gamma_hat 0
    code, out = run(tmp_path, "validate", _three_point_table(resolution))
    assert code == 3
    assert (capsys.readouterr().err
            == f"tropifs: config error: resolution must be a finite number >= 0, got {resolution!r}\n")
    assert not (out / "validation.json").exists()


@pytest.mark.parametrize("command, key", [
    ("mane", "tol_aubry"), ("invariant", "tol"), ("invariant", "tol_aubry"), ("fuzzy", "tol"),
])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0])
def test_tolerances_must_be_finite_and_positive(tmp_path, capsys, command, key, value):
    # Infinity was written into verify.json and aubry.json, and made both
    # two-point states Aubry
    code, out = run(tmp_path, command, {"system": TWO_POINT, command: {key: value}})
    assert code == 3
    assert (capsys.readouterr().err
            == f"tropifs: config error: tolerance {key} must be finite and > 0, got {value!r}\n")
    assert not out.exists()


def _steep_grid(dj, weights):
    """Two constant maps on the two-point grid [0, 1e-10], ``dj`` apart."""
    return {"system": {"inline": {
        "space": {"grid": {"a": 0, "b": 1e-10, "n": 2}},
        "index_space": {"labels": ["1", "2"], "dist": [[0, dj], [dj, 0]]},
        "maps": [[0, 0], [1, 1]],
        "weights": weights,
        "exact_maps": True,
    }}}


def _validate_in_a_process(tmp_path, config):
    """``tropifs validate`` in a fresh interpreter, so numpy's warnings reach its stderr."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return subprocess.run(
        [sys.executable, "-m", "tropifs", "validate", "--config", str(path),
         "--out", str(tmp_path / "out")],
        env={"PYTHONPATH": str(Path(tropifs.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_an_overflowing_lipschitz_estimate_is_a_config_error(tmp_path):
    # 1e300 over 1e-10 is past the float range: lip_c_hat was written as
    # Infinity, which is not JSON, after two numpy warnings
    done = _validate_in_a_process(tmp_path, _steep_grid(1, [[0, -1e300], [-1e300, 0]]))
    assert done.returncode == 3
    assert done.stderr.startswith("tropifs: config error: weight Lipschitz estimate lip_c_hat")
    assert done.stderr.count("\n") == 1
    assert not (tmp_path / "out" / "validation.json").exists()


def test_an_overflowing_contraction_estimate_warns_nothing(tmp_path):
    # 1e-10 over 5e-324 is past the float range
    done = _validate_in_a_process(tmp_path, _steep_grid(5e-324, [[0, 0], [0, 0]]))
    assert done.returncode == 2
    assert done.stderr == ""
    report = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert report == {"valid": False, "error": "contraction estimate gamma_hat = inf >= 1"}


@pytest.mark.parametrize("a, message", [
    # 2.5 * 1e308 overflowed, and the index table was 0 * inf = nan
    (0, "index spacing 2.5 * diameter overflows the float range (diameter 1e+308)"),
    # b - a overflowed inside linspace, whose points came out as nan
    (-1e308, "grid span b - a overflows the float range (a = -1e+308, b = 1e+308)"),
], ids=["index-spacing", "grid-span"])
def test_a_huge_grid_span_is_one_config_error(tmp_path, a, message):
    system = {"builder": "grid_random", "a": a, "b": 1e308, "n": 64, "num_maps": 2, "seed": 1}
    done = _validate_in_a_process(tmp_path, {"system": system})
    assert done.returncode == 3
    assert done.stderr == f"tropifs: config error: {message}\n"


def test_a_huge_grid_search_warns_nothing(tmp_path):
    # the search's bound times 1e308 overflowed to inf - inf = nan; the row
    # blocks decide, as before
    done = _validate_in_a_process(tmp_path, {"system": {"inline": {
        "space": {"grid": {"a": 0, "b": 1e308, "n": 8}},
        "index_space": {"labels": ["1", "2"], "dist": [[0, 1], [1, 0]]},
        "maps": [[0, 0, 1, 1, 2, 2, 3, 3], [4, 4, 5, 5, 6, 6, 7, 7]],
        "weights": [[0.0] * 8, [-1.0] * 8],
        "exact_maps": True,
    }}})
    assert done.returncode == 2
    assert done.stderr == ""
    report = json.loads((tmp_path / "out" / "validation.json").read_text())
    error = "contraction estimate gamma_hat = 5.714285714285714e+307 >= 1"
    assert report == {"valid": False, "error": error}


def test_an_overflowing_triangle_sum_warns_nothing(tmp_path):
    # 1e308 + 1e308 overflowed in the triangle check of the space's table
    far = [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]
    done = _validate_in_a_process(tmp_path, {"system": {"inline": {
        "space": {"labels": ["a", "b", "c"], "dist": far},
        "index_space": {"labels": ["1", "2"], "dist": [[0, 1], [1, 0]]},
        "maps": [[0, 0, 0], [1, 1, 1]],
        "weights": [[0, 0, 0], [-1, -1, -1]],
        "exact_maps": True,
    }}})
    assert done.returncode == 2
    assert done.stderr == ""
    report = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert report == {"valid": False, "error": "contraction estimate gamma_hat = 1e+308 >= 1"}


@pytest.mark.parametrize("command", ["invariant", "mane"])
@pytest.mark.parametrize("name", OVERFLOWING)
def test_an_overflowing_path_sum_warns_nothing(tmp_path, capsys, name, command):
    # -1.7e308 + -1.7e308 overflowed in the value iteration, the closure sweeps, the
    # return weights, the density build and the transfer step: the sum is BOTTOM
    levels = {"mode": "enumerate", "levels": [0, -1.7e308]}
    code, out = run(tmp_path, command, {"system": {"inline": OVERFLOWING[name]}, "invariant": levels})
    assert code == 0
    assert capsys.readouterr().err == ""
    if command == "invariant":
        assert all(row["passed"] for row in json.loads((out / "verify.json").read_text()))


@pytest.mark.parametrize("depth, code, stderr", [
    (1074, 0, ""),
    # (1/2)^1075 is 0.0: validate divided 0 by 0 twice, with two numpy
    # warnings, and exited 0 only because max(0.0, nan) is 0.0
    (1075, 3, "tropifs: config error: shift depth 1075 underflows: "
              "the cylinder distance (1/2)^1075 is 0 as a float\n"),
], ids=["smallest-level", "underflow"])
def test_a_shift_whose_cylinder_distance_underflows_is_one_config_error(tmp_path, depth, code,
                                                                         stderr):
    system = {"builder": "shift_random", "symbols": 1, "depth": depth, "seed": 1}
    done = _validate_in_a_process(tmp_path, {"system": system})
    assert (done.returncode, done.stderr) == (code, stderr)


@pytest.mark.parametrize("system, count", [
    # the index table alone was 74.5 GiB
    ({**GRID8, "num_maps": 100000}, 100000),
    ({"builder": "shift_random", "symbols": 16384, "depth": 1}, 16384),
], ids=["grid_random", "shift_random"])
def test_too_many_maps_is_one_config_error(tmp_path, system, count):
    done = _validate_in_a_process(tmp_path, {"system": system})
    assert done.returncode == 3
    assert done.stderr == f"tropifs: config error: {count} maps is more than the limit of {MAX_MAPS}\n"
    assert not (tmp_path / "out" / "validation.json").exists()


@pytest.mark.parametrize("command, config, count", [
    ("validate", {"system": {"builder": "shift_random", "symbols": 2, "depth": 30}}, "2^30"),
    ("validate", {"system": {"builder": "nonunique_shift", "depth": 30}}, "2^30"),
    ("demo31", {"demo31": {"depth": 30}}, "2^30"),
    ("validate", {"system": {**GRID8, "n": MAX_POINTS + 1}}, f"grid of {MAX_POINTS + 1}"),
], ids=["shift_random", "nonunique_shift", "demo31", "grid_random"])
def test_oversized_space_exits_before_allocating(tmp_path, capsys, command, config, count):
    start = time.perf_counter()
    code, _ = run(tmp_path, command, config)
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert f"{count} points is larger than the limit of {MAX_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize("system", [
    # 3^7 = 2187 points; constant weights may make every point Aubry
    {"builder": "shift_random", "symbols": 3, "depth": 7, "seed": 1, "constant_weights": True},
    {"builder": "grid_random", "a": 0, "b": 1, "n": MAX_CLOSURE_POINTS + 1, "num_maps": 2},
], ids=["shift_random", "grid_random"])
def test_mane_over_the_closure_limit_exits_before_the_closure(tmp_path, capsys, system):
    start = time.perf_counter()
    code, out = run(tmp_path, "mane", {"system": system})
    assert code == 3
    assert time.perf_counter() - start < 2.0
    n = 3**7 if system["builder"] == "shift_random" else MAX_CLOSURE_POINTS + 1
    assert (f"n = {n} points is larger than the limit of {MAX_CLOSURE_POINTS}"
            in capsys.readouterr().err)
    assert not (out / "S.csv").exists()


def test_all_aubry_columns_over_the_limit_exit_before_the_block(tmp_path, capsys, monkeypatch):
    # both maps draw weight 0, so all 2^14 points are candidates: the block of their
    # columns would take 2 GiB, and the value iteration must not start
    def refuse(*args):
        raise AssertionError("the block of columns was built")

    monkeypatch.setattr(mane, "_plus_columns", refuse)
    system = {"builder": "shift_random", "symbols": 2, "depth": 14, "seed": 7, "constant_weights": True}
    code, out = run(tmp_path, "invariant", {"system": system, "invariant": {"mode": "constant"}})
    assert code == 3
    assert capsys.readouterr().err == (
        "tropifs: config error: the Aubry columns of 16384 points at 16384 candidates are "
        "268435456 values, more than the limit of 67108864\n")
    assert not (out / "density.json").exists()


def test_mane_two_point(tmp_path):
    code, out = run(tmp_path, "mane", {"system": {"builder": "two_point"}})
    assert code == 0
    aubry = json.loads((out / "aubry.json").read_text())
    assert aubry["labels"] == ["p0"]
    rows = list(csv.reader((out / "S.csv").read_text().splitlines()))
    assert rows[0] == ["", "p0", "p1"]
    assert rows[1] == ["p0", "0.0", "0.0"]
    assert rows[2] == ["p1", "-1.0", "-1.0"]


def test_mane_writes_a_nul_label_raw(tmp_path):
    # csv.writer cannot write this label below Python 3.11; the CSV writers spell it raw
    doc = {**TWO_POINT_DOC, "space": {**TWO_POINT_DOC["space"], "labels": ["p\0", "p1"]}}
    code, out = run(tmp_path, "mane", {"system": {"inline": doc}})
    assert code == 0
    with open(out / "S.csv", newline="") as fh:
        assert fh.read() == ",p\0,p1\r\np\0,0.0,0.0\r\np1,-1.0,-1.0\r\n"


def test_non_ascii_labels_are_utf_8_in_an_ascii_locale(tmp_path):
    # the C locale without coercion or UTF-8 mode reads and writes ASCII by default; the
    # config here is raw UTF-8, and each file must equal the bytes of a default-locale run
    src = str(Path(tropifs.__file__).resolve().parents[1])
    for entry in (entry for entry in RUNS if entry.name.startswith("non-ascii-labels-")):
        code, expected = run(tmp_path, entry.command, entry.config, out=f"{entry.name}-default")
        config = tmp_path / f"{entry.name}.json"
        config.write_bytes(json.dumps(entry.config, ensure_ascii=False).encode("utf-8"))
        done = subprocess.run(
            [sys.executable, "-m", "tropifs", entry.command, "--config", str(config),
             "--out", str(tmp_path / entry.name)],
            env={"PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (code, done.returncode, done.stderr) == (0, 0, ""), entry.name
        assert "p\u00e9,".encode("utf-8") in (expected / entry.files[0]).read_bytes()
        for file in entry.files:
            assert (tmp_path / entry.name / file).read_bytes() == (expected / file).read_bytes()


def test_mane_shift_aubry(tmp_path):
    code, out = run(tmp_path, "mane", {"system": {"builder": "nonunique_shift", "depth": 3}})
    assert code == 0
    aubry = json.loads((out / "aubry.json").read_text())
    assert set(aubry["labels"]) == {"111", "222"}


def test_mane_csv_has_bottom_token(tmp_path):
    cfg = {"system": {"builder": "grid_random", "a": 0, "b": 1, "n": 6, "num_maps": 1, "seed": 2}}
    code, out = run(tmp_path, "mane", cfg)
    assert code == 0
    text = (out / "S.csv").read_text()
    assert "-inf" in text


def test_invariant_constant_mode(tmp_path):
    code, out = run(tmp_path, "invariant", {
        "system": {"builder": "two_point"},
        "invariant": {"mode": "constant"},
    })
    assert code == 0
    densities = json.loads((out / "density.json").read_text())
    assert densities[0]["values"] == [0.0, -1.0]
    verify = json.loads((out / "verify.json").read_text())
    assert verify[0]["passed"]


def test_invariant_constant_mode_rejects_place_dependent(tmp_path):
    code, _ = run(tmp_path, "invariant", {
        "system": {"builder": "nonunique_shift", "depth": 3},
        "invariant": {"mode": "constant"},
    })
    assert code == 2


def _three_free_maps(constant_point):
    """Constant-mode config: a snapped 129-point grid with three zero-weight maps.

    One map is constant onto ``constant_point``, the other two are the
    snapped x -> 0.875 - 0.625 x and x -> 1 - 0.625 x; gamma_hat is 0.625.
    """
    x = np.linspace(0.0, 1.0, 129)
    maps = [[constant_point] * 129] + [
        np.rint((c - 0.625 * x) * 128).astype(int).tolist() for c in (0.875, 1.0)
    ]
    return {**inline({"grid": {"a": 0.0, "b": 1.0, "n": 129}}, maps, [0.0] * 3, False),
            "invariant": {"mode": "constant"}}


def test_invariant_constant_mode_on_three_zero_weight_snapped_maps(tmp_path, capsys):
    # three free maps on a snapped grid: no table of zero-weight words is built
    code, out = run(tmp_path, "invariant", _three_free_maps(96))
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "verify.json").read_text())[0]["passed"]


def test_invariant_constant_mode_with_several_closed_classes(tmp_path, capsys):
    # 45 Aubry points whose columns of S differ: several invariant
    # densities, a property of the snapped input and not a bug
    code, out = run(tmp_path, "invariant", _three_free_maps(64))
    assert code == 2
    err = capsys.readouterr().err
    assert "several closed classes" in err and "'enumerate' or 'boundary'" in err
    assert not (out / "density.json").exists()
    code, out = run(tmp_path, "mane", _three_free_maps(64), out="mane")
    assert code == 0
    assert len(json.loads((out / "aubry.json").read_text())["indices"]) == 45


def test_invariant_enumerate(tmp_path):
    code, out = run(tmp_path, "invariant", {
        "system": {"builder": "nonunique_shift", "depth": 4},
        "invariant": {"mode": "enumerate", "levels": [0.0, -0.5]},
    })
    assert code == 0
    densities = json.loads((out / "density.json").read_text())
    assert len(densities) == 2
    verify = json.loads((out / "verify.json").read_text())
    assert all(v["passed"] for v in verify)
    expected = lambda_alpha(4, 0.5).values
    got = [
        [float("-inf") if v == "-inf" else v for v in d["values"]] for d in densities
    ]
    assert any(np.array_equal(np.array(g), expected) for g in got)


def test_invariant_boundary_mode_with_labels(tmp_path):
    code, out = run(tmp_path, "invariant", {
        "system": {"builder": "nonunique_shift", "depth": 3},
        "invariant": {
            "mode": "boundary",
            "boundary": {"anchor": "111", "levels": {"111": 0.0, "222": -0.25}},
        },
    })
    assert code == 0
    densities = json.loads((out / "density.json").read_text())
    assert np.array_equal(np.array(densities[0]["values"]), lambda_alpha(3, 0.25).values)


def test_shift_labels_above_nine_symbols_are_distinct(tmp_path):
    # joined without a separator, the words (1, 11) and (11, 1) both read "111"
    code, out = run(tmp_path, "mane", {"system": {
        "builder": "shift_random", "symbols": 11, "depth": 2, "seed": 1}})
    assert code == 0
    header = next(csv.reader((out / "S.csv").read_text().splitlines()))[1:]
    assert len(set(header)) == len(header) == 121
    assert header[:2] == ["1.1", "1.2"] and header[10] == "1.11" and header[110] == "11.1"
    aubry = json.loads((out / "aubry.json").read_text())
    assert aubry["labels"] == ["2.8", "4.4", "5.5", "8.11", "11.2"]


def test_a_boundary_label_naming_two_points_is_a_config_error(tmp_path, capsys):
    inline = {**TWO_POINT_DOC, "space": {**TWO_POINT_DOC["space"], "labels": ["p", "p"]}}
    code, out = run(tmp_path, "invariant", {"system": {"inline": inline}, "invariant": {
        "mode": "boundary", "boundary": {"anchor": 0, "levels": {"p": 0}}}})
    assert code == 3
    assert capsys.readouterr().err == (
        "tropifs: config error: boundary point 'p' names more than one point\n")
    assert not (out / "density.json").exists()


@pytest.mark.parametrize("levels, key", [
    ({"222": -0.25, "7": -0.5, "111": 0}, "7"),  # index 7 is the word 222
    ({"7": -0.5, "222": -0.25, "111": 0}, "222"),
])
def test_two_boundary_keys_naming_one_point_are_a_config_error(tmp_path, capsys, levels, key):
    code, out = run(tmp_path, "invariant", {"system": SHIFT3, "invariant": {
        "mode": "boundary", "boundary": {"anchor": "111", "levels": levels}}})
    assert code == 3
    assert capsys.readouterr().err == (
        f"tropifs: config error: boundary key {key!r} names point 7, "
        "which an earlier key names too\n")
    assert not (out / "density.json").exists()


@pytest.mark.parametrize("key", ["1_5", "015", " 15", "15 ", "+15"])
def test_a_boundary_index_must_be_a_plain_decimal_numeral(tmp_path, capsys, key):
    code, out = run(tmp_path, "invariant", {
        "system": {"builder": "nonunique_shift", "depth": 4}, "invariant": {
            "mode": "boundary", "boundary": {"anchor": "1111", "levels": {"1111": 0, key: -0.5}}}})
    assert code == 3
    assert capsys.readouterr().err == f"tropifs: config error: unknown boundary point {key!r}\n"
    assert not (out / "density.json").exists()


@pytest.mark.parametrize("invariant, message", [
    ({"mode": "bogus"}, "unknown invariant mode 'bogus'"),
    ({"mode": "enumerate", "levels": 0.5}, "levels must be a list, got 0.5"),
    ({"mode": "boundary", "boundary": {"anchor": "zz", "levels": {"111": 0}}},
     "unknown boundary point 'zz'"),
    ({"mode": "boundary", "boundary": {"anchor": "111", "levels": {"111": 0, "222": 0.5}}},
     "boundary level at 7 must lie in [-inf, 0]"),
], ids=["mode", "levels", "anchor", "level"])
def test_the_invariant_block_is_read_before_the_closure(tmp_path, capsys, monkeypatch, invariant, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(cli, "mane_potential", refuse)
    code, out = run(tmp_path, "invariant", {"system": SHIFT3, "invariant": invariant})
    assert code == 3
    assert capsys.readouterr().err == f"tropifs: config error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


GRID11 = {"builder": "grid_random", "a": 0, "b": 1, "n": 11, "num_maps": 3, "seed": 0}


def test_invariant_modes_report_a_failed_check_alike(tmp_path, capsys):
    # tol_aubry 0.5 admits Aubry points off the zero-weight cycles, so the
    # density of one assignment is no fixed point: every mode writes it with
    # "passed": false and exits 0, enumerate included
    config = {"system": GRID11, "invariant": {"mode": "enumerate", "levels": [0], "tol_aubry": 0.5}}
    code, enum = run(tmp_path, "invariant", config, out="enumerate")
    assert code == 0, capsys.readouterr().err
    code, mane = run(tmp_path, "mane", {"system": GRID11, "mane": {"tol_aubry": 0.5}}, out="mane")
    aubry = json.loads((mane / "aubry.json").read_text())["indices"]
    assert code == 0 and aubry == [1, 2, 4, 5, 6, 7, 8]
    code, bound = run(tmp_path, "invariant", {"system": GRID11, "invariant": {
        "mode": "boundary", "tol_aubry": 0.5,
        "boundary": {"anchor": 1, "levels": {str(z): 0 for z in aubry}}}}, out="boundary")
    assert code == 0
    for name in ("density.json", "verify.json"):
        assert (enum / name).read_bytes() == (bound / name).read_bytes()
    assert json.loads((enum / "verify.json").read_text()) == [
        {"max_deviation": 0.19523879162313096, "passed": False, "tol": 1e-09}]


@pytest.mark.parametrize("system, low", [
    # exact maps: 23 Aubry points, which a bug used to be blamed for
    ({"builder": "shift_random", "symbols": 3, "depth": 3, "seed": 1}, -0.3418092429637909),
    # snapped maps: 5 Aubry points, which the snapped maps used to be blamed for
    ({**GRID8, "n": 64, "num_maps": 3, "seed": 1}, -0.34768733382225037),
], ids=["exact", "snapped"])
def test_invariant_constant_mode_with_a_loose_tol_aubry(tmp_path, capsys, system, low):
    # at tol_aubry 0.5 the Aubry set includes return weights S[z, z] below
    # 0, whose columns of S may differ; at the default there is one point
    config = {"system": {**system, "constant_weights": True}, "invariant": {"mode": "constant"}}
    code, out = run(tmp_path, "invariant", config)
    assert code == 0, capsys.readouterr().err
    config["invariant"]["tol_aubry"] = 0.5
    code, out = run(tmp_path, "invariant", config, out="loose")
    assert code == 2
    err = capsys.readouterr().err
    assert f"tol_aubry 0.5 admits Aubry return weights S[z, z] down to {low!r}:" in err
    assert not (out / "density.json").exists()


def test_invariant_constant_mode_admits_columns_within_the_tolerance(tmp_path, capsys, monkeypatch):
    # a snapped grid: the Aubry points are 0, 1 and 3, and the columns of 0 and 3 differ by
    # 2^-32 at point 0, less than AUBRY_COLUMN_TOL, so there is one invariant density
    config = inline({"grid": {"a": 0.0, "b": 1.0, "n": 6}},
                    [[3] * 6, [0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1]], [0.0, -0.5, -2.0**-32], False)
    config["system"]["inline"]["index_space"]["dist"] = (5.0 - 5.0 * np.eye(3)).tolist()
    config["invariant"] = {"mode": "constant"}
    code, out = run(tmp_path, "invariant", config)
    assert code == 0, capsys.readouterr().err
    (density,) = json.loads((out / "density.json").read_text())
    assert density["values"] == [-2.0**-32, -2.0**-32, "-inf", 0.0, "-inf", "-inf"]
    monkeypatch.setattr("tropifs.invariant.AUBRY_COLUMN_TOL", 0.0)
    code, out = run(tmp_path, "invariant", config, out="exact")
    assert code == 2
    assert "Aubry points 0 and 3 have different columns" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    # read as the default levels [0]: 1 density instead of 3
    ("invariant", {**SHIFT4, "invariant": {"mode": "enumerate", "level": [0, -0.25, -0.5]}},
     "unknown keys in config block 'invariant': ['level']"),
    ("validate", {"system": {**GRID8, "constant_weight": True}},
     "unknown keys in system builder 'grid_random': ['constant_weight']"),
    ("fuzzy", {"system": TWO_POINT, "fuzzy": {"max_iter": 1}},
     "unknown keys in config block 'fuzzy': ['max_iter']"),
    ("mane", {"system": TWO_POINT, "mane": {"tol": 0.5}},
     "unknown keys in config block 'mane': ['tol']"),
    ("demo31", {"demo31": {"alpha": [0.5]}}, "unknown keys in config block 'demo31': ['alpha']"),
    ("invariant", {"system": TWO_POINT, "output": {"CSV": True}},
     "unknown keys in config block 'output': ['CSV']"),
    ("validate", {"system": {**TWO_POINT, "depth": 3}},
     "unknown keys in system builder 'two_point': ['depth']"),
    ("validate", {"system": {**SHIFT3, "seed": 1}},
     "unknown keys in system builder 'nonunique_shift': ['seed']"),
    ("validate", {"system": {"builder": "shift_random", "symbols": 2, "depth": 2, "n": 4}},
     "unknown keys in system builder 'shift_random': ['n']"),
    ("validate", {"system": {"inline": TWO_POINT_DOC, "seed": 1}},
     "unknown keys in system block: ['seed']"),
    ("invariant", {"system": SHIFT3, "invariant": {"mode": "boundary", "boundary": {
        "anchor": "111", "levels": {"111": 0}, "level": {"222": -0.5}}}},
     "boundary mode needs exactly {'anchor': ..., 'levels': {...}}"),
], ids=["invariant", "builder-grid", "fuzzy", "mane", "demo31", "output", "builder-two-point",
        "builder-shift", "builder-shift-random", "inline", "boundary"])
def test_an_unknown_key_is_a_config_error(tmp_path, capsys, command, config, message):
    code, out = run(tmp_path, command, config)
    assert code == 3
    assert message in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_fuzzy_two_point(tmp_path):
    code, out = run(tmp_path, "fuzzy", {"system": {"builder": "two_point"}})
    assert code == 0
    rows = list(csv.reader((out / "attractor.csv").read_text().splitlines()))
    assert rows[1][0] == "p0" and float(rows[1][1]) == 1.0
    assert abs(float(rows[2][1]) - np.exp(-1.0)) < 1e-15
    trace = list(csv.reader((out / "trace.csv").read_text().splitlines()))[1:]
    vals = [float(r[1]) for r in trace]
    ratios = [b / a for a, b in zip(vals, vals[1:]) if a > 0 and b > 0]
    assert all(r <= 0.5 + 1e-12 for r in ratios)


def test_fuzzy_from_fixed_family_member(tmp_path):
    u0 = theta_conjugate(lambda_alpha(4, 0.25))
    code, out = run(tmp_path, "fuzzy", {
        "system": {"builder": "nonunique_shift", "depth": 4},
        "fuzzy": {"u0": [float(x) for x in u0.values]},
    })
    assert code == 0
    rows = list(csv.reader((out / "attractor.csv").read_text().splitlines()))[1:]
    got = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(got - u0.values)) <= 1e-15
    trace = list(csv.reader((out / "trace.csv").read_text().splitlines()))[1:]
    assert len(trace) <= 2


def test_fuzzy_attractor_is_exp_of_the_constant_density(tmp_path):
    # the fuzzy attractor of a constant-weight system is exp(lam) for its
    # unique invariant density lam: the potential route and the fuzzy
    # iteration from the all-ones set meet
    system = {"builder": "grid_random", "a": 0, "b": 1, "n": 120,
              "num_maps": 3, "seed": 7, "constant_weights": True}
    code, inv = run(tmp_path, "invariant", {
        "system": system, "invariant": {"mode": "constant"},
    }, out="invariant")
    assert code == 0
    code, fuz = run(tmp_path, "fuzzy", {
        "system": system, "fuzzy": {"u0": "uniform"},
    }, out="fuzzy")
    assert code == 0
    (density,) = json.loads((inv / "density.json").read_text())
    lam = np.array([float(v) for v in density["values"]])
    rows = list(csv.reader((fuz / "attractor.csv").read_text().splitlines()))[1:]
    assert [r[0] for r in rows] == density["labels"]
    attractor = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(attractor - np.exp(lam))) <= 1e-9


def test_fuzzy_nonconvergence_still_writes_trace(tmp_path):
    code, out = run(tmp_path, "fuzzy", {
        "system": {"builder": "two_point"},
        "fuzzy": {"tol": 1e-300, "max_iters": 1, "u0": [1.0, 0.25]},
    })
    assert code == 2
    assert (out / "trace.csv").exists() and (out / "attractor.csv").exists()


def test_demo31(tmp_path):
    code, out = run(tmp_path, "demo31", {
        "system": {"builder": "nonunique_shift", "depth": 5},
        "demo31": {"depth": 5, "alphas": [0.0, 0.25]},
    })
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fixed_point_exact"] == [True, True]
    assert report["num_distinct"] == 2
    densities = json.loads((out / "density.json").read_text())
    assert len(densities) == 2


def test_demo31_snaps_a_non_dyadic_alpha(tmp_path):
    # unsnapped, -1 + (-changes - alpha) rounds differently from the stored
    # -changes - alpha and the fixed-point check fails
    alpha = 0.562231842228457
    code, out = run(tmp_path, "demo31", {"demo31": {"depth": 5, "alphas": [alpha]}})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    snapped = round(alpha * 2**26) / 2**26
    assert report["alphas"] == [snapped] and snapped != alpha
    assert report["fixed_point_exact"] == [True]


@pytest.mark.parametrize("alphas, message", [
    # snapped first, -1e-12 became -0.0 and passed
    ([-1e-12], "alphas must lie in [0, 1), got -1e-12"),
    # inside [0, 1) as given, but 1.0 on the lattice
    ([0.9999999999], "alpha 0.9999999999 snaps to 1.0 on the 2^-26 lattice, not below 1"),
    ([0.1, 0.100000000001], "alphas 0.1 and 0.100000000001 both snap to 0.09999999403953552 "
                            "on the 2^-26 lattice; alphas must be distinct"),
    # every pair of alphas costs one d_theta call
    ([i / 64 for i in range(33)], "33 alphas is more than the limit of 32"),
], ids=["below-0", "snaps-to-1", "snap-to-one-point", "more-than-32"])
def test_demo31_checks_each_alpha_as_given(tmp_path, capsys, alphas, message):
    code, _ = run(tmp_path, "demo31", {"demo31": {"depth": 4, "alphas": alphas}})
    assert code == 3
    assert capsys.readouterr().err == f"tropifs: config error: {message}\n"


def test_demo31_needs_no_system_block(tmp_path):
    code, out = run(tmp_path, "demo31", {"demo31": {"depth": 4, "alphas": [0.0]}})
    assert code == 0
    assert json.loads((out / "report.json").read_text())["fixed_point_exact"] == [True]


def test_missing_system_block_is_a_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "validate", {"mane": {}})
    assert code == 3
    assert "config needs a 'system' object" in capsys.readouterr().err
    assert not (out / "validation.json").exists()


def test_enumerate_with_empty_levels(tmp_path, capsys):
    # two Aubry points and no level to give the second: nothing to build
    config = {**SHIFT4, "invariant": {"mode": "enumerate", "levels": []}}
    code, out = run(tmp_path, "invariant", config)
    assert code == 3
    assert "levels" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    # one Aubry point needs no level: its density is written
    config = {"system": TWO_POINT, "invariant": {"mode": "enumerate", "levels": []}}
    code, out = run(tmp_path, "invariant", config, out="single")
    assert code == 0
    assert [d["values"] for d in json.loads((out / "density.json").read_text())] == [[0.0, -1.0]]


# sha256 of every output file, recorded before the coding-table removal.
GOLDEN_DIGESTS = {
    "demo31/density.json": "a152fc8f1ff06ccc0f8bd205e35516061dcd528e884229cf79ea3d1846439d08",
    "demo31/report.json": "4ce0b153082c859f3d73d3416a03b3214cbbcc152ed4f043aeacd59d4d10fa27",
    "two-point-validate/validation.json": "025e26ad8fd9aef6a726c1eaebc6bb0289d396bf67b5cec55a1c8242bafec6c9",
    "two-point-mane/S.csv": "4d13df6dadf45bd8c5165df43660aa637bcca56393897b71803cd8bb78564a2b",
    "two-point-mane/aubry.json": "bde2725f66d58e2fa9e0c06cface603a47f6f249a97ac89814f727cf9988bb36",
    "two-point-constant/density.json": "b21ebc65f3c112318513ca78418207e3528cd8f6ac3e63823ba95b624ad38b14",
    "two-point-constant/verify.json": "f07a4e16b630abb42fd64e64c7aaaf797e9e95cf92cfe7fcc792fc2b87a5102f",
    "two-point-enumerate/density.json": "b21ebc65f3c112318513ca78418207e3528cd8f6ac3e63823ba95b624ad38b14",
    "two-point-enumerate/verify.json": "f07a4e16b630abb42fd64e64c7aaaf797e9e95cf92cfe7fcc792fc2b87a5102f",
    "two-point-boundary/density.json": "b21ebc65f3c112318513ca78418207e3528cd8f6ac3e63823ba95b624ad38b14",
    "two-point-boundary/verify.json": "f07a4e16b630abb42fd64e64c7aaaf797e9e95cf92cfe7fcc792fc2b87a5102f",
    "shift4-validate/validation.json": "af33bc4b62cea4e023e785bfd52200f577bed5d38da0d200841eabb2990a17dc",
    "shift4-mane/S.csv": "ae10354e0963deec9e84dce6926f0e89403a832a35b384bcc27545999de25da2",
    "shift4-mane/aubry.json": "4de4ef728a626c7479be118759ee674befe803235f70b758ed4e041e3f926195",
    "shift4-enumerate/density.json": "c749f3fdd07da2b80d29d94e3a1790f879d1a73c705d10fdc124d42fdb6244c8",
    "shift4-enumerate/verify.json": "0ba3fda12aaad060a4a57e069946356153770afbbc73dad9339606644e1d4b4c",
    "snapped-validate/validation.json": "226c3781373e63341a30202d03b3bb3fbe8025ea359b076bace7da5aa275ae10",
    "snapped-mane/S.csv": "d15b4f6557fcb9a9200b64e897dd4f5fa14dc0c50698f4ccbbfafd48c70b4ce7",
    "snapped-mane/aubry.json": "6d174b5ea10f7605bcad7937fe3c2b45defd7f5bf21bf739b297df546c3bca03",
    "snapped-constant/density.json": "9d5819796acc236670e61cd5e9ecc28690c392ac6f4e3b19f56e324766722a69",
    "snapped-constant/verify.json": "f07a4e16b630abb42fd64e64c7aaaf797e9e95cf92cfe7fcc792fc2b87a5102f",
    "shift-constant-validate/validation.json": "9935ff1e72bc69d584b6a87bcc85259812e3da333030c7bba8ca7dd64a47a598",
    "shift-constant-mane/S.csv": "3fb9a51037071b6feb6ea2684eadc6f436ca7c9d918c2be1ef8680ac4f5b3a4c",
    "shift-constant-mane/aubry.json": "4d94b54005c98f5268f1a2232de8319d97fbbfc43b39397fbdd0aa8cc362cd93",
    "shift-constant/density.json": "458fe673401fab05b6d151418b9a6359817dbe9549ea35892966d24affd0c377",
    "shift-constant/verify.json": "f07a4e16b630abb42fd64e64c7aaaf797e9e95cf92cfe7fcc792fc2b87a5102f",
    # recorded before the writers stopped calling json.dump and csv.writer
    "shift-constant-fuzzy/attractor.csv": "e9d779d504be5f4efc525e191b8d6e721753f57138378a30cd9ee1c73567fc4d",
    "shift-constant-fuzzy/trace.csv": "da90ade683a2eaff1ca7dc70680afd37ca571ad2ba144577b0eb55049be5088d",
    "snapped-constant-csv/density.json": "9d5819796acc236670e61cd5e9ecc28690c392ac6f4e3b19f56e324766722a69",
    "snapped-constant-csv/density_000.csv": "3cddf0f3de7902f081fa2f487002fc55c5e0f3b6a2b1809643007ca5647910cd",
    "snapped-constant-csv/verify.json": "f07a4e16b630abb42fd64e64c7aaaf797e9e95cf92cfe7fcc792fc2b87a5102f",
    "quoted-labels-mane/S.csv": "d4d0dd764aee7ba9a5636d089d63a840823b484bda87230cd174dc0c808b8d03",
    "quoted-labels-mane/aubry.json": "b2e55e2c5d05eac561e3cfc00febcb656aaff301fda33ee89af5acc4fec53aab",
    "quoted-labels-enumerate/density.json": "d83221a305b25cccec965e94522769827c0116628575de2d55f9d51612865830",
    "quoted-labels-enumerate/verify.json": "f07a4e16b630abb42fd64e64c7aaaf797e9e95cf92cfe7fcc792fc2b87a5102f",
    # recorded before the files were opened as UTF-8 whatever the locale
    "non-ascii-labels-mane/S.csv": "a16153b6a63c3d108db2c7492a03cb20ad8f48ab26a35d0b1f4b58d473d432d8",
    "non-ascii-labels-mane/aubry.json": "9e7346350a2b3da91dae789c4d93ce94b9092ce1c4852a57173081d91dada49a",
    "non-ascii-labels-fuzzy/attractor.csv": "bb7be6f88659103a835a97d359ef048977687370bc6ecbddd0a9d7e59d0b4305",
    "non-ascii-labels-fuzzy/trace.csv": "1fb9ec8095c2097564f1625d2094944c267ecc2b8cbb4a8e8b5ff283ac5c1d30",
    "non-contractive-validate/validation.json": "d32f66bb14f2d010fa57ecf1cf3f1212e29c788bdf6a62f152b74b0fa06b282a",
    # recorded before the closure learnt to stop after one exact sweep
    "signed-zeros-mane/S.csv": "87a54a3a758e1ea1a17143a383e792c36a1af28e11865e81a808be2b041e82da",
    "signed-zeros-mane/aubry.json": "dde3e38600753f76b29d5637dde16f6c8a363d175672084f68cd92c8436816c2",
    # recorded before enumerate built its densities as one block
    "shift4-enumerate-csv/density.json": "35504878ac2cdce8f04f5f8708a9a611496272821c09d7842b5a402f6b875e13",
    "shift4-enumerate-csv/density_000.csv": "717d0759d846328021e0c5043a211d367a4bc51faaa702eb50717eb8209bd4a6",
    "shift4-enumerate-csv/density_001.csv": "93ce08baa0bee22072859a4833beacd13c4d756cb47bcb7beff5b6ed6d3fc658",
    "shift4-enumerate-csv/density_002.csv": "57613feb9b216232ec300a098cf52b50ae073158a710ea6a4d17f587edf0effd",
    "shift4-enumerate-csv/verify.json": "0ba3fda12aaad060a4a57e069946356153770afbbc73dad9339606644e1d4b4c",
    "snapped-grid-enumerate/density.json": "fa342848132bf3b39eb96a5d516072f86fb8d8f123de6d89b88cd7007e463f3f",
    "snapped-grid-enumerate/verify.json": "23faa3587c8688b640eb7fe365075fc6a3e9d6643524a2707efd4103bd64483d",
    # recorded before demo31 wrote its densities as one block
    "demo31-no-alphas/density.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "demo31-no-alphas/report.json": "b561d49779c14c10db38f0bed89228d62741fa5f7b7eefcdef4dda65105e153b",
    "demo31-depth12/density.json": "b89a0b5d530e85c5db9994c9eaf1e2b27a1a9d2908d4cc5f16927f139e131ba4",
    "demo31-depth12/report.json": "95a26e1980adfd44553d4b868482e4844d60fb44933d48672052e5c8a838975e",
    # recorded before grids stopped holding a distance table
    "grid64-validate/validation.json": "4125e617cb6f1dc322a0180c4e9527643d102c871ee50466463c90c38a8bbf26",
    "grid64-constant-validate/validation.json": "fb2c37177eb8781754124b990e3f516d6b7705e29f2d17ece3a3a9b73dd464f3",
    "grid700-validate/validation.json": "6829fe75eeffe1ab10ccb5a49374203196d0477ad54aed205ffb16cdadd42201",
    "grid700-constant-validate/validation.json": "1dffd8022d7ffa7456d85a4867039f334a994e70fe5c5c0c5a43d730f49013d5",
    "tied-grid-validate/validation.json": "66ea019c76da50e3feaa4ff99db2d658ab2b989481425bf57e3494fe93226586",
    "tied-grid-constant-validate/validation.json": "6690e61554e0ae1e12ed534dfd317a1d052d2ad3b774826d641f4092c98f8e37",
}


def golden_runs():
    """The runs of the byte-run manifest whose files have recorded digests."""
    names = {key.split("/")[0] for key in GOLDEN_DIGESTS}
    return [entry for entry in RUNS if entry.name in names]


def test_outputs_match_recorded_digests(tmp_path):
    digests = {}
    for entry in golden_runs():
        code, out = run(tmp_path, entry.command, entry.config, out=entry.name)
        assert code == entry.exit, entry.name
        assert sorted(path.name for path in out.iterdir()) == sorted(entry.files), entry.name
        for path in sorted(out.iterdir()):
            digests[f"{entry.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_DIGESTS


def test_determinism_byte_identical(tmp_path):
    cfg = {
        "system": {"builder": "grid_random", "a": 0, "b": 1, "n": 12,
                   "num_maps": 2, "seed": 5},
    }
    code1, out1 = run(tmp_path, "mane", cfg, out="run1")
    code2, out2 = run(tmp_path, "mane", cfg, out="run2")
    assert code1 == code2 == 0
    assert (out1 / "S.csv").read_bytes() == (out2 / "S.csv").read_bytes()
    assert (out1 / "aubry.json").read_bytes() == (out2 / "aubry.json").read_bytes()


def test_seed_flag_overrides(tmp_path):
    cfg = {"system": {"builder": "grid_random", "a": 0, "b": 1, "n": 10,
                      "num_maps": 2, "seed": 5}}
    _, out1 = run(tmp_path, "mane", cfg, out="a", seed=9)
    _, out2 = run(tmp_path, "mane", cfg, out="b", seed=9)
    _, out3 = run(tmp_path, "mane", cfg, out="c")
    assert (out1 / "S.csv").read_bytes() == (out2 / "S.csv").read_bytes()
    assert (out1 / "S.csv").read_bytes() != (out3 / "S.csv").read_bytes()


def test_usage_error_exit_code():
    assert main(["frobnicate", "--config", "x"]) == 3


# Any JSON value; integers stay small, so no drawn value asks for much work.
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mostly(valid):
    """A valid value three times in four, any JSON value otherwise."""
    return st.one_of(valid, valid, valid, _json)


def _size(top):
    """A size key: an int of at most ``top`` (at most 64) or a wrongly typed value."""
    wrong = st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    return st.one_of(st.integers(-1, top), st.integers(-1, top), st.integers(-1, top), wrong)


def _block(**keys):
    return st.fixed_dictionaries({}, optional=keys)


_tol = _mostly(st.floats(1e-15, 1.0))
_system = st.one_of(
    st.fixed_dictionaries({"builder": st.just("two_point")}),
    st.fixed_dictionaries({"builder": st.just("nonunique_shift"), "depth": _size(6)}),
    st.fixed_dictionaries(
        {"builder": st.just("grid_random"), "a": _mostly(st.floats(-2.0, 0.0)),
         "b": _mostly(st.floats(0.5, 2.0)), "n": _size(64), "num_maps": _size(6)},
        optional={"seed": _mostly(st.integers(0, 64)),
                  "constant_weights": _mostly(st.booleans())},
    ),
    st.fixed_dictionaries(
        {"builder": st.just("shift_random"), "symbols": _size(3), "depth": _size(4)},
        optional={"seed": _mostly(st.integers(0, 64)),
                  "constant_weights": _mostly(st.booleans())},
    ),
    st.fixed_dictionaries({"inline": _json}),
    _json,
)
_level = _mostly(st.floats(max_value=0.0) | st.just("-inf"))

_config = st.fixed_dictionaries({"system": _system}, optional={
    "mane": _block(tol_aubry=_tol),
    "invariant": _block(
        mode=_mostly(st.sampled_from(["boundary", "constant", "enumerate"])),
        tol=_tol,
        tol_aubry=_tol,
        levels=_mostly(st.lists(_level, max_size=3)),
        boundary=_mostly(st.fixed_dictionaries({}, optional={
            "anchor": _mostly(st.integers(-1, 8) | st.sampled_from(["0", "11", "p0"])),
            "levels": _mostly(st.dictionaries(st.sampled_from(["0", "1", "11", "p0"]), _level,
                                              max_size=3)),
        })),
    ),
    "fuzzy": _block(
        tol=_tol,
        max_iters=_mostly(st.integers(1, 64)),
        u0=_mostly(st.sampled_from(["uniform", "invariant"]) | st.lists(st.floats(0.0, 1.0))),
    ),
    "demo31": _block(depth=_size(6), alphas=_mostly(st.lists(st.floats(0.0, 1.0), max_size=3))),
    "output": _block(csv=_mostly(st.booleans())),
})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.sampled_from(["validate", "mane", "invariant", "fuzzy", "demo31"]), _config)
def test_random_config_values_never_end_in_a_traceback(tmp_path, command, config):
    # exit 1 would be an uncaught exception, which main() lets propagate here
    code, _ = run(tmp_path, command, config)
    assert code in (0, 2, 3)
