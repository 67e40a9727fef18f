import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import tropifs
from tropifs.cli import main
from tropifs.examples import build_two_point_system, lambda_alpha
from tropifs.fuzzy import theta_conjugate
from tropifs.serialize import system_to_jsonable


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


def test_validate_reports_renormalization(tmp_path):
    doc = system_to_jsonable(build_two_point_system())
    doc["weights"] = [[-1e-13, -1e-13], [-1.0, -1.0]]
    code, out = run(tmp_path, "validate", {"system": {"inline": doc}})
    assert code == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["normalization_drift"] == 1e-13
    assert report["renormalized"] is True
    assert report["messages"] == ["weights re-normalized (drift 1e-13)"]


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported lazily, inside the graph computations only, and
    # nothing the CLI imports pulls in concurrent.futures
    src = str(Path(tropifs.__file__).resolve().parents[1])
    probe = (
        "import sys, tropifs.cli; "
        "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "False False"


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


def test_mane_two_point(tmp_path):
    code, out = run(tmp_path, "mane", {"system": {"builder": "two_point"}})
    assert code == 0
    aubry = json.loads((out / "aubry.json").read_text())
    assert aubry["labels"] == ["p0"]
    rows = list(csv.reader((out / "S.csv").open()))
    assert rows[0] == ["", "p0", "p1"]
    assert rows[1] == ["p0", "0.0", "0.0"]
    assert rows[2] == ["p1", "-1.0", "-1.0"]


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


def test_fuzzy_two_point(tmp_path):
    code, out = run(tmp_path, "fuzzy", {"system": {"builder": "two_point"}})
    assert code == 0
    rows = list(csv.reader((out / "attractor.csv").open()))
    assert rows[1][0] == "p0" and float(rows[1][1]) == 1.0
    assert abs(float(rows[2][1]) - np.exp(-1.0)) < 1e-15
    trace = list(csv.reader((out / "trace.csv").open()))[1:]
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
    rows = list(csv.reader((out / "attractor.csv").open()))[1:]
    got = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(got - u0.values)) <= 1e-15
    trace = list(csv.reader((out / "trace.csv").open()))[1:]
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
    rows = list(csv.reader((fuz / "attractor.csv").open()))[1:]
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


def test_demo31_needs_no_system_block(tmp_path):
    code, out = run(tmp_path, "demo31", {"demo31": {"depth": 4, "alphas": [0.0]}})
    assert code == 0
    assert json.loads((out / "report.json").read_text())["fixed_point_exact"] == [True]


def test_missing_system_block_is_a_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "validate", {"mane": {}})
    assert code == 3
    assert "config needs a 'system' object" in capsys.readouterr().err
    assert not (out / "validation.json").exists()


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
