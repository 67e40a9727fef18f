import csv
import json

import numpy as np
import pytest

from tropifs.errors import ConfigError
from tropifs.examples import build_nonunique_shift_system, build_two_point_system, random_system
from tropifs.fuzzy import theta_conjugate
from tropifs.mane import mane_potential
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density, normalize
from tropifs.mpifs import validate
from tropifs.serialize import (
    density_from_jsonable,
    density_to_csv,
    density_to_jsonable,
    fuzzy_to_csv,
    matrix_to_csv,
    potential_to_jsonable,
    space_from_jsonable,
    space_to_jsonable,
    system_from_jsonable,
    system_to_jsonable,
    value_from_jsonable,
    values_from_jsonable,
    write_json,
)
from tropifs.maxplus import MpMatrix
from tropifs.spaces import build_grid, build_shift_space


def test_value_tokens():
    assert value_from_jsonable("-inf") == BOTTOM
    assert value_from_jsonable(-1.5) == -1.5
    with pytest.raises(ConfigError):
        value_from_jsonable("nan")


def test_space_round_trip_grid():
    g = build_grid(0.0, 1.0, 5)
    back = space_from_jsonable(json.loads(json.dumps(space_to_jsonable(g))))
    assert np.array_equal(back.dist, g.dist)
    assert back.resolution == g.resolution
    assert np.array_equal(back.points, g.points)


def test_space_round_trip_shift():
    s = build_shift_space(2, 3)
    back = space_from_jsonable(json.loads(json.dumps(space_to_jsonable(s))))
    assert back.points == s.points
    assert np.array_equal(back.dist, s.dist)


def test_space_builder_forms():
    assert space_from_jsonable({"grid": {"a": 0, "b": 1, "n": 4}}).n == 4
    assert space_from_jsonable({"shift": {"symbols": 2, "depth": 2}}).n == 4


def test_system_round_trip():
    system = random_system(build_grid(0.0, 1.0, 8), 2, 4)
    doc = json.loads(json.dumps(system_to_jsonable(system)))
    back = system_from_jsonable(doc)
    validate(back)
    assert np.array_equal(back.maps, system.maps)
    assert np.array_equal(back.weights, system.weights)
    assert back.gamma_hat == system.gamma_hat


def test_density_csv(tmp_path):
    space = build_grid(0.0, 1.0, 3)
    lam = Density(space, [0.0, BOTTOM, -0.3])
    path = tmp_path / "d.csv"
    density_to_csv(path, lam)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["label", "value"]
    assert rows[2][1] == "-inf"
    # shortest round-trip decimal reloads bit-exactly
    assert float(rows[3][1]) == -0.3


def test_fuzzy_csv(tmp_path):
    system = build_two_point_system()
    u = theta_conjugate(Density(system.space, [0.0, -1.0]))
    path = tmp_path / "u.csv"
    fuzzy_to_csv(path, u)
    rows = list(csv.reader(path.open()))
    assert float(rows[2][1]) == np.exp(-1.0)


def test_potential_jsonable():
    pot = mane_potential(build_nonunique_shift_system(2))
    doc = json.loads(json.dumps(potential_to_jsonable(pot)))
    flat = [v for row in doc["s"] for v in row]
    assert all(v == "-inf" or isinstance(v, float) or isinstance(v, int) for v in flat)
    assert doc["aubry"]["labels"] == ["11", "22"]
    back = np.vstack([values_from_jsonable(row) for row in doc["s"]])
    assert np.array_equal(back, pot.s.entries)


def test_density_jsonable_round_trip_exact():
    space = build_grid(0.0, 1.0, 4)
    lam = normalize(Density(space, [-0.1, -2.75, BOTTOM, -1e-9]))
    doc = json.loads(json.dumps(density_to_jsonable(lam)))
    assert np.array_equal(density_from_jsonable(space, doc).values, lam.values)


def test_write_json_matches_dumps(tmp_path):
    obj = {
        "z": [0.1, -0.0, 1e-300, "-inf", {"b": [], "a": {}}],
        "a": {"labels": ["11", "x\u00e9"], "values": [0.0, -2.75]},
        "m": [[1, 2], [True, None]],
    }
    path = tmp_path / "o.json"
    write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def test_matrix_csv_cells(tmp_path):
    path = tmp_path / "s.csv"
    matrix_to_csv(path, MpMatrix(np.array([[0.0, BOTTOM], [-0.0, -0.3]])), labels=["a", "b"])
    assert path.read_text().splitlines() == [",a,b", "a,0.0,-inf", "b,-0.0,-0.3"]
