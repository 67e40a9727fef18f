import json

import numpy as np
import pytest

from tropifs.errors import DimensionError, EmptySupportError
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density
from tropifs.serialize import density_to_jsonable, values_from_jsonable, write_json
from tropifs.spaces import build_grid

from oracles import dyadic_mp, normalize

SPACE = build_grid(0.0, 1.0, 6)


def rand_density(seed, n=6, space=SPACE):
    rng = np.random.default_rng(seed)
    vals = dyadic_mp(rng, n, p_bottom=0.3)
    if not (vals > BOTTOM).any():
        vals[0] = 0.0
    return Density(space, vals)


def test_normalize_examples():
    two = build_grid(0.0, 1.0, 2)
    assert normalize(Density(two, [-2.0, -5.0])).values.tolist() == [0.0, -3.0]
    assert normalize(Density(two, [0.0, -1.0])).values.tolist() == [0.0, -1.0]
    assert normalize(Density(two, [BOTTOM, -7.0])).values.tolist() == [BOTTOM, 0.0]
    with pytest.raises(EmptySupportError):
        Density(two, [BOTTOM, BOTTOM])


def test_normalize_block_is_row_by_row():
    block = np.array([[-2.0, -5.0], [0.0, -1.0], [BOTTOM, -7.0], [-0.0, BOTTOM]])
    two = build_grid(0.0, 1.0, 2)
    rows = [normalize(Density(two, row)).values for row in block]
    assert normalize(Density(two, block)).values.tobytes() == np.stack(rows).tobytes()


def test_dirac():
    # a one-point density: normalize lifts its level to 0 and keeps BOTTOM elsewhere
    lam = Density(SPACE, np.where(np.arange(6) == 2, 0.0, BOTTOM))
    assert normalize(Density(SPACE, lam.values - 1.0)) == lam
    assert normalize(lam).values.tolist() == [BOTTOM, BOTTOM, 0.0, BOTTOM, BOTTOM, BOTTOM]


def test_density_json_round_trip(tmp_path):
    lam = rand_density(9)
    block = Density(SPACE, lam.values[None])  # one density is a one-row block
    write_json(tmp_path / "density.json", density_to_jsonable(block))
    (doc,) = json.loads((tmp_path / "density.json").read_text())
    assert doc["labels"] == list(SPACE.labels)
    assert "-inf" in doc["values"] or all(v != "-inf" for v in doc["values"])
    back = values_from_jsonable(doc["values"])
    assert np.array_equal(back, lam.values)
    with pytest.raises(DimensionError):
        density_to_jsonable(lam)
