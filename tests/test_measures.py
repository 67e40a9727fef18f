import numpy as np
import pytest

from tropifs.errors import EmptySupportError
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density, normalize
from tropifs.serialize import density_to_jsonable, values_from_jsonable
from tropifs.spaces import build_grid

from oracles import dyadic_mp

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


def test_density_json_round_trip():
    lam = rand_density(9)
    obj = density_to_jsonable(lam)
    assert "-inf" in obj["values"] or all(v != "-inf" for v in obj["values"])
    back = values_from_jsonable(obj["values"])
    assert np.array_equal(back, lam.values)
