import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropifs.errors import DimensionError, EmptySupportError
from tropifs.maxplus import BOTTOM
from tropifs.measures import (
    Density,
    dirac,
    idempotent_integral,
    indicator,
    mu_eval,
    normalize,
    set_measure,
    support,
)
from tropifs.serialize import density_from_jsonable, density_to_jsonable
from tropifs.spaces import build_grid

from oracles import dyadic, dyadic_mp

SPACE = build_grid(0.0, 1.0, 6)


def rand_density(seed, n=6, space=SPACE):
    rng = np.random.default_rng(seed)
    vals = dyadic_mp(rng, n, p_bottom=0.3)
    if not (vals > BOTTOM).any():
        vals[0] = 0.0
    return Density(space, vals)


def test_mu_eval_examples():
    two = build_grid(0.0, 1.0, 2)
    assert mu_eval(dirac(two, 1, 0.0), [3.0, 7.0]) == 7.0
    lam = normalize(rand_density(3))
    assert mu_eval(lam, np.full(6, 2.5)) == 2.5  # constants integrate to themselves
    assert mu_eval(Density(two, [0.0, -1.0]), [1.0, 5.0]) == 4.0
    with pytest.raises(DimensionError):
        mu_eval(lam, [0.0, 1.0])


def test_normalize_examples():
    two = build_grid(0.0, 1.0, 2)
    assert normalize(Density(two, [-2.0, -5.0])).values.tolist() == [0.0, -3.0]
    assert normalize(Density(two, [0.0, -1.0])).values.tolist() == [0.0, -1.0]
    assert normalize(Density(two, [BOTTOM, -7.0])).values.tolist() == [BOTTOM, 0.0]
    with pytest.raises(EmptySupportError):
        Density(two, [BOTTOM, BOTTOM])


def test_set_measure_examples():
    lam = normalize(rand_density(11))
    assert set_measure(lam, set()) == BOTTOM
    assert set_measure(lam, range(6)) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_set_measure_union_law(seed):
    rng = np.random.default_rng(seed)
    lam = rand_density(seed)
    a = set(np.flatnonzero(rng.random(6) < 0.5).tolist())
    b = set(np.flatnonzero(rng.random(6) < 0.5).tolist())
    assert set_measure(lam, a | b) == max(set_measure(lam, a), set_measure(lam, b))


def test_idempotent_integral():
    lam = normalize(rand_density(7))
    a = {1, 3}
    assert idempotent_integral(lam, indicator(SPACE, a)) == set_measure(lam, a)
    assert idempotent_integral(lam, np.zeros(6)) == 0.0
    assert idempotent_integral(lam, np.full(6, BOTTOM)) == BOTTOM


def test_dirac():
    lam = dirac(SPACE, 2, 0.0)
    f = np.arange(6.0)
    assert mu_eval(lam, f) == f[2]
    assert normalize(dirac(SPACE, 2, -1.0)) == lam
    assert support(dirac(SPACE, 4, -3.0)) == {4}
    with pytest.raises(IndexError):
        dirac(SPACE, 6, 0.0)


def test_support():
    assert support(Density(build_grid(0, 1, 3), [0.0, BOTTOM, -3.0])) == {0, 2}
    assert support(rand_density(1)) == set(
        np.flatnonzero(rand_density(1).values > BOTTOM).tolist()
    )
    all_finite = Density(SPACE, np.zeros(6))
    assert support(all_finite) == set(range(6))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mu_eval_max_plus_linear(seed):
    rng = np.random.default_rng(seed)
    lam = rand_density(seed)
    f = dyadic(rng, 6)
    g = dyadic(rng, 6)
    c = float(dyadic(rng, 1)[0])
    assert mu_eval(lam, np.maximum(f, g)) == max(mu_eval(lam, f), mu_eval(lam, g))
    assert mu_eval(lam, c + f) == c + mu_eval(lam, f)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mu_eval_order_and_bounds(seed):
    rng = np.random.default_rng(seed)
    lam = rand_density(seed)
    f = dyadic(rng, 6)
    g = f + np.abs(dyadic(rng, 6))
    assert mu_eval(lam, f) <= mu_eval(lam, g)
    m0 = mu_eval(lam, np.zeros(6))
    assert f.min() <= mu_eval(lam, f) - m0 <= f.max()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_density_reconstruction_from_probes(seed):
    # the density is recovered exactly by integrating single-point indicators
    lam = rand_density(seed)
    probes = [idempotent_integral(lam, indicator(SPACE, {x})) for x in range(6)]
    assert np.array_equal(np.array(probes), lam.values)


def test_density_json_round_trip():
    lam = rand_density(9)
    obj = density_to_jsonable(lam)
    assert "-inf" in obj["values"] or all(v != "-inf" for v in obj["values"])
    back = density_from_jsonable(SPACE, obj)
    assert np.array_equal(back.values, lam.values)
