import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropifs.fuzzy as fuzzy
from tropifs.errors import ConfigError, InternalError, NonConvergenceError
from tropifs.examples import (
    build_nonunique_shift_system,
    build_two_point_system,
    lambda_alpha,
    random_system,
)
from tropifs.fuzzy import (
    FuzzySet,
    alpha_cut,
    d_infty,
    d_theta,
    fhb_apply,
    fhb_attractor,
    theta_conjugate,
)
from tropifs.invariant import constant_weight_density
from tropifs.mane import mane_potential
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density
from tropifs.mpifs import transfer_density
from tropifs.spaces import build_grid, build_shift_space, hausdorff

from oracles import distance_table, dyadic_mp, naive_d_infty, naive_d_theta, normalize


def rand_prob(space, seed, p_bottom=0.2):
    rng = np.random.default_rng(seed)
    vals = dyadic_mp(rng, space.n, p_bottom=p_bottom)
    if not (vals > BOTTOM).any():
        vals[0] = 0.0
    return normalize(Density(space, vals))


def point_mass(space, x):
    """The probability with density 0 at x and BOTTOM elsewhere."""
    return Density(space, np.where(np.arange(space.n) == x, 0.0, BOTTOM))


def test_theta_conjugate_examples():
    two = build_grid(0.0, 1.0, 2)
    u = theta_conjugate(Density(two, [0.0, -1.0]))
    assert u.values[0] == 1.0
    assert u.values[1] == np.exp(-1.0)
    assert u.is_normal

    d = theta_conjugate(point_mass(two, 0))
    assert d.values.tolist() == [1.0, 0.0]

    with pytest.raises(ConfigError):
        theta_conjugate(Density(two, [-0.5, -1.0]))


def test_theta_round_trip():
    space = build_grid(0.0, 1.0, 8)
    lam = rand_prob(space, 4)
    with np.errstate(divide="ignore"):
        back = Density(space, np.log(theta_conjugate(lam).values))
    finite = lam.values > BOTTOM
    # log(exp(x)) is correct to the last ulp but not always bit-exact
    assert np.allclose(back.values[finite], lam.values[finite], rtol=1e-15, atol=0)
    assert np.all(back.values[~finite] == BOTTOM)
    assert back.values[lam.values == 0.0].tolist() == [0.0] * int((lam.values == 0.0).sum())


def test_alpha_cut():
    two = build_grid(0.0, 1.0, 2)
    u = FuzzySet(two, [1.0, np.exp(-1.0)])
    assert alpha_cut(u, 0.5).tolist() == [0]
    three = build_grid(0.0, 1.0, 3)
    v = FuzzySet(three, [1.0, 0.2, 0.0])
    cut = alpha_cut(v, 0.0)
    assert cut.dtype == np.intp and cut.tolist() == [0, 1]
    assert alpha_cut(u, 1.0).tolist() == [0]
    with pytest.raises(ConfigError):
        alpha_cut(u, 1.5)


def test_d_infty_examples():
    space = build_grid(0.0, 1.0, 5)
    u = theta_conjugate(rand_prob(space, 1))
    assert d_infty(u, u) == 0.0
    up = theta_conjugate(point_mass(space, 0))
    uq = theta_conjugate(point_mass(space, 3))
    assert d_infty(up, uq) == distance_table(space)[0, 3]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_d_infty_metric_axioms(seed):
    space = build_grid(0.0, 1.0, 7)
    u = theta_conjugate(rand_prob(space, seed))
    v = theta_conjugate(rand_prob(space, seed + 1))
    w = theta_conjugate(rand_prob(space, seed + 2))
    assert d_infty(u, v) == d_infty(v, u)
    assert d_infty(u, v) >= 0.0
    assert (d_infty(u, v) == 0.0) == bool(np.array_equal(u.values, v.values))
    assert d_infty(u, w) <= d_infty(u, v) + d_infty(v, w) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_conjugation_identity(seed, constant, symbolic):
    if symbolic:
        space = build_shift_space(2, 3)
        system = random_system(space, 2, seed % 500, constant_weights=constant)
    else:
        space = build_grid(0.0, 1.0, 16)
        system = random_system(space, 3, seed % 500, constant_weights=constant)
    lam = rand_prob(space, seed)
    lhs = fhb_apply(system, theta_conjugate(lam)).values
    rhs = np.exp(transfer_density(system, lam).values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-15


def test_fhb_apply_two_point():
    system = build_two_point_system()
    u = FuzzySet(system.space, [1.0, np.exp(-1.0)])
    out = fhb_apply(system, u)
    assert np.array_equal(out.values, u.values)  # fixed point
    ones = FuzzySet(system.space, [1.0, 1.0])
    step = fhb_apply(system, ones)
    assert step.values.tolist() == [1.0, np.exp(-1.0)]


def test_fhb_apply_preserves_normality():
    for seed in range(5):
        system = random_system(build_grid(0.0, 1.0, 10), 2, seed)
        u = theta_conjugate(rand_prob(system.space, seed))
        assert fhb_apply(system, u).is_normal


def test_fhb_attractor_two_point():
    system = build_two_point_system()
    res = fhb_attractor(system, FuzzySet(system.space, np.ones(2)))
    assert np.max(np.abs(res.attractor.values - [1.0, np.exp(-1.0)])) < 1e-15
    pot = mane_potential(system)
    lam = constant_weight_density(system, pot)
    assert np.max(np.abs(res.attractor.values - np.exp(lam.values))) <= 1e-9
    assert all(r <= system.validation.gamma_hat + 1e-12
               for r in _ratios(res.trace))


def _ratios(trace):
    return [
        b / a for a, b in zip(trace, trace[1:]) if a > 0 and b > 0
    ]


def test_fhb_attractor_independent_of_start():
    system = random_system(build_shift_space(2, 4), 2, 21, constant_weights=True)
    rng = np.random.default_rng(3)
    results = []
    for _ in range(10):
        vals = rng.random(system.space.n)
        vals[int(rng.integers(system.space.n))] = 1.0
        res = fhb_attractor(system, FuzzySet(system.space, vals))
        results.append(res.attractor)
    for u in results[1:]:
        assert d_infty(results[0], u) <= 1e-9


def test_fhb_attractor_already_fixed_exact():
    # the two-point attractor reproduces itself bit-exactly: zero-length trace
    system = build_two_point_system()
    u0 = FuzzySet(system.space, [1.0, np.exp(-1.0)])
    res = fhb_attractor(system, u0)
    assert res.iterations == 0
    assert res.trace == []
    assert np.array_equal(res.attractor.values, u0.values)


def test_fhb_attractor_from_invariant_family_member():
    # Theta(lambda_alpha) is fixed in exact arithmetic; the float product
    # e^q * u lands on an exactly-fixed neighbour within two applications
    system = build_nonunique_shift_system(4)
    u0 = theta_conjugate(lambda_alpha(4, 0.25))
    res = fhb_attractor(system, u0)
    assert res.iterations <= 2
    assert np.max(np.abs(res.attractor.values - u0.values)) <= 1e-15
    again = fhb_apply(system, res.attractor)
    assert np.array_equal(again.values, res.attractor.values)


def test_fhb_attractor_budget_exhaustion():
    system = build_two_point_system()
    with pytest.raises(NonConvergenceError) as info:
        fhb_attractor(system, FuzzySet(system.space, [1.0, 0.2]), tol=0.0, max_iters=1)
    assert hasattr(info.value, "trace") and len(info.value.trace) == 1


def test_fhb_requires_normal_start():
    system = build_two_point_system()
    with pytest.raises(ConfigError):
        fhb_attractor(system, FuzzySet(system.space, [0.5, 0.2]))


def test_d_theta():
    space = build_grid(0.0, 1.0, 6)
    lam = rand_prob(space, 8)
    assert d_theta(lam, lam) == 0.0
    p = point_mass(space, 1)
    q = point_mass(space, 4)
    assert d_theta(p, q) == distance_table(space)[1, 4]
    with pytest.raises(ConfigError):
        d_theta(Density(space, np.full(6, -1.0)), lam)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_d_theta_equals_d_infty_of_images(seed):
    space = build_grid(0.0, 1.0, 9)
    lam = rand_prob(space, seed)
    eta = rand_prob(space, seed + 7)
    assert d_theta(lam, eta) == d_infty(theta_conjugate(lam), theta_conjugate(eta))


SWEEP_SPACES = [
    build_grid(0.0, 1.0, 2),
    build_grid(0.0, 1.0, 9),
    build_grid(-0.3, 2.7, 13),
    build_shift_space(1, 2),
    build_shift_space(2, 3),
    build_shift_space(3, 2),
]

# tied levels, zeros, and values off the dyadic lattice
MEMBERSHIP = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))
DENSITY = st.one_of(st.sampled_from([BOTTOM, -0.1, -1.0, 0.0]), st.floats(-3.0, 0.0))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_d_infty_matches_level_oracle(data):
    space = data.draw(st.sampled_from(SWEEP_SPACES))
    vals = st.lists(MEMBERSHIP, min_size=space.n, max_size=space.n)
    u = FuzzySet(space, data.draw(vals))
    v = FuzzySet(space, data.draw(vals))
    assert d_infty(u, v) == naive_d_infty(distance_table(space), u.values, v.values)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_d_theta_matches_level_oracle(data):
    space = data.draw(st.sampled_from(SWEEP_SPACES))

    def density():
        vals = data.draw(st.lists(DENSITY, min_size=space.n, max_size=space.n))
        vals[data.draw(st.integers(0, space.n - 1))] = 0.0
        return Density(space, vals)

    lam, eta = density(), density()
    assert d_theta(lam, eta) == naive_d_theta(distance_table(space), lam.values, eta.values)


def test_d_infty_empty_cuts():
    space = build_shift_space(2, 3)
    zero = FuzzySet(space, np.zeros(space.n))
    u = FuzzySet(space, np.linspace(0.0, 1.0, space.n))
    assert d_infty(zero, u) == d_infty(u, zero) == space.diameter
    assert d_infty(zero, FuzzySet(space, np.zeros(space.n))) == 0.0


def test_d_infty_makes_one_hausdorff_call(monkeypatch):
    calls = []

    def counted(space, a, b):
        calls.append((a, b))
        return hausdorff(space, a, b)

    monkeypatch.setattr(fuzzy, "hausdorff", counted)
    space = build_grid(0.0, 1.0, 64)
    rng = np.random.default_rng(5)
    u, v = rng.random(space.n), rng.random(space.n)
    u[3] = v[40] = 1.0  # normal: every cut is nonempty, so Hausdorff runs
    u, v = FuzzySet(space, u), FuzzySet(space, v)
    assert d_infty(u, v) == naive_d_infty(distance_table(space), u.values, v.values)
    assert len(calls) == 1


def test_a_grid_attractor_builds_no_table():
    # the level sweep and the alpha-cut cross-check read the coordinates, a block at a time
    system = random_system(build_grid(0.0, 1.0, 513), 3, 2, constant_weights=True)
    res = fhb_attractor(system, FuzzySet(system.space, np.ones(513)))
    assert res.iterations > 0


def test_d_infty_on_a_grid_takes_no_table_of_memory():
    # the n x n table of this grid would take 32 MiB
    space = build_grid(0.0, 1.0, 2048)
    rng = np.random.default_rng(8)
    u, v = rng.random(space.n), np.where(rng.random(space.n) < 0.2, 0.0, rng.random(space.n))
    u[3] = v[7] = 1.0
    u, v = FuzzySet(space, u), FuzzySet(space, v)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = d_infty(u, v)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert d > 0 and peak < 4 * 2**20


def test_d_infty_cross_check_catches_sweep_error(monkeypatch):
    space = build_grid(0.0, 1.0, 5)
    u = FuzzySet(space, [1.0, 0.5, 0.0, 0.0, 0.0])
    v = FuzzySet(space, [0.0, 0.0, 0.0, 0.5, 1.0])
    assert d_infty(u, v) == 1.0
    monkeypatch.setattr(fuzzy, "_sup_cut_distance", lambda *args: (0.5, 0.5))
    with pytest.raises(InternalError):
        d_infty(u, v)


def test_membership_bounds_enforced():
    space = build_grid(0.0, 1.0, 2)
    with pytest.raises(ConfigError):
        FuzzySet(space, [1.2, 0.0])
    with pytest.raises(ConfigError):
        FuzzySet(space, [-0.1, 0.0])
