import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropifs.errors import DimensionError, NormalizationError, NotContractiveError
from tropifs.examples import build_nonunique_shift_system, build_two_point_system, lambda_alpha, random_system
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density, mu_eval, normalize
from tropifs.mpifs import (
    MpIfs,
    check_duality,
    d_rho,
    dual_transfer,
    iterate_transfer,
    transfer_density,
    validate,
)
from tropifs.spaces import build_grid

from oracles import dyadic, dyadic_mp, naive_dual_transfer, naive_mu_eval, naive_transfer_density


def rand_prob(space, seed):
    rng = np.random.default_rng(seed)
    vals = dyadic_mp(rng, space.n, p_bottom=0.2)
    if not (vals > BOTTOM).any():
        vals[0] = 0.0
    return normalize(Density(space, vals))


def test_validate_shift_example_quadruple_oracle():
    system = build_nonunique_shift_system(3)
    # exhaustive independent recomputation of the contraction ratio
    best = 0.0
    dx, dj = system.space.dist, system.index_space.dist
    for j1 in range(2):
        for j2 in range(2):
            for x1 in range(system.space.n):
                for x2 in range(system.space.n):
                    den = dj[j1, j2] + dx[x1, x2]
                    if den > 0:
                        num = dx[system.maps[j1, x1], system.maps[j2, x2]]
                        best = max(best, num / den)
    assert best <= 0.5
    assert system.gamma_hat == best == 0.5


def test_validate_weight_errors():
    space = build_grid(0.0, 1.0, 2)
    from tropifs.examples import discrete_index_space

    isp = discrete_index_space(["a", "b"], spacing=3.0)
    maps = np.array([[0, 0], [1, 1]])
    with pytest.raises(NormalizationError):
        validate(MpIfs(space, isp, maps, np.array([[-1.0, -1.0], [-1.0, -1.0]])))
    # drift within 1e-12 is silently shifted away
    eps = 1e-13
    sys2 = MpIfs(space, isp, maps, np.array([[-eps, -eps], [-1.0, -1.0]]))
    report = validate(sys2)
    assert report.renormalized
    assert sys2.weights.max() == 0.0


def test_validate_contraction_error():
    # the identity map is not a contraction on two points
    space = build_grid(0.0, 1.0, 2)
    from tropifs.examples import discrete_index_space

    isp = discrete_index_space(["id"], spacing=1.0)
    sys_id = MpIfs(space, isp, np.array([[0, 1]]), np.zeros((1, 2)), exact_maps=True)
    with pytest.raises(NotContractiveError):
        validate(sys_id)


def test_dual_transfer_examples():
    system = build_two_point_system()
    assert dual_transfer(system, [0.0, 10.0]).tolist() == [9.0, 9.0]
    const = dual_transfer(system, [3.25, 3.25])
    assert const.tolist() == [3.25, 3.25]
    with pytest.raises(DimensionError):
        dual_transfer(system, [0.0])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_transfer_monotone(seed):
    system = build_nonunique_shift_system(2)
    rng = np.random.default_rng(seed)
    f = dyadic(rng, system.space.n)
    g = f + np.abs(dyadic(rng, system.space.n))
    assert np.all(dual_transfer(system, f) <= dual_transfer(system, g))


def test_transfer_density_fixed_point_two_point():
    system = build_two_point_system()
    lam = Density(system.space, [0.0, -1.0])
    out = transfer_density(system, lam)
    assert out.values.tolist() == [0.0, -1.0]


def test_transfer_density_empty_preimage():
    # single constant map: only its target is ever hit
    space = build_grid(0.0, 1.0, 3)
    from tropifs.examples import discrete_index_space

    system = MpIfs(
        space,
        discrete_index_space(["c"]),
        np.array([[1, 1, 1]]),
        np.zeros((1, 3)),
        exact_maps=True,
    )
    validate(system)
    out = transfer_density(system, Density(space, np.zeros(3)))
    assert out.values.tolist() == [BOTTOM, 0.0, BOTTOM]


def test_transfer_density_shift_example_fixed():
    system = build_nonunique_shift_system(3)
    lam = lambda_alpha(3, 0.0)
    assert np.array_equal(transfer_density(system, lam).values, lam.values)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_operators_match_naive_loops(seed):
    space = build_grid(0.0, 1.0, 9)
    system = random_system(space, 3, seed % 1000)
    rng = np.random.default_rng(seed)
    lam = rand_prob(space, seed)
    f = dyadic(rng, 9)
    assert np.array_equal(
        dual_transfer(system, f), naive_dual_transfer(system.maps, system.weights, f)
    )
    assert np.array_equal(
        transfer_density(system, lam).values,
        naive_transfer_density(system.maps, system.weights, lam.values),
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_duality_exact(seed):
    space = build_grid(0.0, 1.0, 12)
    system = random_system(space, 2, seed % 997)
    rng = np.random.default_rng(seed)
    lam = rand_prob(space, seed + 1)
    f = dyadic(rng, 12)
    assert check_duality(system, lam, f)
    # both sides also agree with a loop-based evaluation
    lhs = naive_mu_eval(naive_transfer_density(system.maps, system.weights, lam.values), f)
    assert lhs == mu_eval(lam, dual_transfer(system, f))


def test_duality_dirac_unfolds():
    system = build_two_point_system()
    from tropifs.measures import dirac

    lam = dirac(system.space, 0, 0.0)
    f = np.array([2.0, 5.0])
    expected = max(
        system.weights[j, 0] + f[system.maps[j, 0]] for j in range(2)
    )
    assert mu_eval(lam, dual_transfer(system, f)) == expected
    assert mu_eval(transfer_density(system, lam), f) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_probability_preserved_and_homogeneous(seed):
    system = build_nonunique_shift_system(2)
    lam = rand_prob(system.space, seed)
    out = transfer_density(system, lam)
    assert out.values.max() == 0.0
    c = -1.25
    shifted = transfer_density(system, Density(system.space, lam.values + c))
    assert np.array_equal(shifted.values, out.values + c)
    # a probability sends the zero function to zero through duality too
    assert mu_eval(lam, dual_transfer(system, np.zeros(system.space.n))) == 0.0


def test_iterate_transfer_two_point():
    system = build_two_point_system()
    res = iterate_transfer(system, Density(system.space, np.zeros(2)))
    assert res.converged
    assert res.density.values.tolist() == [0.0, -1.0]


def test_iterate_transfer_fixed_start():
    system = build_two_point_system()
    lam = Density(system.space, [0.0, -1.0])
    res = iterate_transfer(system, lam)
    assert res.converged and res.iterations == 1
    assert res.density == lam


def test_iterate_transfer_stays_on_family_member():
    system = build_nonunique_shift_system(4)
    lam = lambda_alpha(4, 0.5)
    res = iterate_transfer(system, lam)
    assert res.converged and res.iterations == 1
    assert np.array_equal(res.density.values, lam.values)


def test_d_rho_handles_bottom():
    space = build_grid(0.0, 1.0, 2)
    a = Density(space, [0.0, BOTTOM])
    b = Density(space, [0.0, 0.0])
    assert d_rho(a, b) == 1.0


def test_bottom_weights_accepted():
    # a branch can be switched off entirely at some points
    space = build_grid(0.0, 1.0, 2)
    from tropifs.examples import discrete_index_space

    system = MpIfs(
        space,
        discrete_index_space(["a", "b"], spacing=3.0),
        np.array([[0, 0], [1, 1]]),
        np.array([[0.0, 0.0], [BOTTOM, -1.0]]),
        exact_maps=True,
    )
    validate(system)
    out = transfer_density(system, Density(space, [0.0, 0.0]))
    assert out.values.tolist() == [0.0, -1.0]
    assert not system.is_constant_weight()
