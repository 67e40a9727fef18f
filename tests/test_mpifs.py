import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropifs.errors import NormalizationError, NotContractiveError
from tropifs.examples import (
    build_nonunique_shift_system,
    build_two_point_system,
    discrete_index_space,
    lambda_alpha,
    random_system,
)
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density
from tropifs.mpifs import CONSTANT_WEIGHT_TOL, MpIfs, _estimates, d_rho, transfer_density, validate
from tropifs.spaces import FiniteSpace, build_grid, build_shift_space

from oracles import (
    build_point_space,
    distance_table,
    dyadic,
    dyadic_mp,
    iterate_transfer,
    naive_contraction_constant,
    naive_dual_transfer,
    naive_is_constant_weight,
    naive_mu_eval,
    naive_transfer_density,
    normalize,
    scatter_transfer_density,
)


def rand_prob(space, seed):
    rng = np.random.default_rng(seed)
    vals = dyadic_mp(rng, space.n, p_bottom=0.2)
    if not (vals > BOTTOM).any():
        vals[0] = 0.0
    return normalize(Density(space, vals))


def test_validate_shift_example_quadruple_oracle():
    system = build_nonunique_shift_system(3)
    # exhaustive independent recomputation of the contraction ratio
    best = naive_contraction_constant(
        distance_table(system.space), system.index_space.dist, system.maps, system.snap_slack
    )
    assert system.validation.gamma_hat == best == 0.5


def _line_distances(points):
    pts = np.asarray(points, dtype=np.float64)
    return np.abs(pts[:, None] - pts[None, :])


@st.composite
def contraction_systems(draw):
    """Unvalidated systems with arbitrary maps on grids, shifts and explicit
    tables, with non-dyadic distances and (for snapped maps) non-zero slack."""
    kind = draw(st.sampled_from(["grid", "shift", "point"]))
    if kind == "grid":
        b = draw(st.sampled_from([1.0, 0.3, 2.5]))
        space = build_grid(0.0, b, draw(st.integers(2, 12)))
    elif kind == "shift":
        space = build_shift_space(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    else:
        n = draw(st.integers(1, 10))
        ks = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True))
        pts = [0.1 * k for k in ks]
        resolution = draw(st.sampled_from([0.0, 0.01, 0.1, 1.0 / 3]))
        space = build_point_space([str(i) for i in range(n)], _line_distances(pts), resolution)
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        spacing = draw(st.sampled_from([0.1, 1.0, 2.5]))
        isp = discrete_index_space([str(j) for j in range(m)], spacing=spacing)
    else:
        ks = draw(st.lists(st.integers(-7, 7), min_size=m, max_size=m, unique=True))
        jpts = [0.3 * k for k in ks]
        isp = FiniteSpace(labels=[str(j) for j in range(m)], dist=_line_distances(jpts))
    maps = draw(st.lists(
        st.lists(st.integers(0, space.n - 1), min_size=space.n, max_size=space.n),
        min_size=m, max_size=m,
    ))
    exact = draw(st.booleans())
    return MpIfs(space, isp, np.array(maps), np.zeros((m, space.n)), exact_maps=exact)


@settings(max_examples=150, deadline=None)
@given(contraction_systems())
def test_contraction_constant_matches_quadruple_loop(system):
    expected = naive_contraction_constant(
        distance_table(system.space), system.index_space.dist, system.maps, system.snap_slack
    )
    assert _estimates(system)[0] == expected


def test_contraction_constant_matches_on_random_systems():
    # snapped grid maps (slack > 0) and exact shift prepends, as validated;
    # on the grids the maximum is a quotient that rounds differently from
    # numer * (1 / denom)
    for system in (
        random_system(build_grid(0.0, 1.0, 17), 3, 3),
        random_system(build_grid(0.0, 1.0, 10), 1, 4),
        random_system(build_shift_space(3, 2), 3, 7),
    ):
        expected = naive_contraction_constant(
            distance_table(system.space), system.index_space.dist, system.maps, system.snap_slack
        )
        assert system.validation.gamma_hat == expected


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2)])
def test_contraction_constant_degenerate_is_zero(m, n):
    # (1, 1): no denominator is positive; otherwise every numerator is 0,
    # because all images coincide
    space = build_point_space([str(i) for i in range(n)], _line_distances(range(n)))
    system = MpIfs(space, discrete_index_space([str(j) for j in range(m)]),
                   np.zeros((m, n), dtype=int), np.zeros((m, n)), exact_maps=True)
    assert _estimates(system)[0] == 0.0


def test_contraction_constant_single_map_swap():
    # only the diagonal block (dJ = 0) exists; x1 = x2 has denominator 0
    space = build_point_space(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    system = MpIfs(space, discrete_index_space(["s"]), np.array([[1, 0]]),
                   np.zeros((1, 2)), exact_maps=True)
    assert _estimates(system)[0] == 1.0


def test_contraction_constant_across_maps_is_a_division():
    # two constant maps 3 apart and index distance 10: the maximum sits in the
    # off-diagonal block, and 3 / 10 != 3 * (1 / 10) in float
    space = build_point_space(["a", "b"], [[0.0, 3.0], [3.0, 0.0]])
    system = MpIfs(space, discrete_index_space(["1", "2"], spacing=10.0),
                   np.array([[0, 0], [1, 1]]), np.zeros((2, 2)), exact_maps=True)
    assert _estimates(system)[0] == 3.0 / 10.0 != 3.0 * (1 / 10.0)


def test_contraction_constant_memory_is_quadratic_in_n():
    # the shape of the benchmark's shift enumerate system: n = 343, m = 7;
    # (m*n)^2 tables would take about 225 MiB
    system = random_system(build_shift_space(7, 3), 7, 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _estimates(system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_validate_weight_errors():
    space = build_grid(0.0, 1.0, 2)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weights_must_be_finite_or_bottom(bad):
    space = build_grid(0.0, 1.0, 2)
    isp = discrete_index_space(["a", "b"], spacing=3.0)
    maps = np.array([[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="^max-plus values must be finite or -inf$"):
        MpIfs(space, isp, maps, np.array([[0.0, bad], [-1.0, BOTTOM]]))
    # the constructor admits a positive weight: validate refuses it as drift
    with pytest.raises(NormalizationError):
        validate(MpIfs(space, isp, maps, np.array([[0.5, 0.5], [-1.0, BOTTOM]])))


def test_validate_contraction_error():
    # the identity map is not a contraction on two points
    space = build_grid(0.0, 1.0, 2)
    isp = discrete_index_space(["id"], spacing=1.0)
    sys_id = MpIfs(space, isp, np.array([[0, 1]]), np.zeros((1, 2)), exact_maps=True)
    with pytest.raises(NotContractiveError):
        validate(sys_id)


def test_transfer_density_fixed_point_two_point():
    system = build_two_point_system()
    lam = Density(system.space, [0.0, -1.0])
    out = transfer_density(system, lam)
    assert out.values.tolist() == [0.0, -1.0]


def test_transfer_density_empty_preimage():
    # single constant map: only its target is ever hit
    space = build_grid(0.0, 1.0, 3)
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
    lam = rand_prob(space, seed)
    assert np.array_equal(
        transfer_density(system, lam).values,
        naive_transfer_density(system.maps, system.weights, lam.values),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["shift", "grid", "constant"]),
       st.integers(1, 5))
def test_block_transfer_is_the_scatter_pass_row_by_row(seed, kind, k):
    # signed zeros in weights and densities: every row's bits, -0.0 included,
    # and every row's deviation equal those of the density alone; "constant"
    # is a grid whose first map sends every point to one point
    rng = np.random.default_rng(seed)
    space = build_shift_space(3, 2) if kind == "shift" else build_grid(0.0, 1.0, 13)
    system = random_system(space, 3, seed % 1000)
    weights = system.weights * 0.1
    weights[weights == 0.0] = rng.choice([0.0, -0.0], size=int((weights == 0.0).sum()))
    maps = system.maps.copy()
    if kind == "constant":
        maps[0] = rng.integers(space.n)
    system = MpIfs(space, system.index_space, maps, weights, system.exact_maps)
    block = rng.choice([0.0, -0.0, BOTTOM, -0.5, -0.1], size=(k, space.n))
    block[:, 0] = rng.choice([0.0, -0.0], size=k)
    out = transfer_density(system, Density(space, block)).values
    devs = d_rho(Density(space, out), Density(space, block))
    for row, got, dev in zip(block, out, devs):
        assert got.tobytes() == scatter_transfer_density(maps, weights, row).tobytes()
        assert got.tobytes() == transfer_density(system, Density(space, row)).values.tobytes()
        alone = d_rho(Density(space, got), Density(space, row))
        assert np.float64(alone).tobytes() == dev.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_duality_exact(seed):
    space = build_grid(0.0, 1.0, 12)
    system = random_system(space, 2, seed % 997)
    rng = np.random.default_rng(seed)
    lam = rand_prob(space, seed + 1)
    f = dyadic(rng, 12)
    # mu(L lam, f) == mu(lam, Lf), with the operator on functions from the oracles
    lhs = naive_mu_eval(transfer_density(system, lam).values, f)
    assert lhs == naive_mu_eval(lam.values, naive_dual_transfer(system.maps, system.weights, f))


def test_duality_dirac_unfolds():
    system = build_two_point_system()
    lam = Density(system.space, [0.0, BOTTOM])
    f = np.array([2.0, 5.0])
    expected = max(
        system.weights[j, 0] + f[system.maps[j, 0]] for j in range(2)
    )
    dual = naive_dual_transfer(system.maps, system.weights, f)
    assert naive_mu_eval(lam.values, dual) == expected
    assert naive_mu_eval(transfer_density(system, lam).values, f) == expected


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
    zero = naive_dual_transfer(system.maps, system.weights, np.zeros(system.space.n))
    assert naive_mu_eval(lam.values, zero) == 0.0


def transfer_step(system):
    return lambda values: transfer_density(system, Density(system.space, values)).values


def test_iterate_transfer_two_point():
    system = build_two_point_system()
    values, _, converged = iterate_transfer(transfer_step(system), np.zeros(2))
    assert converged
    assert values.tolist() == [0.0, -1.0]


def test_iterate_transfer_fixed_start():
    system = build_two_point_system()
    values, iterations, converged = iterate_transfer(transfer_step(system), [0.0, -1.0])
    assert converged and iterations == 1
    assert values.tolist() == [0.0, -1.0]


def test_iterate_transfer_stays_on_family_member():
    system = build_nonunique_shift_system(4)
    lam = lambda_alpha(4, 0.5)
    values, iterations, converged = iterate_transfer(transfer_step(system), lam.values)
    assert converged and iterations == 1
    assert np.array_equal(values, lam.values)


def test_d_rho_handles_bottom():
    space = build_grid(0.0, 1.0, 2)
    a = Density(space, [0.0, BOTTOM])
    b = Density(space, [0.0, 0.0])
    assert d_rho(a, b) == 1.0


def test_bottom_weights_accepted():
    # a branch can be switched off entirely at some points
    space = build_grid(0.0, 1.0, 2)
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


def _weighted_system(weights):
    weights = np.array(weights, dtype=np.float64)
    m, n = weights.shape
    return MpIfs(build_grid(0.0, 1.0, n), discrete_index_space([str(j) for j in range(m)]),
                 np.zeros((m, n), dtype=np.intp), weights)


@pytest.mark.parametrize("weights, constant", [
    ([[0.0, 0.0, 0.0], [BOTTOM] * 3], True),  # a map switched off everywhere is skipped
    ([[BOTTOM] * 3, [BOTTOM] * 3], True),
    ([[0.0, 0.0, 0.0], [-1.0, BOTTOM, -1.0]], False),  # switched off at one point only
    ([[BOTTOM, 0.0, 0.0], [BOTTOM] * 3], False),
    ([[0.0, 0.0, 0.0], [-1.0, -1.0, -1.0 + 5e-13]], True),  # within CONSTANT_WEIGHT_TOL
    ([[0.0, 0.0, 0.0], [-1.0, -1.0, -1.0 + 2e-12]], False),
], ids=["all-bottom-map", "all-bottom", "mixed-row", "mixed-and-all-bottom", "within-tol", "beyond-tol"])
def test_constant_weight_rows(weights, constant):
    assert _weighted_system(weights).is_constant_weight() is constant


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.integers(2, 6).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0.0, -0.5, -0.5 + CONSTANT_WEIGHT_TOL / 2, -0.5 - 2 * CONSTANT_WEIGHT_TOL,
                              BOTTOM]), min_size=n, max_size=n), min_size=m, max_size=m))))
def test_constant_weight_is_the_per_map_loop(weights):
    system = _weighted_system(weights)
    assert system.is_constant_weight() is naive_is_constant_weight(system.weights, CONSTANT_WEIGHT_TOL)
