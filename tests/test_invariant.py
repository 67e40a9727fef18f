import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropifs import invariant, spaces
from tropifs.errors import ConfigError, InternalError, NotConstantWeightError
from tropifs.examples import (
    build_nonunique_shift_system,
    build_two_point_system,
    discrete_index_space,
    lambda_alpha,
    random_system,
)
from tropifs.invariant import (
    MAX_CODING_DEPTH,
    MAX_COMPOSITE_SET,
    BoundaryData,
    build_invariant,
    coding_map,
    constant_weight_density,
    enumerate_invariants,
    verify_invariant,
)
from tropifs.maxplus import BOTTOM
from tropifs.mane import PotentialMatrix, mane_potential
from tropifs.measures import Density
from tropifs.mpifs import MpIfs, d_rho, transfer_density, validate
from tropifs.spaces import CHUNK_VALUES, build_grid, build_shift_space

from oracles import (
    build_point_space,
    composite_collapse_depth,
    dense_closure,
    dyadic_mp,
    enumerate_by_assignment,
    iterate_transfer,
    j0_image,
    word_table,
    zero_weight_maps,
)


def test_boundary_data_validation():
    BoundaryData(values={0: 0.0, 1: -1.0}, anchor=0)
    BoundaryData(values={0: 0.0, 1: BOTTOM}, anchor=0)
    with pytest.raises(ConfigError):
        BoundaryData(values={1: -1.0}, anchor=0)
    with pytest.raises(ConfigError):
        BoundaryData(values={0: -0.5}, anchor=0)
    with pytest.raises(ConfigError):
        BoundaryData(values={0: 0.0, 1: 0.5}, anchor=0)


def test_build_invariant_two_point():
    pot = mane_potential(build_two_point_system())
    lam = build_invariant(pot, BoundaryData(values={0: 0.0}, anchor=0))
    assert lam.values.tolist() == [0.0, -1.0]


def test_build_invariant_domain_mismatch():
    pot = mane_potential(build_two_point_system())
    with pytest.raises(ConfigError):
        build_invariant(pot, BoundaryData(values={0: 0.0, 1: -1.0}, anchor=0))


@pytest.mark.parametrize("depth", [3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
def test_build_invariant_matches_family(depth, alpha):
    system = build_nonunique_shift_system(depth)
    pot = mane_potential(system)
    words = system.space.points
    boundary = BoundaryData(
        values={words.index((1,) * depth): 0.0, words.index((2,) * depth): -alpha},
        anchor=words.index((1,) * depth),
    )
    built = build_invariant(pot, boundary)
    assert np.array_equal(built.values, lambda_alpha(depth, alpha).values)


def test_build_invariant_single_anchor_is_column():
    system = build_nonunique_shift_system(3)
    pot = mane_potential(system)
    z = pot.aubry[0]
    lam = build_invariant(pot, BoundaryData(values={z: 0.0}, anchor=z))
    assert np.array_equal(lam.values, dense_closure(system).entries[:, z])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_build_invariant_monotone_in_boundary(seed):
    system = build_nonunique_shift_system(4)
    pot = mane_potential(system)
    rng = np.random.default_rng(seed)
    z0, z1 = pot.aubry
    low = float(-rng.random() - 0.1)
    high = low + float(rng.random() * 0.1)
    lam_low = build_invariant(pot, BoundaryData(values={z0: 0.0, z1: low}, anchor=z0))
    lam_high = build_invariant(pot, BoundaryData(values={z0: 0.0, z1: high}, anchor=z0))
    assert np.all(lam_low.values <= lam_high.values)


def test_verify_invariant():
    system = build_two_point_system()
    pot = mane_potential(system)
    lam = build_invariant(pot, BoundaryData(values={0: 0.0}, anchor=0))
    report = verify_invariant(system, lam)
    assert report.passed and report.max_deviation == 0.0

    for alpha in (0.0, 0.25, 0.5):
        lam_a = lambda_alpha(5, alpha)
        rep = verify_invariant(build_nonunique_shift_system(5), lam_a)
        assert rep.passed and rep.max_deviation == 0.0

    perturbed = Density(system.space, [0.0, -1.1])
    rep = verify_invariant(system, perturbed)
    assert not rep.passed
    assert rep.max_deviation >= abs(np.exp(-1.0) - np.exp(-1.1)) - 1e-15


@pytest.mark.parametrize("chunk", [1, 16, 40, CHUNK_VALUES])
def test_verify_invariant_folds_a_block_in_chunks(chunk):
    system = build_nonunique_shift_system(4)
    n = system.space.n
    block = np.stack([lambda_alpha(4, a).values for a in (0.0, 0.25, 0.5)])
    block = np.concatenate([block, block - np.eye(3, n)])  # three fail the check
    sizes = []

    def spy(system, lam):
        sizes.append(lam.values.size)
        return transfer_density(system, lam)

    with mock.patch.object(spaces, "CHUNK_VALUES", chunk), \
            mock.patch.object(invariant, "transfer_density", spy):
        rep = verify_invariant(system, Density(system.space, block))
    assert max(sizes) <= max(chunk, n) and sum(sizes) == block.size
    one = [verify_invariant(system, Density(system.space, row)) for row in block]
    assert rep.max_deviation.tobytes() == np.array([r.max_deviation for r in one]).tobytes()
    assert rep.passed.tolist() == [r.passed for r in one] == [True] * 3 + [False] * 3


def test_enumerate_invariants_shift():
    system = build_nonunique_shift_system(4)
    pot = mane_potential(system)
    found = enumerate_invariants(pot, [0.0, -0.25, -0.5])
    assert found.shape == (3, system.space.n)
    rep = verify_invariant(system, Density(system.space, found))
    assert rep.passed.all() and (rep.max_deviation == 0.0).all()
    # the three are exactly the family members
    for alpha in (0.0, 0.25, 0.5):
        target = lambda_alpha(4, alpha).values
        assert any(np.array_equal(values, target) for values in found)


def _outcome(enumerate_fn, *args):
    try:
        return enumerate_fn(*args)
    except ConfigError as exc:
        return type(exc), str(exc)


def _enumeration_system(kind, seed, scale, signed_zeros):
    """A random shift or grid system whose weights are scaled by ``scale``
    (non-dyadic unless it is a power of 2), its zero weights given random
    signs when ``signed_zeros``.  On a "free shift" the map of each word's
    first symbol costs 0, so all three constant words are Aubry points."""
    if kind == "grid":  # snapped affine maps: not injective
        system = random_system(build_grid(0.0, 1.0, 11), 3, seed)
    else:
        system = random_system(build_shift_space(3, 2), 3, seed)
    weights = system.weights * scale
    if kind == "free shift":
        weights[np.arange(9) // 3, np.arange(9)] = 0.0
    if signed_zeros:
        rng = np.random.default_rng(seed)
        weights[weights == 0.0] = rng.choice([0.0, -0.0], size=int((weights == 0.0).sum()))
    system = MpIfs(system.space, system.index_space, system.maps, weights, system.exact_maps)
    validate(system)
    return system


_levels = st.lists(
    st.sampled_from([0.0, -0.0, BOTTOM, -0.25, -1.5, -0.1, -0.7000000000000001, -2.0**-30]),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["shift", "free shift", "grid"]),
    st.integers(0, 2**16),
    st.sampled_from([1.0, 0.5, 0.1, 0.3]),
    st.booleans(),
    _levels,
    st.sampled_from([1e-9, 0.05, 0.5]),
    st.sampled_from([1, 7, 64, CHUNK_VALUES]),
)
@example("free shift", 0, 1.0, False, [], 1e-9, CHUNK_VALUES)  # three Aubry points, no level
def test_enumerate_invariants_matches_assignment_loop(
    kind, seed, scale, signed_zeros, levels, tol_aubry, chunk
):
    system = _enumeration_system(kind, seed, scale, signed_zeros)
    pot = mane_potential(system, tol_aubry=tol_aubry)
    if signed_zeros:  # -0.0 in the columns, so that densities can differ in the sign of 0 only
        columns = np.where(pot.columns == 0.0, -0.0, pot.columns)
        pot = PotentialMatrix(pot.aubry, pot.tol_aubry, columns, system.space)
    if len(levels) ** (len(pot.aubry) - 1) > 256:
        return  # the loop would take long; the limit itself is checked elsewhere
    expected = _outcome(enumerate_by_assignment, system, pot, levels)
    with mock.patch.object(spaces, "CHUNK_VALUES", chunk):
        got = _outcome(enumerate_invariants, pot, levels)
        if not isinstance(got, tuple):  # folded in chunks of the same size
            devs = verify_invariant(system, Density(system.space, got)).max_deviation
    if not levels and len(pot.aubry) > 1:  # the loop built nothing and returned []
        assert expected == [] and got[0] is ConfigError and "levels" in got[1]
    elif isinstance(expected, tuple):
        assert got == expected
    else:  # failed deviations included: verifying is the caller's part
        assert [lam.values.tobytes() for lam, _ in expected] == [row.tobytes() for row in got]
        assert np.array([dev for _, dev in expected]).tobytes() == devs.tobytes()


def test_enumerate_invariants_constant_weight_collapses():
    system = random_system(build_grid(0.0, 1.0, 20), 2, 3, constant_weights=True)
    pot = mane_potential(system)
    assert len(enumerate_invariants(pot, [0.0, -0.5, -1.0])) == 1


def test_enumerate_invariants_singleton_aubry():
    system = build_two_point_system()
    pot = mane_potential(system)
    assert len(enumerate_invariants(pot, [0.0, -1.0])) == 1


def test_enumerate_invariants_rejects_positive_levels():
    system = build_two_point_system()
    pot = mane_potential(system)
    with pytest.raises(ConfigError):
        enumerate_invariants(pot, [0.5])


def test_coding_map_two_point():
    system = build_two_point_system()
    assert coding_map(system) == 1
    assert word_table(system, 1) == {(0,): 0, (1,): 1}
    assert zero_weight_maps(system) == (0,)


def test_coding_map_single_constant_map():
    from tropifs.examples import discrete_index_space
    from tropifs.mpifs import MpIfs, validate

    space = build_grid(0.0, 1.0, 4)
    system = MpIfs(
        space, discrete_index_space(["c"]), np.full((1, 4), 3), np.zeros((1, 4)),
        exact_maps=True,
    )
    validate(system)
    depth = coding_map(system)
    assert set(word_table(system, depth).values()) == {3}


def test_coding_map_shift_words():
    system = random_system(build_shift_space(2, 3), 2, 1, constant_weights=True)
    assert coding_map(system) == 3
    words = system.space.points
    for word, target in word_table(system, 3).items():
        spelled = tuple(j + 1 for j in word)
        assert words[target] == spelled


def test_coding_map_gives_up_past_the_composite_set_limit():
    # the prepends on the binary words of a depth have 2^k image sets at level k, and single
    # words at the depth: depth 13 passes 2^12 = MAX_COMPOSITE_SET sets at level 12 and
    # collapses, depth 14 stops at level 13, where 2^13 sets of two words are past the limit
    assert MAX_COMPOSITE_SET == 2**12
    for depth, expected in ((13, 13), (14, None)):
        system = random_system(build_shift_space(2, depth), 2, 1, constant_weights=True)
        assert coding_map(system) == expected


def test_coding_map_requires_constant_weights():
    with pytest.raises(NotConstantWeightError):
        coding_map(build_nonunique_shift_system(3))


@st.composite
def exact_constant_weight_systems(draw):
    """Prepend maps on a shift, or arbitrary index maps on a few points."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        symbols = draw(st.integers(2, 3))
        depth = draw(st.integers(1, 5 if symbols == 2 else 3))
        return random_system(build_shift_space(symbols, depth), symbols, seed,
                             constant_weights=True)
    # n <= 5 keeps the oracle's composites at most 5^5 per level
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    weights = np.repeat(-np.arange(m, dtype=np.float64)[:, None], n, axis=1)
    # unit distances and a resolution of 1/2 let the contraction check
    # accept any maps; coding_map reads the maps only once validated
    space = build_point_space([str(i) for i in range(n)], 1.0 - np.eye(n), resolution=0.5)
    system = MpIfs(space, discrete_index_space([str(j) for j in range(m)]),
                   rng.integers(0, n, size=(m, n)), weights)
    validate(system)
    return dataclasses.replace(system, exact_maps=True)


@settings(max_examples=60, deadline=None)
@given(exact_constant_weight_systems())
def test_coding_map_depth_matches_the_composite_oracle(system):
    expected = composite_collapse_depth(system.maps.tolist(), MAX_CODING_DEPTH)
    assert coding_map(system) == expected


def test_constant_weight_density_two_point():
    system = build_two_point_system()
    pot = mane_potential(system)
    lam = constant_weight_density(system, pot)
    assert lam.values.tolist() == [0.0, -1.0]


def test_constant_weight_density_all_zero_weights():
    # two prepend maps, both free: every word costs 0
    from tropifs.examples import discrete_index_space
    from tropifs.mpifs import MpIfs, validate

    space = build_shift_space(2, 2)
    base = build_nonunique_shift_system(2)
    system = MpIfs(
        space, base.index_space, base.maps.copy(), np.zeros((2, space.n)),
        exact_maps=True,
    )
    validate(system)
    pot = mane_potential(system)
    lam = constant_weight_density(system, pot)
    assert np.all(lam.values == 0.0)
    assert set(pot.aubry) == set(range(space.n))
    # with exact maps, Aubry columns that disagree can only be a bug
    cols = pot.columns.copy()
    cols[0, 1] -= 0.5
    with pytest.raises(InternalError, match="disagree"):
        constant_weight_density(system, PotentialMatrix(pot.aubry, pot.tol_aubry, cols, system.space))


def test_constant_weight_density_rejects_place_dependent():
    system = build_nonunique_shift_system(3)
    pot = mane_potential(system)
    with pytest.raises(NotConstantWeightError):
        constant_weight_density(system, pot)


def _one_free_map(space, maps, penalty, exact_maps):
    from tropifs.examples import discrete_index_space
    from tropifs.mpifs import MpIfs, validate

    weights = np.repeat([[0.0], [penalty]], space.n, axis=1)
    system = MpIfs(space, discrete_index_space(["1", "2"], 2.5), maps, weights,
                   exact_maps=exact_maps)
    validate(system)
    return system


@pytest.mark.parametrize("system", [
    # prepend maps on the binary shift: exact, collapse depth 3
    _one_free_map(build_shift_space(2, 3), build_nonunique_shift_system(3).maps, -0.75, True),
    # a snapped grid whose only free map is constant onto point 5
    _one_free_map(
        build_grid(0.0, 1.0, 17),
        [[5] * 17, np.rint((0.5 * np.linspace(0.0, 1.0, 17) + 0.5) * 16).astype(int)],
        -0.5, False,
    ),
], ids=["exact-shift", "snapped-grid"])
def test_constant_weight_density_rejects_a_lowered_column_entry(system):
    pot = mane_potential(system)
    (anchor,) = pot.aubry
    assert coding_map(system) == (3 if system.exact_maps else None)
    constant_weight_density(system, pot)
    rows = [x for x in np.flatnonzero(pot.columns[:, 0] > BOTTOM) if x != anchor]
    assert rows
    # raised entries (kept below the anchor's 0) are caught only by the
    # coding series of exact maps
    shifts = (-0.5, 0.5) if system.exact_maps else (-0.5,)
    for x in rows:
        for shift in shifts:
            cols = pot.columns.copy()
            cols[x, 0] = min(cols[x, 0] + shift, -0.25)
            bad = PotentialMatrix(pot.aubry, pot.tol_aubry, cols, system.space)
            with pytest.raises(InternalError):
                constant_weight_density(system, bad)


def test_j0_image_matches_aubry_symbolic():
    for symbols, depth, seed in ((2, 3, 0), (2, 4, 5), (3, 3, 2)):
        system = random_system(
            build_shift_space(symbols, depth), symbols, seed, constant_weights=True
        )
        pot = mane_potential(system)
        assert j0_image(system, coding_map(system)) == set(pot.aubry)
    # the two-point system: zero-weight words are the all-first-map ones
    system = build_two_point_system()
    assert j0_image(system, coding_map(system)) == {0} == set(mane_potential(system).aubry)


def test_uniqueness_iteration_evidence():
    system = random_system(build_grid(0.0, 1.0, 40), 3, 17, constant_weights=True)
    pot = mane_potential(system)
    lam = constant_weight_density(system, pot)
    rng = np.random.default_rng(0)
    for _ in range(20):
        vals = dyadic_mp(rng, 40, p_bottom=0.1)
        if not (vals > BOTTOM).any():
            vals[0] = 0.0
        values, _, converged = iterate_transfer(
            lambda v: transfer_density(system, Density(system.space, v)).values, vals, tol=1e-13
        )
        assert converged
        assert d_rho(Density(system.space, values), lam) <= 1e-9


def test_build_invariant_outputs_verify_exactly():
    for depth in (3, 5):
        system = build_nonunique_shift_system(depth)
        pot = mane_potential(system)
        for assignment in ([0.0, 0.0], [0.0, -0.75]):
            z0, z1 = pot.aubry
            lam = build_invariant(
                pot, BoundaryData(values={z0: assignment[0], z1: assignment[1]}, anchor=z0)
            )
            assert verify_invariant(system, lam).max_deviation == 0.0


def test_build_invariant_verifies_on_grids():
    # place-dependent snapped systems: built densities are still exact fixed
    # points because every Aubry diagonal is attained at exactly 0
    rng = np.random.default_rng(2)
    for seed in range(6):
        system = random_system(build_grid(0.0, 1.0, 25), 2, seed)
        pot = mane_potential(system)
        levels = {z: float(-np.round(rng.random() * 2**10) / 2**10) for z in pot.aubry}
        anchor = pot.aubry[0]
        levels[anchor] = 0.0
        lam = build_invariant(pot, BoundaryData(values=levels, anchor=anchor))
        assert verify_invariant(system, lam, tol=1e-12).max_deviation == 0.0
