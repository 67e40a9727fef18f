import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropifs import examples
from tropifs.errors import ConfigError, NotContractiveError
from tropifs.examples import (
    ShiftExampleSpec,
    build_nonunique_shift_system,
    build_two_point_system,
    demonstrate_nonuniqueness,
    lambda_alpha,
    random_system,
)
from tropifs.mane import mane_potential
from tropifs.mpifs import transfer_density, validate
from tropifs.spaces import build_grid, build_shift_space

from oracles import word_prepend_maps


def test_shift_system_maps_and_weights():
    system = build_nonunique_shift_system(3)
    words = system.space.points
    i = words.index((2, 1, 2))
    assert words[system.maps[0, i]] == (1, 2, 1)  # prepend 1, drop last
    for w in words:
        k = words.index(w)
        if w[0] == 1:
            assert system.weights[0, k] == 0.0 and system.weights[1, k] == -1.0
        else:
            assert system.weights[0, k] == -1.0 and system.weights[1, k] == 0.0


def test_shift_system_contraction_constant():
    assert build_nonunique_shift_system(4).validation.gamma_hat == 0.5


def test_lambda_alpha_displayed_values():
    w4 = build_shift_space(2, 4).points
    lam4 = lambda_alpha(4, 0.3125)
    assert lam4.values[w4.index((2, 2, 2, 1))] == -1.0
    w5 = build_shift_space(2, 5).points
    lam5 = lambda_alpha(5, 0.3125)
    assert lam5.values[w5.index((2, 1, 1, 2, 1))] == -3.0
    assert lam5.values[w5.index((2, 2, 2, 1, 2))] == -2.0 - 0.3125
    assert lam5.values[w5.index((2, 2, 2, 2, 2))] == -0.3125
    assert lam5.values.max() == 0.0


@pytest.mark.parametrize("depth", range(2, 9))
def test_lambda_alpha_is_exact_fixed_point(depth):
    system = build_nonunique_shift_system(depth)
    for alpha in (0.0, 0.125, 0.25, 0.5, 0.875):
        lam = lambda_alpha(depth, alpha)
        assert np.array_equal(transfer_density(system, lam).values, lam.values)


# zeros, dyadic values, values just below 1 and values off the lattice
ALPHAS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1 - 2**-26, float(np.nextafter(1.0, 0.0))]),
    st.integers(0, 2**26 - 1).map(lambda k: k * 2.0**-26),
    st.integers(1, 2**20).map(lambda k: 1 - k * 2.0**-53),
    st.floats(0.0, 1.0, exclude_max=True),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.lists(ALPHAS, max_size=6))
def test_lambda_alpha_block_rows_are_the_single_densities(depth, alphas):
    block = lambda_alpha(depth, np.array(alphas, dtype=np.float64))
    assert block.values.shape == (len(alphas), 2**depth)
    for row, alpha in zip(block.values, alphas):
        assert row.tobytes() == lambda_alpha(depth, alpha).values.tobytes()


def test_lambda_alpha_rejects_bad_alpha():
    with pytest.raises(ConfigError):
        lambda_alpha(3, 1.0)
    with pytest.raises(ConfigError):
        lambda_alpha(3, -0.1)


def test_aubry_set_is_constant_words():
    for depth in (2, 3, 4, 5):
        system = build_nonunique_shift_system(depth)
        pot = mane_potential(system)
        words = system.space.points
        assert {words[i] for i in pot.aubry} == {(1,) * depth, (2,) * depth}


def test_demonstrate_nonuniqueness():
    report, block = demonstrate_nonuniqueness(ShiftExampleSpec(depth=6, alphas=[0.0, 0.25, 0.5]))
    assert report["fixed_point_exact"] == [True, True, True]
    assert report["boundary_match_exact"] == [True, True, True]
    assert len(block.values) == 3
    for i in range(3):
        for k in range(3):
            assert (report["pairwise_d_theta"][i][k] > 0) == (i != k)


def test_demonstrate_single_alpha():
    report, block = demonstrate_nonuniqueness(ShiftExampleSpec(depth=3, alphas=[0.0]))
    assert len(block.values) == 1 and report["fixed_point_exact"] == [True]


def test_spec_validation():
    with pytest.raises(ConfigError):
        ShiftExampleSpec(depth=6, alphas=[0.0, 0.0])
    with pytest.raises(ConfigError):
        ShiftExampleSpec(depth=1, alphas=[0.0])
    with pytest.raises(ConfigError):
        ShiftExampleSpec(depth=4, alphas=[0.0, 1.0])


def test_random_system_reproducible():
    space = build_grid(0.0, 1.0, 15)
    a = random_system(space, 3, 42)
    b = random_system(space, 3, 42)
    assert np.array_equal(a.maps, b.maps)
    assert np.array_equal(a.weights, b.weights)
    c = random_system(space, 3, 43)
    assert not (np.array_equal(a.maps, c.maps) and np.array_equal(a.weights, c.weights))


def test_random_system_validates_and_flags():
    for seed in range(8):
        s = random_system(build_grid(0.0, 1.0, 10), 2, seed)
        assert s.validation.valid and s.validation.gamma_hat < 1
        assert np.all(s.weights.max(axis=0) == 0.0)
    cw = random_system(build_grid(0.0, 1.0, 10), 3, 1, constant_weights=True)
    assert cw.is_constant_weight()
    pd = random_system(build_grid(0.0, 1.0, 10), 3, 1, constant_weights=False)
    assert not pd.is_constant_weight()


def test_random_system_retries_a_draw_that_fails_validation(monkeypatch):
    # 16 points one ulp apart: the snapped maps of the first draw at seed 4
    # are not contractions, those of the second are
    outcomes = []

    def recording_validate(system):
        try:
            report = validate(system)
        except NotContractiveError:
            outcomes.append("not contractive")
            raise
        outcomes.append("valid")
        return report

    monkeypatch.setattr(examples, "validate", recording_validate)
    system = random_system(build_grid(1.0, 1.0 + 15 * 2**-52, 16), 2, 4)
    assert outcomes == ["not contractive", "valid"]
    assert system.validation.gamma_hat == 0.5714285714285714


def test_random_shift_system_needs_matching_maps():
    with pytest.raises(ConfigError):
        random_system(build_shift_space(2, 3), 3, 0)


@pytest.mark.parametrize("symbols, depth", [(1, 3), (2, 1), (2, 5), (3, 4), (4, 3), (7, 3)])
def test_random_shift_maps_equal_the_word_construction(symbols, depth):
    system = random_system(build_shift_space(symbols, depth), symbols, 0)
    assert np.array_equal(system.maps, word_prepend_maps(symbols, depth))


@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_nonunique_shift_maps_and_weights_equal_the_word_construction(depth):
    system = build_nonunique_shift_system(depth)
    assert np.array_equal(system.maps, word_prepend_maps(2, depth))
    first = np.array([w[0] for w in system.space.points])
    assert np.array_equal(system.weights, np.where(np.array([[1], [2]]) == first, 0.0, -1.0))


def test_two_point_system_shape():
    system = build_two_point_system()
    assert system.space.n == 2 and system.num_maps == 2
    assert system.validation.gamma_hat == 0.5
    assert system.is_constant_weight()
