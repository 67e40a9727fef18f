import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropifs.errors import DimensionError, PositiveCycleError
from tropifs.maxplus import BOTTOM, MpMatrix, kleene_plus, mp_eye, mp_mat_mul, odot, oplus

from oracles import dyadic_mp, naive_mat_mul, paths_closure

# Scalars can be arbitrary floats: the scalar laws below hold exactly for
# any float64 values, BOTTOM included.
mp_scalar = st.one_of(
    st.just(BOTTOM),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)


def test_oplus_examples():
    assert oplus(3.0, -1.0) == 3.0
    assert oplus(BOTTOM, -5.0) == -5.0
    assert oplus(BOTTOM, BOTTOM) == BOTTOM


def test_odot_examples():
    assert odot(3.0, -1.0) == 2.0
    assert odot(BOTTOM, 7.0) == BOTTOM
    for x in (BOTTOM, -2.5, 0.0, 17.0):
        assert odot(0.0, x) == x


@given(mp_scalar, mp_scalar, mp_scalar)
def test_scalar_laws(a, b, c):
    assert oplus(a, b) == oplus(b, a)
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
    assert oplus(a, a) == a
    assert oplus(a, BOTTOM) == a
    assert odot(a, BOTTOM) == BOTTOM
    assert odot(a, 0.0) == a
    # distributivity is exact: adding a to both sides of a max
    assert odot(a, oplus(b, c)) == oplus(odot(a, b), odot(a, c))


def _mat(entries):
    return MpMatrix(np.array(entries, dtype=float))


def test_mat_mul_frozen_square():
    a = _mat([[0.0, -1.0], [BOTTOM, 0.0]])
    sq = mp_mat_mul(a, a)
    # hand expansion of max_j a[i,j] + a[j,k]
    assert sq.entries.tolist() == [[0.0, -1.0], [BOTTOM, 0.0]]


def test_mat_mul_identity_and_absorber():
    rng = np.random.default_rng(1)
    a = MpMatrix(dyadic_mp(rng, 5, 5))
    eye = mp_eye(5)
    assert mp_mat_mul(eye, a) == a
    assert mp_mat_mul(a, eye) == a
    bot = MpMatrix(np.full((5, 5), BOTTOM))
    assert mp_mat_mul(bot, a) == bot
    assert mp_mat_mul(a, bot) == bot


def test_mat_mul_dimension_error():
    with pytest.raises(DimensionError):
        mp_mat_mul(_mat([[0.0, 1.0]]), _mat([[0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_mat_mul_associative_and_matches_oracle(n, seed):
    # dyadic entries keep every sum exact, so association order is moot
    rng = np.random.default_rng(seed)
    a, b, c = (MpMatrix(dyadic_mp(rng, n, n)) for _ in range(3))
    left = mp_mat_mul(mp_mat_mul(a, b), c)
    right = mp_mat_mul(a, mp_mat_mul(b, c))
    assert left == right
    assert np.array_equal(mp_mat_mul(a, b).entries, naive_mat_mul(a.entries, b.entries))


def test_kleene_frozen_examples():
    a = _mat([[0.0, BOTTOM], [-1.0, BOTTOM]])
    # paths: 0->0 self loop at 0, edge 0->1 at -1; enumerate lengths 1, 2
    assert kleene_plus(a).entries.tolist() == [[0.0, BOTTOM], [-1.0, BOTTOM]]
    bot = MpMatrix(np.full((3, 3), BOTTOM))
    assert kleene_plus(bot) == bot
    one = _mat([[0.0]])
    assert kleene_plus(one).entries.tolist() == [[0.0]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_kleene_matches_path_enumeration(n, seed):
    rng = np.random.default_rng(seed)
    a = dyadic_mp(rng, n, n, lo=-5.0, hi=0.0, p_bottom=0.4)
    closure = kleene_plus(MpMatrix(a))
    assert np.array_equal(closure.entries, paths_closure(a, max_len=n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_kleene_fixed_point_identity(n, seed):
    rng = np.random.default_rng(seed)
    a = MpMatrix(dyadic_mp(rng, n, n, p_bottom=0.4))
    plus = kleene_plus(a)
    again = np.maximum(a.entries, naive_mat_mul(a.entries, plus.entries))
    assert np.array_equal(plus.entries, again)


def test_kleene_positive_cycle():
    with pytest.raises(PositiveCycleError):
        kleene_plus(_mat([[BOTTOM, 0.5], [0.0, BOTTOM]]))
    with pytest.raises(PositiveCycleError):
        kleene_plus(_mat([[1e-9]]))


def test_kleene_requires_square():
    with pytest.raises(DimensionError):
        kleene_plus(_mat([[0.0, 1.0]]))


def test_matrix_rejects_nan_and_plus_inf():
    with pytest.raises(ValueError):
        _mat([[np.nan]])
    with pytest.raises(ValueError):
        _mat([[np.inf]])
