import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropifs.errors import DimensionError, PositiveCycleError
from tropifs.maxplus import BOTTOM, MpMatrix, kleene_plus

from oracles import closure_to_fixed_point, dyadic, dyadic_mp, naive_mat_mul, paths_closure

# Scalars can be arbitrary floats: the semiring laws below hold exactly for
# max and + on any float64 values, BOTTOM included, which is what lets the
# library compute with plain numpy max and + on -inf.
mp_scalar = st.one_of(
    st.just(BOTTOM),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)


@given(mp_scalar, mp_scalar, mp_scalar)
def test_scalar_laws(a, b, c):
    assert max(a, b) == max(b, a)
    assert max(max(a, b), c) == max(a, max(b, c))
    assert max(a, a) == a
    assert max(a, BOTTOM) == a
    assert a + BOTTOM == BOTTOM
    assert a + 0.0 == a
    # distributivity is exact: adding a to both sides of a max
    assert a + max(b, c) == max(a + b, a + c)


def _mat(entries):
    return MpMatrix(np.array(entries, dtype=float))


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


def _closure_input(kind, n, seed):
    """An n x n matrix of one ``kind`` of input to the closure's stop rule."""
    rng = np.random.default_rng(seed)
    bottom = rng.random((n, n)) < 0.3
    if kind == "dyadic":
        a = dyadic(rng, n, n)
    elif kind == "non-dyadic":
        a = rng.uniform(-5.0, 0.0, size=(n, n))
    elif kind == "signed-zeros":
        a = rng.choice([-0.0, 0.0, -0.25, -0.5], size=(n, n))
    elif kind == "positive":
        # a potential h shifts every cycle by 0: positive entries, no positive cycle
        h = dyadic(rng, n, lo=-3.0, hi=3.0)
        if rng.random() < 0.5:
            h = h + rng.uniform(-1e-3, 1e-3, size=n)
        a = dyadic(rng, n, n) + h[:, None] - h[None, :]
    else:
        # multiples of q whose largest magnitude sits at the bound
        # 2 * n * max|entry| < 2^E = 2^53 * q (offset 0) or just across it;
        # at the least q it sits at 2^52 * q, where the rule's 2^(E - 53)
        # underflows below the offset and is q above it
        scale = int(rng.choice([-1074, -1000, -30, 0, 30, 900]))
        span = 52 if scale == -1074 else 53
        top = -(-(2**span) // (2 * n)) - 1 + int(rng.integers(-1, 2))
        k = rng.integers(0, top + 1, size=(n, n))
        k.flat[rng.integers(n * n)] = top
        a = -k * np.ldexp(1.0, scale)
    a[bottom] = BOTTOM
    return a


CLOSURE_KINDS = ["dyadic", "non-dyadic", "signed-zeros", "positive", "edge"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CLOSURE_KINDS), st.integers(1, 9), st.integers(0, 2**32 - 1))
@example("signed-zeros", 3, 6)
def test_kleene_equals_sweeps_to_fixed_point(kind, n, seed):
    a = _closure_input(kind, n, seed)
    try:
        expected = closure_to_fixed_point(a)
    except ValueError:
        with pytest.raises(PositiveCycleError):
            kleene_plus(MpMatrix(a))
        return
    assert kleene_plus(MpMatrix(a)).entries.tobytes() == expected.tobytes()


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
