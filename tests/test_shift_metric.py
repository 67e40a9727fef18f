"""Shift spaces read the cylinder metric from the word order.

Every routine that does so is checked for exact equality (``==`` on
floats, ``tobytes`` on tables) against the dense routine on an explicit
space holding the same table, and against the loop oracles.  The shift
side must never build its table.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tropifs.mpifs as mpifs
import tropifs.spaces as spaces
from tropifs.examples import _prepend_maps, discrete_index_space, random_system
from tropifs.fuzzy import FuzzySet, d_infty, d_theta, fhb_attractor
from tropifs.invariant import BoundaryData, build_invariant
from tropifs.mane import mane_potential
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density
from tropifs.mpifs import MpIfs, _estimates, validate
from tropifs.serialize import space_from_jsonable
from tropifs.spaces import FiniteSpace, build_shift_space, hausdorff

from oracles import (
    distance_table,
    naive_contraction_constant,
    naive_cut_distance,
    naive_cylinder_table,
    naive_d_infty,
    naive_d_theta,
    naive_weight_lipschitz,
    space_to_jsonable,
)


def dense_twin(space):
    """An explicit space with the shift's table, built by the loop oracle."""
    table = naive_cylinder_table(space.points)
    return FiniteSpace(list(space.labels), dist=table, resolution=space.resolution)


@st.composite
def small_shifts(draw, max_points=64):
    symbols = draw(st.integers(1, 5))
    depth = 1
    while (symbols ** (depth + 1) <= max_points) and depth < 6:
        depth += 1
    return build_shift_space(symbols, draw(st.integers(1, depth)))


@st.composite
def shift_systems(draw):
    """Unvalidated systems on a shift: random, prepend, constant or sorted
    maps; dyadic or non-dyadic weights with BOTTOM entries; either value
    of ``exact_maps``; discrete or line index spaces of several spacings."""
    space = draw(small_shifts())
    symbols, depth = space.symbols, space.depth
    n = space.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "prepend", "constant", "sorted"]))
    m = symbols if kind == "prepend" else draw(st.integers(1, 4))
    if kind == "prepend":
        maps = _prepend_maps(symbols, depth)
    elif kind == "constant":
        maps = np.repeat(rng.integers(0, n, size=(m, 1)), n, axis=1)
    else:
        maps = rng.integers(0, n, size=(m, n))
        if kind == "sorted":
            maps.sort(axis=1)
    weights = -rng.uniform(0.0, 2.0, size=(m, n))
    if draw(st.booleans()):
        weights = np.round(weights * 2**26) / 2**26
    weights[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = BOTTOM
    if draw(st.booleans()):
        spacing = draw(st.sampled_from([0.1, 1.0 / 3, 1.0, 2.5]))
        isp = discrete_index_space([str(j) for j in range(m)], spacing=spacing)
    else:
        ks = draw(st.lists(st.integers(-7, 7), min_size=m, max_size=m, unique=True))
        pts = np.array([0.3 * k for k in ks])
        isp = FiniteSpace([str(j) for j in range(m)], np.abs(pts[:, None] - pts[None, :]))
    return MpIfs(space, isp, maps, weights, exact_maps=draw(st.booleans()))


@settings(max_examples=120, deadline=None)
@given(small_shifts())
def test_distances_and_diameter_match_the_oracle_table(space):
    table = naive_cylinder_table(space.points)
    assert space.diameter == dense_twin(space).diameter == (table.max() if space.n > 1 else 0.0)
    assert not hasattr(space, "dist")
    assert distance_table(space).tobytes() == table.tobytes()


@settings(max_examples=150, deadline=None)
@given(shift_systems())
def test_contraction_and_lipschitz_match_the_dense_routines(system):
    dense = MpIfs(dense_twin(system.space), system.index_space, system.maps, system.weights,
                  exact_maps=system.exact_maps)
    dx, dj = dense.space.dist, system.index_space.dist
    gamma = naive_contraction_constant(dx, dj, system.maps, system.snap_slack)
    lip = naive_weight_lipschitz(dx, system.weights)
    assert _estimates(system) == _estimates(dense) == (gamma, lip)
    assert not hasattr(system.space, "dist")


# tied levels, zeros, and values off the dyadic lattice
MEMBERSHIP = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))
DENSITY = st.one_of(st.sampled_from([BOTTOM, -0.1, -1.0, 0.0]), st.floats(-3.0, 0.0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_sweeps_and_hausdorff_match_the_dense_routines(data):
    space = data.draw(small_shifts())
    dense = dense_twin(space)
    n = space.n
    # an array draw fills most entries with one drawn value and draws a few
    # apart, so levels tie often and the draws and the loop oracles stay cheap
    u, v = (data.draw(arrays(np.float64, n, elements=MEMBERSHIP)).tolist() for _ in range(2))
    expected = naive_d_infty(dense.dist, np.array(u), np.array(v))
    assert d_infty(FuzzySet(space, u), FuzzySet(space, v)) == expected
    assert d_infty(FuzzySet(dense, u), FuzzySet(dense, v)) == expected

    lam, eta = (data.draw(arrays(np.float64, n, elements=DENSITY)).tolist() for _ in range(2))
    lam[data.draw(st.integers(0, n - 1))] = eta[data.draw(st.integers(0, n - 1))] = 0.0
    expected = naive_d_theta(dense.dist, lam, eta)
    assert d_theta(Density(space, lam), Density(space, eta)) == expected
    assert d_theta(Density(dense, lam), Density(dense, eta)) == expected

    sets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    a, b = data.draw(sets), data.draw(sets)
    expected = naive_cut_distance(dense.dist, a, b)
    a, b = np.array(sorted(a)), np.array(sorted(b))
    assert hausdorff(space, a, b) == hausdorff(dense, a, b) == expected
    assert not hasattr(space, "dist")


def test_explicit_table_of_a_shift_takes_the_dense_path(monkeypatch):
    shift = build_shift_space(3, 3)
    system = random_system(shift, 3, 5)
    rng = np.random.default_rng(2)
    u, v = rng.random(shift.n), rng.random(shift.n)
    u[4] = v[20] = 1.0
    a, b = np.array([1, 5, 17, 26]), np.array([0, 9, 13])
    expected = (system.validation.gamma_hat, system.validation.lip_c_hat,
                d_infty(FuzzySet(shift, u), FuzzySet(shift, v)), hausdorff(shift, a, b))

    def refuse(*args):
        raise AssertionError("an explicit table took a shift routine")

    for module, name in [(mpifs, "_shift_estimates"), (spaces.Shift, "distances_to")]:
        monkeypatch.setattr(module, name, refuse)
    inline = space_from_jsonable(space_to_jsonable(shift))
    assert not isinstance(inline, spaces.Shift)
    twin = MpIfs(inline, system.index_space, system.maps, system.weights, exact_maps=True)
    report = validate(twin)
    assert (report.gamma_hat, report.lip_c_hat,
            d_infty(FuzzySet(inline, u), FuzzySet(inline, v)), hausdorff(inline, a, b)) == expected
    with pytest.raises(AssertionError, match="shift routine"):
        hausdorff(shift, a, b)


def test_depth_13_pipeline_never_builds_the_table():
    # n = 8192: the dense table alone would take 512 MiB
    space = build_shift_space(2, 13)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = random_system(space, 2, 3)
        result = fhb_attractor(system, FuzzySet(space, np.ones(space.n)))
        pot = mane_potential(system)
        z = int(pot.aubry[0])
        lam = build_invariant(pot, BoundaryData(values={z: 0.0}, anchor=z))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.iterations > 0 and lam.values.max() == 0.0
    assert not {"labels", "points"} & vars(space).keys() and not hasattr(space, "dist")
    assert peak < 16 * 2**20
