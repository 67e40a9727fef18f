"""Grids read the metric |x - y| from their sorted coordinates.

The contraction and Lipschitz routines on a grid are checked for exact
equality (``==`` on floats) against the dense routines as they stood
before grids held no table (``oracles.dense_*``) and against the loop
oracles.  The grid side must never build its table.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropifs.mpifs as mpifs
import tropifs.spaces as spaces
from tropifs.cli import main
from tropifs.config import RunConfig, build_system
from tropifs.errors import NotContractiveError
from tropifs.examples import _affine_grid_maps, discrete_index_space, random_system
from tropifs.invariant import constant_weight_density, enumerate_invariants, verify_invariant
from tropifs.mane import mane_potential
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density
from tropifs.mpifs import MpIfs, _estimates, _grid_quotient_max, _pairs_above, validate
from tropifs.serialize import space_from_jsonable
from tropifs.spaces import MAX_POINTS, FiniteSpace, build_grid, row_chunks, snap

from oracles import (
    dense_contraction_constant,
    dense_weight_lipschitz,
    naive_affine_grid_maps,
    naive_contraction_constant,
    naive_snap,
    naive_weight_lipschitz,
    space_to_jsonable,
)


@st.composite
def grid_systems(draw, max_points=40):
    """Unvalidated systems on a grid: arbitrary, sorted, constant, snapped
    affine or halving index maps; non-dyadic, dyadic, linear, constant or
    alternating weights with BOTTOM entries, at unit, subnormal or huge
    scale; either value of ``exact_maps``; discrete or line index spaces
    of several spacings.

    Halving maps on an integer grid, linear weights and alternating
    weights plant exact ties among many pairs.  Subnormal weights and
    grids of width 1e-305 or 1e6 put quotients below the normal range,
    and weights of 1e300 put them past the float range.
    """
    n = draw(st.integers(2, max_points))
    width = draw(st.sampled_from([1.0, 0.3, 2.5, n - 1.0, 1e6, 1e-305]))
    a = 0.0 if width < 1e-300 else draw(st.sampled_from([0.0, -1.0, 0.3, 1e3]))
    b = a + width
    space = build_grid(a, b, n)
    xs = space.xs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "sorted", "constant", "affine", "halving"]))
    if kind == "constant":
        maps = np.repeat(rng.integers(0, n, size=(m, 1)), n, axis=1)
    elif kind == "affine":
        slopes = rng.choice([0.5, -0.5, 0.45, -0.25, 1.0 / 3], size=m)
        offsets = np.where(slopes > 0, a, b) + rng.uniform(0.0, 0.5, size=m) * (b - a)
        maps = snap(space, offsets[:, None] + slopes[:, None] * (xs - a))
    elif kind == "halving":
        maps = np.arange(n) // 2 + rng.integers(0, n - n // 2 + 1, size=(m, 1))
        maps = np.minimum(maps, n - 1)
    else:
        maps = rng.integers(0, n, size=(m, n))
        if kind == "sorted":
            maps.sort(axis=1)
    weights = draw(st.sampled_from(["random", "dyadic", "linear", "constant", "alternating"]))
    if weights == "linear":
        w = -rng.choice([0.125, 0.3], size=(m, 1)) * (xs - a)
    elif weights == "constant":
        w = np.repeat(-rng.uniform(0.0, 2.0, size=(m, 1)), n, axis=1)
    elif weights == "alternating":
        w = np.repeat(-0.25 * (np.arange(n) % 2)[None, :], m, axis=0)
    else:
        w = -rng.uniform(0.0, 2.0, size=(m, n))
        if weights == "dyadic":
            w = np.round(w * 2**26) / 2**26
    w = w * draw(st.sampled_from([1.0, 1e-320, 5e-324, 1e300]))
    w[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = BOTTOM
    if draw(st.booleans()):
        spacing = draw(st.sampled_from([0.1, 1.0 / 3, 1.0, 2.5]))
        isp = discrete_index_space([str(j) for j in range(m)], spacing=spacing)
    else:
        ks = draw(st.lists(st.integers(-7, 7), min_size=m, max_size=m, unique=True))
        pts = np.array([0.3 * k for k in ks])
        isp = FiniteSpace([str(j) for j in range(m)], np.abs(pts[:, None] - pts[None, :]))
    return MpIfs(space, isp, maps, w, exact_maps=draw(st.booleans()))


def fast_then_dense(system):
    """The grid routines' values, checked to leave the table unbuilt, and
    the dense routines' values on the same system.  Weights of 1e300 may
    overflow to inf, on both sides alike.  Where gamma_hat >= 1 left
    lip_c_hat unset, the row blocks fill it in after the check."""
    with np.errstate(over="ignore"):
        gamma, lip = _estimates(system)
        assert "dist" not in vars(system.space)
        if lip is None:
            gamma, lip = mpifs._block_estimates(system, gamma, None)
        return (gamma, lip), (dense_contraction_constant(system), dense_weight_lipschitz(system))


def first_pairs_underflow():
    """Weights in multiples of -1e-320 on [0, 1e6]: the pair of largest
    numerator, the two ends, has a quotient that underflows to 0, while
    the first two points' quotient is 5e-324."""
    n = 56
    w = np.full((1, n), -5e-320)
    w[0, 0], w[0, -1] = 0.0, -1e-319
    return MpIfs(build_grid(0.0, 1e6, n), discrete_index_space(["1"]), np.arange(n)[None, :] // 2,
                 w, exact_maps=True)


@settings(max_examples=200, deadline=None)
@given(grid_systems())
@example(first_pairs_underflow())
def test_contraction_and_lipschitz_match_the_dense_routines_and_the_loops(system):
    (gamma, lip), dense = fast_then_dense(system)
    assert (gamma, lip) == dense
    dx, dj = system.space.dist, system.index_space.dist
    assert system.space.diameter == dx.max()
    assert gamma == naive_contraction_constant(dx, dj, system.maps, system.snap_slack)
    assert lip == naive_weight_lipschitz(dx, system.weights)


@settings(max_examples=40, deadline=None)
@given(grid_systems(max_points=600))
def test_contraction_and_lipschitz_match_the_dense_routines_on_larger_grids(system):
    fast, dense = fast_then_dense(system)
    assert fast == dense


def spy_row_blocks(monkeypatch):
    """The estimates each call of the row blocks is given, None where it must decide."""
    ran, block = [], mpifs._block_estimates
    monkeypatch.setattr(mpifs, "_block_estimates",
                        lambda s, gamma, lip: ran.append((gamma, lip)) or block(s, gamma, lip))
    return ran


def test_pairs_past_the_budget_take_the_row_blocks(monkeypatch):
    # an exact reflection and linear weights on an integer grid tie every pair
    n = 200
    space = build_grid(0.0, n - 1.0, n)
    system = MpIfs(space, discrete_index_space(["1"]), np.arange(n)[None, ::-1],
                   -0.125 * np.arange(n)[None, :], exact_maps=True)
    ran = spy_row_blocks(monkeypatch)
    fast, dense = fast_then_dense(system)
    assert ran == [(None, None)]
    assert fast == dense == (1.0, 0.125)


def test_row_blocks_decide_only_what_the_grid_search_left(monkeypatch):
    # halving maps leave few ties, so the search gives gamma_hat, below 1 with
    # the maps 300 apart; linear weights on an integer grid tie every pair, so
    # lip_c_hat falls back
    n = 300
    space = build_grid(0.0, n - 1.0, n)
    system = MpIfs(space, discrete_index_space(["0", "1"], spacing=300.0),
                   [np.zeros(n), np.arange(n) // 2], [np.zeros(n), -0.125 * np.arange(n)])
    gamma, lip = mpifs._grid_estimates(system, space.xs)
    assert gamma < 1 and lip is None
    ran, reads = spy_row_blocks(monkeypatch), []
    distances = spaces.Grid.distances
    monkeypatch.setattr(spaces.Grid, "distances",
                        lambda self, i, k: reads.append(i) or distances(self, i, k))
    found = _estimates(system)
    assert ran == [(gamma, None)]
    # one read of dX per block of rows, and none of the images of a map pair
    assert len(reads) == len(list(row_chunks(n, n)))
    assert found == (gamma, 0.125) == (dense_contraction_constant(system),
                                       dense_weight_lipschitz(system))


def test_a_non_contractive_grid_is_refused_before_the_lipschitz_row_blocks(monkeypatch, tmp_path):
    # linear weights tie every pair, so lip_c_hat falls back to the row blocks,
    # while the grid search settles gamma_hat >= 1: the second map stretches 2x
    n = 513
    maps = [[0] * n, np.minimum(2 * np.arange(n), n - 1).tolist()]
    weights = [[0] * n, (-np.arange(n) / 4096).tolist()]
    system = MpIfs(build_grid(0.0, 1.0, n), discrete_index_space(["1", "2"]), maps, weights)
    gamma, lip = mpifs._grid_estimates(system, system.space.xs)
    assert gamma >= 1 and lip is None
    block = mpifs._block_estimates

    def no_lipschitz(system, gamma, lip):
        assert lip is not None, "the row blocks were asked for lip_c_hat"
        return block(system, gamma, lip)

    monkeypatch.setattr(mpifs, "_block_estimates", no_lipschitz)
    message = f"contraction estimate gamma_hat = {gamma} >= 1"
    with pytest.raises(NotContractiveError, match=f"^{re.escape(message)}$"):
        validate(system)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"system": {"inline": {
        "space": {"grid": {"a": 0, "b": 1, "n": n}}, "maps": maps, "weights": weights,
        "index_space": {"labels": ["1", "2"], "dist": [[0, 1], [1, 0]]}}}}))
    assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report == {"valid": False, "error": message}


@settings(max_examples=60, deadline=None)
@given(grid_systems(max_points=100))
def test_a_zero_budget_still_gives_the_dense_values(system):
    # every listing with a pair in it runs over the budget
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpifs, "PAIR_BUDGET", 0)
        fast, dense = fast_then_dense(system)
    assert fast == dense


def uneven_grid(xs):
    """A grid record on sorted coordinates that no builder makes."""
    return spaces.Grid(np.array(xs, dtype=float), 0.0)


@pytest.mark.parametrize("space, maps, weights, spacing", [
    # |x| near the largest float: the verify test's terms overflow
    (build_grid(0.0, 1.7e308, 9), np.arange(9)[None, ::-1] // 2, np.zeros((1, 9)), 1.0),
    # two constant maps 1e-305 apart: every quotient is below 2^-1000;
    # one map has one finite weight
    (build_grid(0.0, 1e-305, 9), np.array([[0] * 9, [1] * 9]),
     np.array([[0.0, -5e-324] * 4 + [0.0], [BOTTOM] * 8 + [0.0]]), 1.0),
    # Lipschitz slopes below 2^-1000
    (build_grid(0.0, 1e6, 9), np.arange(9)[None, :] // 3, np.array([[0.0, -1e-300] * 4 + [0.0]]),
     1.0),
])
def test_extreme_scales_take_the_row_blocks(monkeypatch, space, maps, weights, spacing):
    ran = spy_row_blocks(monkeypatch)
    isp = discrete_index_space([str(j) for j in range(len(maps))], spacing=spacing)
    system = MpIfs(space, isp, maps, weights, exact_maps=True)
    fast, dense = fast_then_dense(system)
    assert fast == dense and ran


def test_uneven_spacings_take_the_grid_search(monkeypatch):
    # spacings 1e-7 and 1 apart
    def refuse(*args):
        raise AssertionError("the row blocks ran")

    monkeypatch.setattr(mpifs, "_block_estimates", refuse)
    system = MpIfs(uneven_grid([0.0, 1e-7, 1.0, 2.0]), discrete_index_space(["1"]),
                   np.array([[1, 0, 3, 2]]), np.array([[0.0, -1e-7, -0.5, -0.25]]),
                   exact_maps=True)
    fast, dense = fast_then_dense(system)
    assert fast == dense


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairs_above_lists_every_pair_over_the_floor(data):
    rows, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 20))
    values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, BOTTOM])  # ties and padding
    lead = np.array(data.draw(st.lists(values, min_size=rows * n, max_size=rows * n)))
    tail = np.array(data.draw(st.lists(values, min_size=rows * n, max_size=rows * n)))
    lead, tail = lead.reshape(rows, n), tail.reshape(rows, n)
    floor = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.5]),
                                        min_size=rows, max_size=rows)))
    strict = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    expected = {(r, i, k) for r in range(rows) for i in range(n) for k in range(i + strict[r], n)
                if lead[r, i] + tail[r, k] >= floor[r]}
    found = _pairs_above(lead, tail, floor, strict, rows * n * n)
    assert sorted(zip(*map(np.ndarray.tolist, found))) == sorted(expected)
    if expected:
        assert _pairs_above(lead, tail, floor, strict, len(expected) - 1) is None


@st.composite
def quotient_cases(draw):
    """Inputs of the grid search: sorted distinct coordinates, rows of
    values, cases (ja, jb, dj) and a slack, all integers times one unit:
    the least subnormal, where each product rounds to that lattice, or 1."""
    unit = draw(st.sampled_from([5e-324, 1.0]))
    ints = st.integers(-10**8, 10**8)
    xs = np.sort(draw(st.lists(ints, min_size=2, max_size=10, unique=True))) * unit
    m = draw(st.integers(1, 3))
    rows = st.lists(ints, min_size=xs.size, max_size=xs.size)
    ys = np.array(draw(st.lists(rows, min_size=m, max_size=m))) * unit
    maps = st.integers(0, m - 1)
    cases = draw(st.lists(st.tuples(maps, maps, st.integers(0, 10**6)), min_size=1, max_size=4))
    ja, jb, dj = map(np.array, zip(*cases))
    return xs, ys, ja, jb, dj * unit, draw(st.integers(0, 10)) * unit


def case_quotients(case):
    """The float quotients of every pair of every case, side by side."""
    xs, ys, ja, jb, dj, slack2 = case
    found = []
    for a, b, d in zip(ja, jb, dj):
        i, k = np.triu_indices(xs.size, 0 if d > 0 else 1)
        numer = np.abs(ys[a, i] - ys[b, k]) - slack2
        found.append(numer / (d + np.abs(xs[i] - xs[k])))
    return np.concatenate(found)


@settings(max_examples=300, deadline=None)
@given(quotient_cases())
# The pair (2, 3) has the largest quotient, just above that of the pair
# (0, 1) the locate step finds.  Here every term of the verify test is
# subnormal and its margin 64u * R rounds to 0: without the floor 2^-1000
# on that margin, the products' roundings drop the pair (2, 3) ...
@example((np.array([0, 4596391, 75680555, 79058014]) * 5e-324,
          np.array([[2268674, 0, 1723681, 0]] * 2) * 5e-324,
          np.array([0]), np.array([1]), np.array([477728 * 5e-324]), 0.0))
# ... and here the terms are near 2^40 and the test's two sides differ by
# less than their rounding: without the margin, the pair is dropped
@example((np.array([1099511627776, 1099512912951, 1099542124985, 1099542162654]) * 1.0,
          np.array([[421794, 0, 24343, 0]] * 2) * 1.0,
          np.array([0]), np.array([1]), np.array([38738.0]), 0.0))
def test_grid_search_gives_the_largest_quotient_or_none(case):
    xs, ys, ja, jb, dj, slack2 = case
    best = max(0.0, float(case_quotients(case).max()))
    assert _grid_quotient_max(xs, ys, ja, jb, dj, slack2) in (None, best)


@settings(max_examples=300, deadline=None)
@given(quotient_cases(), st.data())
def test_grid_search_started_at_a_pair_quotient_gives_the_same(case, data):
    # the warm start of the Lipschitz search: any pair's quotient is a valid start
    quotients = case_quotients(case)
    best = max(0.0, float(quotients.max()))
    low = max(0.0, float(data.draw(st.sampled_from(quotients.tolist()))))
    assert _grid_quotient_max(*case, low) in (None, best)


def test_explicit_table_of_a_grid_takes_the_row_blocks(monkeypatch):
    system = random_system(build_grid(-1.0, 2.5, 57), 3, 4)
    expected = (system.validation.gamma_hat, system.validation.lip_c_hat)

    def refuse(*args):
        raise AssertionError("an explicit table took a grid routine")

    monkeypatch.setattr(mpifs, "_grid_estimates", refuse)
    monkeypatch.setattr(mpifs, "_grid_quotient_max", refuse)
    inline = space_from_jsonable(space_to_jsonable(system.space))
    assert not isinstance(inline, spaces.Grid) and not hasattr(inline, "points")
    twin = MpIfs(inline, system.index_space, system.maps, system.weights)
    report = validate(twin)
    assert (report.gamma_hat, report.lip_c_hat) == expected
    with pytest.raises(AssertionError, match="grid routine"):
        _estimates(system)


@pytest.mark.parametrize("constant", [False, True])
def test_pipeline_never_builds_the_table(monkeypatch, constant):
    def refuse(self):
        raise AssertionError("a grid built its table")

    monkeypatch.setattr(spaces.Grid, "dist", property(refuse))
    cfg = RunConfig(system={"builder": "grid_random", "a": 0, "b": 1, "n": 4096,
                            "num_maps": 3, "seed": 2, "constant_weights": constant})
    system = build_system(cfg)
    pot = mane_potential(system)
    if constant:
        lam = constant_weight_density(system, pot)
    else:
        lam = Density(system.space, enumerate_invariants(pot, [0.0, -0.5]))
    assert np.all(verify_invariant(system, lam, 1e-9).passed)
    assert not {"dist", "labels"} & vars(system.space).keys()
    with pytest.raises(AssertionError, match="built its table"):
        system.space.dist


def test_validate_on_the_largest_grid_stays_far_below_one_table(monkeypatch):
    # one 2^14 x 2^14 table would take 2 GiB
    def refuse(*args):
        raise AssertionError("the row blocks ran")

    monkeypatch.setattr(mpifs, "_block_estimates", refuse)
    space = build_grid(0.0, 1.0, MAX_POINTS)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = random_system(space, 3, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert system.validation.gamma_hat < 1 and not {"dist", "labels"} & vars(space).keys()
    assert peak < 32 * 2**20


@st.composite
def grids_and_values(draw):
    """A grid and values near it: its points, exact midpoints of
    neighbours, its ends and beyond, and affine images of both signs."""
    n = draw(st.integers(2, 60))
    # where ulp(1e16) = 2, |x - v| often rounds two points to one distance
    a, width = draw(st.sampled_from([(0.0, 1.0), (-1.0, 0.3), (0.1, n - 1.0), (1e16, 2.0**10)]))
    b = a + width
    space = build_grid(a, b, n)
    xs = space.xs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slope = draw(st.sampled_from([0.5, -0.5, 0.37, -0.6, 1.0, -1.0]))
    values = np.concatenate([
        xs, (xs[:-1] + xs[1:]) / 2, [a, b, a - 1.0, b + 1.0, np.inf, -np.inf, 1e300],
        rng.uniform(a, b, size=n), slope * (xs - a) + (a if slope > 0 else b),
    ])
    return space, rng.permutation(values)


@settings(max_examples=150, deadline=None)
@given(grids_and_values())
@example((build_grid(0.0, 4.0, 5), np.array([0.5, 1.5, 2.5, 3.5, 4.0, -1.0])))
def test_snap_is_the_per_point_scan(case):
    space, values = case
    expected = [naive_snap(space.xs, v) for v in values]
    assert snap(space, values).tolist() == expected
    assert [snap(space, v) for v in values] == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 80), st.sampled_from([(0.0, 1.0), (-1.0, 2.5), (0.0, 63.0)]),
       st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_affine_grid_maps_are_the_per_point_snaps(n, ends, m, constant_first, seed):
    space = build_grid(*ends, n)
    maps = _affine_grid_maps(space, m, np.random.default_rng(seed), constant_first)
    expected = naive_affine_grid_maps(space.xs, m, np.random.default_rng(seed), constant_first)
    assert maps.tolist() == expected
