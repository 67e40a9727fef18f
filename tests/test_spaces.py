import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropifs.spaces as spaces
from tropifs.errors import ConfigError, EmptySetError
from tropifs.examples import build_nonunique_shift_system, random_system
from tropifs.invariant import enumerate_invariants, verify_invariant
from tropifs.mane import mane_potential
from tropifs.measures import Density
from tropifs.mpifs import MpIfs, validate
from tropifs.serialize import density_to_jsonable, write_json
from tropifs.spaces import (
    CHUNK_VALUES,
    MAX_POINTS,
    build_grid,
    build_shift_space,
    check_metric,
    hausdorff,
    row_chunks,
    snap,
)

from oracles import build_point_space, distance_table, naive_cylinder_table, nearest_member


def test_grid_basics():
    g = build_grid(0.0, 1.0, 3)
    assert g.n == 3
    assert distance_table(g)[0, 2] == 1.0
    assert distance_table(g)[0, 1] == 0.5
    assert build_grid(0.0, 1.0, 2).resolution == 0.5


def test_grid_preconditions():
    with pytest.raises(ConfigError):
        build_grid(1.0, 0.0, 3)
    with pytest.raises(ConfigError):
        build_grid(0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        build_grid(1.0, 1.0 + 1e-15, 50)  # spacing below float resolution


def test_shift_space_metric():
    s = build_shift_space(2, 2)
    assert s.n == 4
    w, table = s.points, distance_table(s)
    assert table[w.index((1, 1)), w.index((2, 1))] == 0.5
    assert table[w.index((1, 1)), w.index((1, 2))] == 0.25
    assert s.resolution == 0.25
    two = build_shift_space(2, 1)
    assert two.n == 2 and distance_table(two)[0, 1] == 0.5


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6), st.integers(2, 300))
def test_grid_labels_spell_the_coordinates(a, width, n):
    g = build_grid(a, a + width, n)
    assert g.labels == tuple(repr(float(x)) for x in np.linspace(a, a + width, n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_shift_labels_spell_the_words(symbols, data):
    # symbols >= 10 join their symbols with "."
    depth = data.draw(st.integers(1, next(d for d in range(12, 0, -1) if symbols**d <= 4096)))
    words = list(itertools.product(range(1, symbols + 1), repeat=depth))
    sep = "." if symbols > 9 else ""
    s = build_shift_space(symbols, depth)
    assert s.labels == tuple(sep.join(map(str, w)) for w in words)
    assert s.points == tuple(words)


def test_shift_space_preconditions():
    with pytest.raises(ConfigError):
        build_shift_space(0, 2)
    with pytest.raises(ConfigError):
        build_shift_space(2, 0)


def test_builders_refuse_more_than_max_points():
    # the count is checked before anything is allocated, so none of these
    # builds a table; the limit leaves room for n = 8192 grids
    assert MAX_POINTS >= 8192
    with pytest.raises(ConfigError, match=f"grid of {MAX_POINTS + 1} points is larger"):
        build_grid(0.0, 1.0, MAX_POINTS + 1)
    with pytest.raises(ConfigError, match=r"2\^30 points is larger"):
        build_shift_space(2, 30)
    with pytest.raises(ConfigError, match=r"\^2 points is larger"):
        build_shift_space(MAX_POINTS + 1, 2)
    with pytest.raises(ConfigError, match="points is larger"):
        build_shift_space(1, 10**100)  # a single point, but words too long to list


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(2, 300),
    st.sampled_from([(-1.0, 4.0), (0.0, 1.0), (0.1, 0.7), (-20.0, -3.5)]),
)
def test_builders_pass_metric_axioms(symbols, depth, n, interval):
    # the builders skip check_metric: their tables are metrics by construction
    s = build_shift_space(symbols, min(depth, 4))
    check_metric(distance_table(s))
    g = build_grid(*interval, n)
    check_metric(distance_table(g))


def test_metric_tolerance_scales_with_the_table():
    xs = np.linspace(0.0, 1e5, 200)
    dist = np.abs(xs[:, None] - xs[None, :])
    labels = [str(i) for i in range(200)]
    build_point_space(labels, dist)  # float rounding of |x - y| is accepted
    raised = dist.copy()
    raised[3, 150] = raised[150, 3] = dist[3, 150] * (1.0 + 1e-6)
    with pytest.raises(ConfigError, match="triangle"):
        build_point_space(labels, raised)


def test_metric_rejects_infinite_distance():
    dist = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, 5.0], [np.inf, 5.0, 0.0]])
    with pytest.raises(ConfigError, match="nonnegative reals"):
        check_metric(dist)


def test_hausdorff_examples():
    g = build_grid(0.0, 1.0, 3)
    assert hausdorff(g, np.array([0, 1]), np.array([0, 1])) == 0.0
    assert hausdorff(g, np.array([0]), np.array([1])) == 0.5
    assert hausdorff(g, np.array([0, 2]), np.array([0])) == 1.0
    with pytest.raises(EmptySetError):
        hausdorff(g, np.array([], dtype=int), np.array([0]))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hausdorff_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    g = build_grid(0.0, 1.0, 8)
    sets = []
    while len(sets) < 3:
        mask = rng.random(8) < 0.4
        if mask.any():
            sets.append(np.flatnonzero(mask))
    a, b, c = sets
    assert hausdorff(g, a, b) == hausdorff(g, b, a)
    assert (hausdorff(g, a, b) == 0.0) == np.array_equal(a, b)
    assert hausdorff(g, a, c) <= hausdorff(g, a, b) + hausdorff(g, b, c) + 1e-12


def line_space(xs):
    """An explicit table of distinct points on a line."""
    xs = np.asarray(xs)
    return build_point_space([str(i) for i in range(xs.size)], np.abs(xs[:, None] - xs[None, :]))


CUT_SPACES = st.one_of(
    st.lists(st.floats(-100, 100), min_size=1, max_size=48, unique=True).map(line_space),
    st.builds(lambda a, width, n: build_grid(a, a + width, n),
              st.floats(-10, 10), st.floats(0.01, 10), st.integers(2, 48)),
    st.sampled_from([(1, 3), (2, 1), (2, 5), (3, 2)]).map(lambda s: build_shift_space(*s)),
)


def naive_distances_to(dist, t, xs, k):
    """min over {v : t[v] < k[i]} of dist[xs[i], v] by loops, +inf over an empty set."""
    n = len(t)
    return [min((float(dist[x, v]) for v in range(n) if t[v] < bound), default=np.inf)
            for x, bound in zip(xs, k)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_distances_to_is_the_nearest_member_by_loops(data):
    space = data.draw(CUT_SPACES)
    n = space.n
    # tied levels, distinct ranks, or negated memberships with BOTTOM at +inf
    t = data.draw(st.one_of(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                            st.permutations(range(n)),
                            st.lists(st.sampled_from([-0.5, -0.0, 0.0, np.inf]),
                                     min_size=n, max_size=n)))
    xs = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))  # may be empty
    # 0 (every set empty) up to above every t (every set the whole space)
    k = data.draw(st.one_of(st.integers(0, n + 1),
                            st.lists(st.integers(0, n + 1), min_size=len(xs), max_size=len(xs))))
    # blocks of 1, 3 or 8 rows, or every row in one block
    chunk = data.draw(st.sampled_from([1, 3 * n, 8 * n, CHUNK_VALUES]))
    t, xs = np.array(t), np.array(xs, dtype=np.intp)
    bounds = k if isinstance(k, list) else [k] * len(xs)
    expected = naive_distances_to(distance_table(space), t.tolist(), xs.tolist(), bounds)
    with mock.patch.object(spaces, "CHUNK_VALUES", chunk):
        near = space.distances_to(t, xs, np.array(k, dtype=np.intp))
    assert near.dtype == np.float64 and near.shape == xs.shape
    assert near.tolist() == expected


@pytest.mark.parametrize("run", [1, 64])
def test_distances_to_holds_one_chunk_of_rows(run):
    # every point reads a prefix of its own size, rounded down to a multiple
    # of ``run``: an n-float row per prefix would take 32 MiB at run = 1, and
    # one block of rows takes CHUNK_VALUES floats (512 KiB); the index arrays
    # over the n points take the last 512 KiB
    n = 2048
    space = build_grid(0.0, 1.0, n)
    t = np.random.default_rng(0).permutation(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        space.distances_to(t, np.arange(n), t // run * run)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < CHUNK_VALUES * 8 + 2**19


@pytest.mark.parametrize("per_point, run", [(False, 1), (False, 1500), (True, 1), (True, 8), (True, 37)])
def test_distances_to_past_2048_points_reads_one_row_at_a_time(per_point, run):
    # a block holds 31 rows of 2049 points: a scalar k = run gives every
    # point a prefix of that many points, and per point, t // run * run
    # reads every multiple of run
    n = 2049
    space = build_grid(-1.0, 2.5, n)
    t = np.random.default_rng(n).permutation(n)
    points = np.arange(n)
    k = t // run * run if per_point else run
    near = space.distances_to(t, points, k)
    assert not hasattr(space, "dist")  # the blocks read distances: a grid has no table
    assert near.tobytes() == nearest_member(space.xs, t, points, k).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), st.integers(1, 2 * CHUNK_VALUES), st.sampled_from([1, 7, CHUNK_VALUES]))
def test_row_chunks_partition_the_rows_in_order(rows, width, chunk):
    with mock.patch.object(spaces, "CHUNK_VALUES", chunk):
        chunks = list(row_chunks(rows, width))
    assert [i for s in chunks for i in range(s.start, s.stop)] == list(range(rows))
    assert all(0 < (s.stop - s.start) * width <= max(width, chunk) for s in chunks)


def _blocked_outputs(tmp_path):
    """What every blocked loop gives, as exact text: ``validate`` on a grid
    (its case groups) and on the grid's explicit table (its row blocks),
    ``enumerate_invariants`` and ``verify_invariant`` on a block, the
    ``density.json`` text of that block, and ``distances_to`` on the table."""
    grid = random_system(build_grid(-1.0, 2.5, 57), 3, 4)
    table = build_point_space(grid.space.labels, distance_table(grid.space), grid.space.resolution)
    explicit = MpIfs(table, grid.index_space, grid.maps, grid.weights)
    reports = [validate(system).to_jsonable() for system in (grid, explicit)]
    shift = build_nonunique_shift_system(5)
    block = enumerate_invariants(mane_potential(shift), [0.0, -0.25, -0.5, -1.0])
    block = np.concatenate([block, block - np.eye(len(block), shift.space.n)])  # half fail
    deviations = verify_invariant(shift, Density(shift.space, block)).max_deviation
    write_json(tmp_path / "density.json", density_to_jsonable(Density(shift.space, block)))
    t = np.arange(table.n) % 5  # runs of 11 or 12 points between the prefixes read
    near = table.distances_to(t, np.arange(table.n), np.arange(table.n) % 6)
    return (repr(reports), block.tobytes(), deviations.tobytes(),
            (tmp_path / "density.json").read_bytes(), near.tobytes())


def test_one_row_chunks_give_the_default_bits(tmp_path):
    default = _blocked_outputs(tmp_path)
    with mock.patch.object(spaces, "CHUNK_VALUES", 1):  # every chunk is one row
        assert _blocked_outputs(tmp_path) == default


@settings(max_examples=50, deadline=None)
@given(CUT_SPACES)
def test_distances_are_the_table_entries(space):
    # a shift and a grid read them from their record, not from the table
    i, k = np.divmod(np.arange(space.n**2), space.n)
    assert space.distances(i, k).tolist() == distance_table(space)[i, k].tolist()


RECORD_SPACES = st.one_of(
    # where ulp(1e16) = 2, |x - y| often rounds
    st.builds(lambda ends, n: build_grid(*ends, n),
              st.one_of(st.tuples(st.floats(-10, 10), st.floats(0.01, 10)).map(lambda e: (e[0], e[0] + e[1])),
                        st.just((1e16, 1e16 + 2.0**10))), st.integers(2, 64)),
    st.integers(1, 5).flatmap(lambda symbols: st.integers(1, 6 if symbols < 3 else 3).map(
        lambda depth: build_shift_space(symbols, depth))),
)


@settings(max_examples=100, deadline=None)
@given(RECORD_SPACES)
def test_a_record_space_has_no_table_and_its_distances_match_the_oracle(space):
    if isinstance(space, spaces.Grid):
        oracle = np.abs(np.subtract.outer(space.xs, space.xs))
    else:
        oracle = naive_cylinder_table(space.points)
    assert not hasattr(space, "dist")
    assert distance_table(space).tobytes() == oracle.tobytes()


def test_snap_grid():
    g = build_grid(0.0, 1.0, 3)
    assert snap(g, 0.6) == 1
    assert snap(g, 0.25) == 0  # exact tie, lowest index wins
    assert snap(g, 1.0) == 2


@pytest.mark.parametrize("space", [
    build_shift_space(2, 3),
    spaces.FiniteSpace(["a", "b"], dist=np.array([[0.0, 1.0], [1.0, 0.0]])),
], ids=["shift", "explicit"])
def test_snap_refuses_a_space_without_a_grid(space):
    with pytest.raises(ConfigError, match="^space has no coordinate payload to snap a value onto$"):
        snap(space, 0.5)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-0.5, max_value=1.5, allow_nan=False))
def test_snap_minimizes_distance(x):
    g = build_grid(0.0, 1.0, 7)
    i = snap(g, x)
    assert all(abs(g.xs[i] - x) <= abs(p - x) for p in g.xs)


def test_bad_metric_rejected():
    with pytest.raises(ConfigError):
        build_point_space(["a"], 5.0)  # not a table
    with pytest.raises(ConfigError):
        build_point_space(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ConfigError):
        build_point_space(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])  # indistinct
    with pytest.raises(ConfigError):
        # triangle violation: d(a,c) = 5 > 1 + 1
        build_point_space(
            ["a", "b", "c"],
            [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]],
        )
