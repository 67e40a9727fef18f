import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropifs import mane, maxplus
from tropifs.config import RunConfig, build_system
from tropifs.errors import ConfigError, EmptyAubryError, InternalError
from tropifs.examples import (
    build_nonunique_shift_system,
    build_two_point_system,
    discrete_index_space,
    random_system,
)
from tropifs.maxplus import BOTTOM, kleene_plus
from tropifs.mane import mane_potential, transition_matrix
from tropifs.mpifs import MpIfs, validate
from tropifs.spaces import build_grid, build_shift_space, snap

from oracles import (
    build_point_space,
    check_sum_lipschitz,
    check_triangle,
    closure_to_fixed_point,
    dense_closure,
    edge_table,
    paths_closure,
    reached_from_cycles,
    scatter_transition_matrix,
    words_closure,
)


def constant_map_system(n=4, target=1):
    space = build_grid(0.0, 1.0, n)
    system = MpIfs(
        space,
        discrete_index_space(["c"]),
        np.full((1, n), target),
        np.zeros((1, n)),
        exact_maps=True,
    )
    validate(system)
    return system


def test_transition_matrix_two_point():
    system = build_two_point_system()
    a = transition_matrix(system)
    assert a.entries.tolist() == [[0.0, 0.0], [-1.0, -1.0]]


def test_transition_matrix_constant_map():
    system = constant_map_system(n=4, target=2)
    a = transition_matrix(system).entries
    assert a[2].tolist() == [0.0, 0.0, 0.0, 0.0]
    mask = np.ones(4, dtype=bool)
    mask[2] = False
    assert np.all(a[mask] == BOTTOM)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transition_entries_never_positive(seed):
    system = random_system(build_grid(0, 1, 8), 2, seed % 500)
    assert np.all(transition_matrix(system).entries <= 0)


@st.composite
def parallel_map_systems(draw):
    """Unvalidated systems whose maps often share a (source, target) pair,
    with weights that tie at +0.0 / -0.0 and -inf entries."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    target = st.one_of(st.integers(0, min(n - 1, 2)), st.integers(0, n - 1))
    cells = st.tuples(target, st.sampled_from([0.0, -0.0, -(2.0**-26), -0.5, -1.0, BOTTOM]))
    table = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=m, max_size=m))
    maps = np.array([[t for t, _ in row] for row in table], dtype=np.intp)
    weights = np.array([[w for _, w in row] for row in table])
    space = discrete_index_space([str(i) for i in range(n)])
    return MpIfs(space, discrete_index_space([str(j) for j in range(m)]), maps, weights)


@settings(max_examples=300, deadline=None)
@given(parallel_map_systems())
def test_transition_matrix_equals_the_scatter_form(system):
    expected = scatter_transition_matrix(system.maps, system.weights)
    assert transition_matrix(system).entries.tobytes() == expected.tobytes()


def test_transition_matrix_without_finite_weights_is_bottom():
    space = discrete_index_space(["a", "b"])
    system = MpIfs(space, discrete_index_space(["0"]), [[1, 0]], [[BOTTOM, BOTTOM]])
    assert np.all(transition_matrix(system).entries == BOTTOM)


def test_mane_potential_two_point():
    system = build_two_point_system()
    assert dense_closure(system).entries.tolist() == [[0.0, 0.0], [-1.0, -1.0]]
    assert mane_potential(system).aubry == (0,)


def test_mane_potential_constant_map():
    system = constant_map_system(n=4, target=2)
    assert mane_potential(system).aubry == (2,)
    s = dense_closure(system).entries
    assert s[2].tolist() == [0.0, 0.0, 0.0, 0.0]
    mask = np.ones(4, dtype=bool)
    mask[2] = False
    assert np.all(s[mask] == BOTTOM)


def test_mane_potential_shift_example():
    system = build_nonunique_shift_system(3)
    pot = mane_potential(system)
    words = system.space.points
    assert {words[i] for i in pot.aubry} == {(1, 1, 1), (2, 2, 2)}
    i_from = words.index((1, 1, 1))
    i_to = words.index((2, 1, 1))
    s = dense_closure(system).entries
    assert s[i_to, i_from] == -1.0
    # brute-force word enumeration up to length 8 agrees everywhere
    oracle = words_closure(
        system.maps.tolist(), system.weights.tolist(), system.space.n, 8
    )
    assert np.array_equal(s, oracle)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_potential_matches_word_enumeration(n, seed):
    system = random_system(build_grid(0.0, 1.0, n), 2, seed % 300)
    oracle = words_closure(
        system.maps.tolist(), system.weights.tolist(), n, max_len=n + 2
    )
    assert np.array_equal(dense_closure(system).entries, oracle)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 12), st.integers(0, 2**32 - 1))
def test_potential_matches_path_dp(n, seed):
    system = random_system(build_grid(0.0, 1.0, n), 3, seed % 300)
    edges = edge_table(system.maps.tolist(), system.weights.tolist(), n)
    assert np.array_equal(dense_closure(system).entries, paths_closure(edges, max_len=n))


def test_empty_aubry_signals():
    # an impossible tolerance forces the failure path
    with pytest.raises(EmptyAubryError):
        mane_potential(build_two_point_system(), tol_aubry=-0.5)


def test_aubry_diagonal_attained_exactly():
    for seed in range(6):
        system = random_system(build_grid(0.0, 1.0, 10), 2, seed)
        pot = mane_potential(system)
        diag = np.diagonal(dense_closure(system).entries)
        assert diag.max() == 0.0
        assert all(diag[i] == 0.0 for i in pot.aubry)


def test_check_triangle():
    s = dense_closure(build_two_point_system()).entries
    assert check_triangle(s)
    # independent 8-triple loop
    for x in range(2):
        for y in range(2):
            for z in range(2):
                assert s[x, z] >= s[x, y] + s[y, z]
    # lowering an entry whose bound is tight through a third point breaks it
    shift = build_nonunique_shift_system(2)
    words = shift.space.points
    good = dense_closure(shift).entries
    bad = good.copy()
    bad[words.index((1, 2)), words.index((1, 1))] -= 0.5
    assert check_triangle(good)
    assert not check_triangle(bad)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_triangle_on_random_systems(seed):
    system = random_system(build_grid(0.0, 1.0, 15), 3, seed % 200)
    assert check_triangle(dense_closure(system).entries)


def test_sum_lipschitz_constant_weights_zero():
    system = random_system(build_shift_space(2, 3), 2, 5, constant_weights=True)
    assert check_sum_lipschitz(system, trials=200) == 0.0


def test_sum_lipschitz_shift_example_bound():
    system = build_nonunique_shift_system(4)
    ratio = check_sum_lipschitz(system, trials=1000)
    assert ratio <= system.validation.lip_c_hat / (1 - system.validation.gamma_hat)  # = 4
    assert ratio > 0


def test_aubry_nonempty_on_random_systems():
    for seed in range(10):
        system = random_system(build_grid(0.0, 1.0, 20), 2, seed)
        assert len(mane_potential(system).aubry) >= 1


def test_s_zero_on_aubry_rows_constant_weights():
    # reaching an Aubry point is free when weights are place-independent
    for seed in range(4):
        system = random_system(build_grid(0.0, 1.0, 30), 3, seed, constant_weights=True)
        s = dense_closure(system).entries
        for z in mane_potential(system).aubry:
            row = s[z]
            assert np.all(row[row > BOTTOM] == 0.0)
    sym = random_system(build_shift_space(2, 4), 2, 9, constant_weights=True)
    s = dense_closure(sym).entries
    for z in mane_potential(sym).aubry:
        assert np.all(s[z] == 0.0)


# --- sparse Aubry columns against the dense closure --------------------------

QUANT = 2.0**-26
TOL = 2.0**-20


def index_system(maps, weights):
    """Arbitrary index maps on a discrete space with unit distances.

    The resolution of 1/2 gives every snapped map a slack of one full
    distance, so the contraction check accepts any maps.
    """
    n = len(maps[0])
    space = build_point_space([str(i) for i in range(n)], 1.0 - np.eye(n), resolution=0.5)
    labels = [str(j) for j in range(len(maps))]
    system = MpIfs(space, discrete_index_space(labels), maps, weights, exact_maps=False)
    validate(system)
    return system


def assert_matches_dense(system, tol_aubry):
    """Aubry set and Aubry columns equal the dense closure, bit for bit."""
    dense = dense_closure(system).entries
    expected = tuple(int(z) for z in np.flatnonzero(np.diagonal(dense) >= -tol_aubry))
    if not expected:
        with pytest.raises(EmptyAubryError):
            mane_potential(system, tol_aubry=tol_aubry)
        return None
    pot = mane_potential(system, tol_aubry=tol_aubry)
    assert pot.aubry == expected
    for z in pot.aubry:
        assert pot.column(z).tobytes() == dense[:, z].tobytes()
    return pot


@st.composite
def dyadic_index_systems(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = rng.integers(0, n, size=(m, n))
    # 0.0 - x, not -x: a penalty that rounds to zero must be +0.0
    weights = 0.0 - np.round(rng.uniform(0.0, 4 * TOL, size=(m, n)) / QUANT) * QUANT
    weights[rng.random((m, n)) < 0.3] = BOTTOM
    weights[rng.integers(0, m, size=n), np.arange(n)] = 0.0
    return index_system(maps, weights)


@settings(max_examples=150, deadline=None)
@given(dyadic_index_systems(), st.sampled_from([1e-9, TOL, 3 * TOL]))
def test_sparse_potential_matches_dense_index_systems(system, tol_aubry):
    assert_matches_dense(system, tol_aubry)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_sparse_potential_matches_dense_random_systems(seed, on_shift, constant):
    space = build_shift_space(2, 4) if on_shift else build_grid(0.0, 1.0, 24)
    system = random_system(space, 2 if on_shift else 3, seed % 500, constant_weights=constant)
    assert_matches_dense(system, 1e-9)


def test_zero_weight_edges_are_kept():
    # the Aubry set is the zero cycle 0 <-> 1; its edges are explicit zeros
    system = index_system([[1, 0, 0], [2, 2, 2]], [[0.0, 0.0, 0.0], [-1.0, -1.0, BOTTOM]])
    pot = assert_matches_dense(system, 1e-9)
    assert pot.aubry == (0, 1)
    assert pot.column(0).tolist() == [0.0, 0.0, -1.0]


def test_parallel_edges_keep_the_max_weight():
    # both maps send each point to 0; summing the self-loop 0 -> 0 gives -0.5
    system = index_system([[0, 0], [0, 0]], [[0.0, 0.0], [-0.5, -0.5]])
    pot = assert_matches_dense(system, 1e-9)
    assert pot.aubry == (0,)
    assert pot.column(0).tolist() == [0.0, BOTTOM]


def test_cycle_within_tolerance_is_aubry():
    # cycle 1 -> 0 -> 1 of weight -tol/2 (0 also has a zero self-loop)
    system = index_system([[1, 0], [0, 1]], [[-TOL / 2, 0.0], [0.0, -1.0]])
    assert assert_matches_dense(system, TOL).aubry == (0, 1)
    assert assert_matches_dense(system, TOL / 4).aubry == (0,)


def test_cycle_of_near_zero_edges_below_tolerance_is_not_aubry():
    # every edge of the 3-cycle 0 -> 1 -> 2 -> 0 is >= -tol, the cycle is not
    edge = -3 * TOL / 8
    system = index_system(
        [[1, 2, 0, 3], [3, 3, 3, 3]],
        [[edge, edge, edge, -1.0], [0.0, 0.0, 0.0, 0.0]],
    )
    assert assert_matches_dense(system, TOL).aubry == (3,)
    assert assert_matches_dense(system, 2 * TOL).aubry == (0, 1, 2, 3)


def non_dyadic_chain():
    # chain 0 -> 1 -> 2 -> 3; map 1 drains 0, 1, 2 into the absorbing point 4.
    # One Floyd-Warshall sweep sums S[3, 0] as -0.3 + (-0.2 + -0.1), one ulp
    # below S[3, 1] + S[1, 0] = -0.5 + -0.1.
    return index_system(
        [[1, 2, 3, 4, 4], [4, 4, 4, 4, 4]],
        [[-0.1, -0.2, -0.3, BOTTOM, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0]],
    )


def test_triangle_exact_on_non_dyadic_chain():
    system = non_dyadic_chain()
    assert mane_potential(system).aubry == (4,)
    assert check_triangle(dense_closure(system).entries)


def test_no_sweep_where_every_sum_is_exact(monkeypatch):
    # with no sweep allowed, only the value iteration can close a matrix:
    # the dyadic one takes it, the chain needs the sweeps
    dyadic = transition_matrix(build_nonunique_shift_system(4))
    chain = transition_matrix(non_dyadic_chain())
    expected = closure_to_fixed_point(dyadic.entries)
    monkeypatch.setattr(maxplus, "_MAX_SWEEPS", 0)
    assert kleene_plus(dyadic).entries.tobytes() == expected.tobytes()
    with pytest.raises(InternalError):
        kleene_plus(chain)


def cli_system(**spec):
    return build_system(RunConfig(system=spec))


def signed_zero_system():
    # the zero cycle 0 <-> 1 has a -0.0 edge, which only the sweeps take
    return index_system([[1, 0, 0], [2, 2, 2]], [[0.0, -0.0, 0.0], [-1.0, -1.0, BOTTOM]])


CLOSURE_SYSTEMS = {
    **{
        f"grid-{n}-{kind}": lambda n=n, c=c: cli_system(
            builder="grid_random", a=0, b=1, n=n, num_maps=3, seed=5, constant_weights=c
        )
        for n in (64, 257)
        for kind, c in (("place", False), ("constant", True))
    },
    "shift": lambda: cli_system(builder="shift_random", symbols=3, depth=5, seed=7),
    "nonunique": lambda: cli_system(builder="nonunique_shift", depth=6),
    "long-chain": lambda: long_chain_system(96),
    "signed-zero": signed_zero_system,
    "non-dyadic-chain": non_dyadic_chain,
}


@pytest.mark.parametrize("name", CLOSURE_SYSTEMS)
def test_dense_closure_equals_sweeps_to_fixed_point(name):
    system = CLOSURE_SYSTEMS[name]()
    expected = closure_to_fixed_point(transition_matrix(system).entries)
    assert dense_closure(system).entries.tobytes() == expected.tobytes()


def test_dense_closure_is_built_only_on_demand(monkeypatch):
    # mane_potential builds no A to close, and its result holds no closure
    built = []
    monkeypatch.setattr(mane, "transition_matrix", built.append)
    system = build_nonunique_shift_system(3)
    pot = mane_potential(system)
    assert built == [] and not {"s", "system"} & set(dir(pot))
    monkeypatch.undo()
    assert np.array_equal(dense_closure(system).entries[:, list(pot.aubry)], pot.columns)


# --- the graph routines: candidates and the column iteration ------------------


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 14))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    # planted cycles make several nontrivial components common
    if n > 1:
        cycles = st.lists(vertex, min_size=2, max_size=min(n, 5), unique=True)
        for cycle in draw(st.lists(cycles, max_size=3)):
            edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    return n, edges


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_candidates_are_the_vertices_a_cycle_reaches(graph):
    n, edges = graph
    pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    got = mane._reached_from_cycles(n, pairs[:, 0], pairs[:, 1])
    assert got.tolist() == reached_from_cycles(n, edges)


def test_candidates_of_a_long_cycle_or_chain_need_no_recursion():
    n = 2**14
    points = np.arange(n)
    assert mane._reached_from_cycles(n, points, (points + 1) % n).all()
    # each point one step down, into the fixed point 0
    got = mane._reached_from_cycles(n, points, np.maximum(points - 1, 0))
    assert np.flatnonzero(got).tolist() == [0]


def test_a_candidate_between_cycles_fails_the_return_test():
    # 1 lies on no zero-weight cycle, but the zero loop at 0 reaches it;
    # its one return cycle, 1 -> 2 -> 1, weighs -1
    system = index_system([[0, 2, 2], [1, 1, 1]], [[0.0, 0.0, 0.0], [0.0, BOTTOM, -1.0]])
    src, tgt, w = mane._edges(system)
    near = w >= -1e-9
    assert mane._reached_from_cycles(3, src[near], tgt[near]).all()
    assert assert_matches_dense(system, 1e-9).aubry == (0, 2)


def long_chain_system(n):
    """Map 0 is x -> (1 - d) x + d snapped, d = 1.5 / (n - 1), with weight 0;
    map 1 is the constant map onto point 0, with weight -1.

    Map 0 fixes the points above about 2n/3 and moves every lower point up
    by one or two grid steps, so the best path from an Aubry point (one
    step to 0, then the orbit of 0) is about 2n/3 edges long.
    """
    space = build_grid(0.0, 1.0, n)
    d = 1.5 / (n - 1)
    maps = [[snap(space, (1 - d) * x + d) for x in space.xs], [0] * n]
    weights = [np.zeros(n), np.full(n, -1.0)]
    system = MpIfs(space, discrete_index_space(["0", "1"], spacing=2.5), maps, weights)
    validate(system)
    return system


def test_long_chain_columns_and_round_count():
    assert_matches_dense(long_chain_system(96), 1e-9)
    n = 1024
    system = long_chain_system(n)
    step = system.maps[0]
    orbit = [0]
    while step[orbit[-1]] != orbit[-1]:
        orbit.append(int(step[orbit[-1]]))
    pot = mane_potential(system)
    assert pot.aubry == tuple(np.flatnonzero(step == np.arange(n)).tolist())
    assert len(pot.aubry) == 342
    for z in pot.aubry:
        expected = np.full(n, BOTTOM)
        expected[orbit] = -1.0
        expected[z] = 0.0
        assert pot.column(z).tobytes() == expected.tobytes()
    # the best paths from the last Aubry point run through all 684 points
    # of it and the orbit of 0, so on that sub-graph value iteration takes
    # every one of its n rounds: 683 that change the column, then one that
    # changes nothing
    z = pot.aubry[-1]
    keep = np.union1d([z], orbit)
    assert keep.size == 684
    index = np.full(n, -1)
    index[keep] = np.arange(keep.size)
    src, tgt, w = mane._edges(system)
    inside = (index[src] >= 0) & (index[tgt] >= 0)
    col = maxplus._plus_columns(keep.size, index[src[inside]], index[tgt[inside]], w[inside],
                                index[[z]])
    assert col[:, 0].tobytes() == pot.column(z)[keep].tobytes()


def test_round_cap_raises_internal_error():
    # a cycle of positive weight never settles (a validated system has none)
    with pytest.raises(InternalError, match=r"^path weights still changing after 2 rounds$"):
        maxplus._plus_columns(2, np.array([0, 1]), np.array([1, 0]), np.array([1.0, 1.0]),
                              np.array([0]))


def all_aubry_shift(depth):
    # both maps draw weight 0, so every point is a candidate and an Aubry point
    return cli_system(builder="shift_random", symbols=2, depth=depth, seed=7, constant_weights=True)


def test_all_aubry_columns_hold_one_block_and_a_chunk():
    # the (n, n) block of columns takes 8 MiB, and the row_chunks slices of edges keep
    # every temporary within CHUNK_VALUES values (512 KiB)
    system = all_aubry_shift(10)
    n = system.space.n
    src, tgt, w = mane._edges(system)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cols = maxplus._plus_columns(n, src, tgt, w, np.arange(n))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (cols[np.arange(n), np.arange(n)] == 0.0).all()
    assert peak < n * n * 8 + 2**21


def test_column_limit_admits_a_block_of_exactly_its_size(monkeypatch):
    system = all_aubry_shift(4)
    monkeypatch.setattr(mane, "MAX_COLUMN_VALUES", 16 * 16)
    assert len(mane_potential(system).aubry) == 16
    monkeypatch.setattr(mane, "MAX_COLUMN_VALUES", 16 * 16 - 1)
    with pytest.raises(ConfigError, match=r"^the Aubry columns of 16 points at 16 candidates "
                                          r"are 256 values, more than the limit of 255$"):
        mane_potential(system)
