"""Acceptance suite.

Each test enforces one end-to-end criterion at its stated tolerance and
runtime budget and prints one PASS/FAIL line (run with ``pytest -s`` to
see them as they happen).
"""

import time

import numpy as np

from tropifs.examples import (
    build_nonunique_shift_system,
    build_two_point_system,
    lambda_alpha,
    random_system,
)
from tropifs.fuzzy import FuzzySet, d_theta, fhb_apply, fhb_attractor, theta_conjugate
from tropifs.invariant import (
    BoundaryData,
    build_invariant,
    coding_map,
    constant_weight_density,
)
from tropifs.mane import mane_potential
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density
from tropifs.mpifs import d_rho, transfer_density
from tropifs.spaces import build_grid, build_shift_space

from oracles import (
    check_triangle,
    dense_closure,
    dyadic,
    dyadic_mp,
    edge_table,
    iterate_transfer,
    j0_image,
    naive_dual_transfer,
    naive_mu_eval,
    normalize,
    paths_closure,
    words_closure,
)


def run_criterion(num, name, budget, body):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget}s"
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS ({elapsed:.2f}s, budget {budget:.0f}s)")


def rand_probability(space, seed, p_bottom=0.2):
    rng = np.random.default_rng(seed)
    vals = dyadic_mp(rng, space.n, p_bottom=p_bottom)
    if not (vals > BOTTOM).any():
        vals[0] = 0.0
    return normalize(Density(space, vals))


def test_acceptance_1_shift_family_reproduction():
    def body():
        depth = 6
        alphas = [0.0, 0.25, 0.5]
        system = build_nonunique_shift_system(depth)
        pot = mane_potential(system)
        words = system.space.points
        densities = [lambda_alpha(depth, a) for a in alphas]

        for lam in densities:
            out = transfer_density(system, lam)
            assert np.array_equal(out.values, lam.values)  # deviation exactly 0

        for i in range(len(alphas)):
            for k in range(i + 1, len(alphas)):
                assert d_theta(densities[i], densities[k]) > 0

        one = words.index((1,) * depth)
        two = words.index((2,) * depth)
        for a, lam in zip(alphas, densities):
            built = build_invariant(
                pot, BoundaryData(values={one: 0.0, two: -a}, anchor=one)
            )
            assert np.array_equal(built.values, lam.values)

        # displayed family values, read through depth-6 representatives
        for a, lam in zip(alphas, densities):
            assert lam.values[words.index((2, 2, 2, 1, 1, 1))] == -1.0
            assert lam.values[words.index((2, 1, 1, 2, 1, 1))] == -3.0
            assert lam.values[words.index((2, 2, 2, 1, 2, 2))] == -2.0 - a

    run_criterion(1, "shift-family reproduction", 5.0, body)


def _criterion2_systems():
    specs = []
    for i in range(50):
        kind = i % 5
        if kind == 0:
            specs.append(("shift", 2, 2, 2, i))      # 4 points
        elif kind == 1:
            specs.append(("shift", 2, 3, 2, i))      # 8 points
        elif kind == 2:
            specs.append(("grid", 0.0, 1.0, 6 + (i % 7), min(3, 1 + i % 3), i))
        elif kind == 3:
            specs.append(("grid", -1.0, 1.0, 12, 3, i))
        else:
            specs.append(("grid", 0.0, 2.0, 4 + (i % 9), 2, i))
    return specs


def test_acceptance_2_potential_oracle():
    def body():
        for spec in _criterion2_systems():
            if spec[0] == "shift":
                _, symbols, depth, m, seed = spec
                space = build_shift_space(symbols, depth)
                system = random_system(space, m, seed)
            else:
                _, a, b, n, m, seed = spec
                system = random_system(build_grid(a, b, n), m, seed)
            n = system.space.n
            assert n <= 12 and system.num_maps <= 3
            s = dense_closure(system).entries
            edges = edge_table(system.maps.tolist(), system.weights.tolist(), n)
            oracle = paths_closure(edges, max_len=n)
            assert np.array_equal(s, oracle)  # includes BOTTOM pattern
            if n <= 6 and system.num_maps <= 2:
                word_oracle = words_closure(
                    system.maps.tolist(), system.weights.tolist(), n, max_len=n
                )
                assert np.array_equal(s, word_oracle)

    run_criterion(2, "potential vs brute force on 50 systems", 30.0, body)


def test_acceptance_3_duality():
    def body():
        cases = 0
        for i in range(100):
            kind = i % 4
            if kind == 0:
                space = build_shift_space(2, 4 + (i % 3))   # 16..64 points
                system = random_system(space, 2, i, constant_weights=(i % 2 == 0))
            else:
                n = 16 + (i * 7) % 49                        # 16..64 points
                system = random_system(build_grid(0.0, 1.0, n), 1 + i % 3, i)
            rng = np.random.default_rng(1000 + i)
            lam = rand_probability(system.space, 2000 + i)
            f = dyadic(rng, system.space.n)
            lhs = naive_mu_eval(transfer_density(system, lam).values, f)
            rhs = naive_mu_eval(lam.values, naive_dual_transfer(system.maps, system.weights, f))
            assert abs(lhs - rhs) == 0.0
            cases += 1
        assert cases == 100

    run_criterion(3, "duality exact on 100 triples", 10.0, body)


def test_acceptance_4_aubry_and_triangle():
    def body():
        specs = [("grid", 20), ("grid", 40), ("grid", 60), ("grid", 80), ("grid", 100),
                 ("grid", 33), ("grid", 77), ("grid", 96), ("shift", (2, 5)),
                 ("shift", (2, 6)), ("shift", (3, 4)), ("grid", 100), ("grid", 64),
                 ("grid", 25), ("grid", 50)]
        for i, (kind, size) in enumerate(specs):
            if kind == "grid":
                system = random_system(build_grid(0.0, 1.0, size), 1 + i % 3, 7 * i + 1)
            else:
                symbols, depth = size
                system = random_system(
                    build_shift_space(symbols, depth), symbols, 7 * i + 1
                )
            assert system.space.n <= 100
            pot = mane_potential(system, tol_aubry=1e-9)
            assert len(pot.aubry) >= 1
            assert check_triangle(dense_closure(system).entries)

    run_criterion(4, "Aubry nonempty and triangle property", 60.0, body)


def test_acceptance_5_constant_weight_uniqueness():
    def body():
        systems = []
        for i in range(14):
            n = 50 + (i * 150) // 13                        # 50..200 points
            systems.append(
                (random_system(build_grid(0.0, 1.0, n), 1 + i % 3, 31 + i,
                               constant_weights=True), False)
            )
        for symbols, depth, seed in ((2, 3, 1), (2, 4, 2), (2, 5, 3), (3, 3, 4), (2, 6, 5)):
            systems.append(
                (random_system(build_shift_space(symbols, depth), symbols, seed,
                               constant_weights=True), True)
            )
        systems.append((build_two_point_system(), True))
        assert len(systems) == 20

        for idx, (system, symbolic) in enumerate(systems):
            pot = mane_potential(system)
            lam = constant_weight_density(system, pot)
            cols = dense_closure(system).entries[:, list(pot.aubry)]
            for k in range(1, cols.shape[1]):
                both = (cols[:, 0] > BOTTOM) & (cols[:, k] > BOTTOM)
                if both.any():
                    assert np.max(np.abs(cols[both, 0] - cols[both, k])) <= 1e-9
            rng = np.random.default_rng(500 + idx)
            for _ in range(10):
                vals = dyadic_mp(rng, system.space.n, p_bottom=0.1)
                if not (vals > BOTTOM).any():
                    vals[0] = 0.0
                values, _, converged = iterate_transfer(
                    lambda v: transfer_density(system, Density(system.space, v)).values,
                    vals,
                    tol=1e-12,
                )
                assert converged
                assert d_rho(Density(system.space, values), lam) <= 1e-9
            if symbolic:
                assert j0_image(system, coding_map(system)) == set(pot.aubry)

    run_criterion(5, "constant-weight uniqueness on 20 systems", 120.0, body)


def test_acceptance_6_fuzzy_conjugation():
    def body():
        for i in range(100):
            if i % 3 == 0:
                space = build_shift_space(2, 3 + i % 3)
                system = random_system(space, 2, i, constant_weights=(i % 2 == 0))
            else:
                n = 8 + (i * 5) % 57
                system = random_system(
                    build_grid(0.0, 1.0, n), 1 + i % 3, i, constant_weights=(i % 2 == 0)
                )
            lam = rand_probability(system.space, 3000 + i)
            lhs = fhb_apply(system, theta_conjugate(lam)).values
            rhs = np.exp(transfer_density(system, lam).values)
            assert np.max(np.abs(lhs - rhs)) <= 1e-15

        attractor_systems = [build_two_point_system()] + [
            random_system(build_shift_space(s, d), s, seed, constant_weights=True)
            for s, d, seed in ((2, 3, 11), (2, 4, 12), (2, 5, 13), (3, 3, 14),
                               (2, 6, 15), (3, 4, 16), (2, 4, 17))
        ]
        for system in attractor_systems:
            pot = mane_potential(system)
            lam = constant_weight_density(system, pot)
            res = fhb_attractor(system, FuzzySet(system.space, np.ones(system.space.n)))
            assert np.max(np.abs(res.attractor.values - np.exp(lam.values))) <= 1e-9
            ratios = [
                b / a for a, b in zip(res.trace, res.trace[1:]) if a > 0 and b > 0
            ]
            assert all(r <= system.validation.gamma_hat + 1e-12 for r in ratios)

    run_criterion(6, "fuzzy conjugation and attractors", 30.0, body)


def test_acceptance_7_law_suites():
    def body():
        rng = np.random.default_rng(99)

        def scalars(k):
            vals = dyadic(rng, k, lo=-8.0, hi=8.0)
            vals[rng.random(k) < 0.2] = BOTTOM
            return vals

        for _ in range(1000):
            a, b, c = scalars(3)
            assert max(a, b) == max(b, a)
            assert max(max(a, b), c) == max(a, max(b, c))
            assert max(a, a) == a
            assert max(a, BOTTOM) == a
            assert a + BOTTOM == BOTTOM
            assert a + max(b, c) == max(a + b, a + c)

    run_criterion(7, "semiring law suite", 10.0, body)
