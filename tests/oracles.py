"""Independent reference computations for the test suite.

Everything here is plain-Python loop code, structurally unrelated to the
vectorized implementations it checks.  Random values are drawn on the
dyadic lattice 2^-26 so that sums are exact float64 numbers no matter the
association order; exact-equality comparisons between an oracle and the
library are then meaningful.
"""

import itertools

import numpy as np

BOTTOM = float("-inf")
QUANT = float(2**-26)


def dyadic(rng, *shape, lo=-5.0, hi=0.0):
    """Uniform values on [lo, hi] rounded to the dyadic lattice."""
    raw = rng.uniform(lo, hi, size=shape)
    return np.round(raw / QUANT) * QUANT


def dyadic_mp(rng, *shape, lo=-5.0, hi=0.0, p_bottom=0.2):
    """Dyadic values with a sprinkling of BOTTOM entries."""
    vals = dyadic(rng, *shape, lo=lo, hi=hi)
    mask = rng.random(shape) < p_bottom
    vals[mask] = BOTTOM
    return vals


def naive_mat_mul(a, b):
    """Triple-loop max-plus product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.full((n, m), BOTTOM)
    for i in range(n):
        for j in range(m):
            best = BOTTOM
            for t in range(k):
                cand = a[i, t] + b[t, j]
                if cand > best:
                    best = cand
            out[i, j] = best
    return out


def paths_closure(a, max_len=None):
    """Best path weight per (target, source) over path lengths 1..max_len.

    Dynamic program over explicit path lengths, extending at the head:
    a length-L path is one edge prepended to a length-(L-1) path.
    """
    n = a.shape[0]
    if max_len is None:
        max_len = n
    best = a.copy()
    cur = a.copy()
    for _ in range(max_len - 1):
        nxt = np.full((n, n), BOTTOM)
        for x in range(n):
            for y in range(n):
                b = BOTTOM
                for z in range(n):
                    cand = a[x, z] + cur[z, y]
                    if cand > b:
                        b = cand
                nxt[x, y] = b
        cur = nxt
        np.maximum(best, cur, out=best)
    return best


def apply_word(maps, weights, word, y):
    """Re-implementation of word application: (total weight, endpoint)."""
    total = 0.0
    cur = y
    for j in reversed(word):
        total = weights[j][cur] + total
        cur = maps[j][cur]
    return total, cur


def words_closure(maps, weights, n, max_len):
    """Best weight per (target, source) by explicit word enumeration."""
    m = len(maps)
    best = np.full((n, n), BOTTOM)
    for length in range(1, max_len + 1):
        for word in itertools.product(range(m), repeat=length):
            for y in range(n):
                total, end = apply_word(maps, weights, word, y)
                if total > best[end, y]:
                    best[end, y] = total
    return best


def edge_table(maps, weights, n):
    """One-step best edge weights, assembled with naive loops."""
    m = len(maps)
    a = np.full((n, n), BOTTOM)
    for j in range(m):
        for y in range(n):
            x = maps[j][y]
            if weights[j][y] > a[x, y]:
                a[x, y] = weights[j][y]
    return a


def naive_dual_transfer(maps, weights, f):
    m, n = weights.shape
    out = np.empty(n)
    for x in range(n):
        best = BOTTOM
        for j in range(m):
            cand = weights[j][x] + f[maps[j][x]]
            if cand > best:
                best = cand
        out[x] = best
    return out


def naive_transfer_density(maps, weights, lam):
    m, n = weights.shape
    out = np.full(n, BOTTOM)
    for j in range(m):
        for y in range(n):
            cand = weights[j][y] + lam[y]
            x = maps[j][y]
            if cand > out[x]:
                out[x] = cand
    return out


def naive_mu_eval(lam, f):
    best = BOTTOM
    for lv, fv in zip(lam, f):
        if lv + fv > best:
            best = lv + fv
    return best


def naive_cut_distance(dist, a, b):
    """Hausdorff distance of two index lists by pairwise loops.

    An empty list against a nonempty one counts the largest distance in the
    table; two empty lists are at distance 0.
    """
    if not a and not b:
        return 0.0
    if not a or not b:
        return max(max(row) for row in dist.tolist())

    def directed(p, q):
        worst = 0.0
        for x in p:
            best = min(dist[x, y] for y in q)
            if best > worst:
                worst = best
        return worst

    return max(directed(a, b), directed(b, a))


def naive_d_infty(dist, u, v):
    """sup over the attained membership levels and 0 of the cut distance.

    The cut at level t > 0 is {u >= t}, at level 0 the support {u > 0};
    every cut is listed explicitly.
    """
    n = len(u)
    levels = {0.0} | {float(t) for t in u if t > 0} | {float(t) for t in v if t > 0}
    best = 0.0
    for t in levels:
        if t == 0.0:
            a = [x for x in range(n) if u[x] > 0]
            b = [x for x in range(n) if v[x] > 0]
        else:
            a = [x for x in range(n) if u[x] >= t]
            b = [x for x in range(n) if v[x] >= t]
        best = max(best, naive_cut_distance(dist, a, b))
    return best


def naive_d_theta(dist, lam, eta):
    """sup over the attained finite density values of the super-level cut distance."""
    n = len(lam)
    levels = {float(t) for t in lam if t > BOTTOM} | {float(t) for t in eta if t > BOTTOM}
    best = 0.0
    for beta in levels:
        a = [x for x in range(n) if lam[x] >= beta]
        b = [x for x in range(n) if eta[x] >= beta]
        best = max(best, naive_cut_distance(dist, a, b))
    return best


def naive_contraction_constant(dx, dj, maps, slack):
    """max over (j1, x1, j2, x2) with dJ + dX > 0 of
    (d(phi_j1(x1), phi_j2(x2)) - 2*slack) / (dJ + dX), floored at 0."""
    dx, dj, maps = dx.tolist(), dj.tolist(), maps.tolist()
    m, n = len(maps), len(dx)
    best = 0.0
    for j1 in range(m):
        for x1 in range(n):
            for j2 in range(m):
                for x2 in range(n):
                    den = dj[j1][j2] + dx[x1][x2]
                    if den > 0:
                        q = (dx[maps[j1][x1]][maps[j2][x2]] - 2.0 * slack) / den
                        if q > best:
                            best = q
    return best
