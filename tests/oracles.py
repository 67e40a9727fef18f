"""Independent reference computations for the test suite.

Everything here is plain-Python loop code, structurally unrelated to the
vectorized implementations it checks.  Random values are drawn on the
dyadic lattice 2^-26 so that sums are exact float64 numbers no matter the
association order; exact-equality comparisons between an oracle and the
library are then meaningful.
"""

import csv
import io
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


def closure_to_fixed_point(a, max_sweeps=8):
    """Floyd-Warshall closure of ``a`` by full sweeps until one changes nothing.

    The loop ``kleene_plus`` ran for every input before it learnt to stop
    after one sweep whose sums are all exact, kept as the reference for
    it.  A positive cycle is a ValueError, no fixed point within
    ``max_sweeps`` a RuntimeError.
    """
    p = a.copy()
    n = a.shape[0]
    for _ in range(max_sweeps):
        before = p.copy()
        for k in range(n):
            np.maximum(p, p[:, k, None] + p[None, k, :], out=p)
        diag_max = np.max(np.diagonal(p)) if n else BOTTOM
        if diag_max > 0:
            raise ValueError(f"positive-weight cycle detected (diag max {diag_max})")
        if np.array_equal(p, before):
            return p
    raise RuntimeError("closure failed to stabilize")


def apply_word(maps, weights, word, y):
    """Re-implementation of word application: (total weight, endpoint)."""
    total = 0.0
    cur = y
    for j in reversed(word):
        total = weights[j][cur] + total
        cur = maps[j][cur]
    return total, cur


def word_prepend_maps(symbols, depth):
    """maps[j][i]: index of the word i with symbol j + 1 prepended and its last symbol dropped.

    Words are all tuples over 1..symbols of the given depth, listed in
    ``itertools.product`` order, and looked up in a dict.
    """
    words = list(itertools.product(range(1, symbols + 1), repeat=depth))
    index = {w: i for i, w in enumerate(words)}
    return np.array([[index[(j,) + w[:-1]] for w in words] for j in range(1, symbols + 1)])


def check_triangle(s, tol=0.0):
    """S[x, z] >= S[x, y] + S[y, z] over all triples (concatenation bound).

    A running maximum over the middle index y keeps memory at O(n^2).
    """
    through = np.full(s.shape, BOTTOM)
    for y in range(s.shape[0]):
        np.maximum(through, s[:, y, None] + s[None, y, :], out=through)
    return bool(np.all(s >= through - tol))


def check_sum_lipschitz(system, trials=1000, seed=0):
    """Sampled Lipschitz ratio of the accumulated weight in its base point.

    Draws random words and point pairs and returns the largest observed
    |Sum(w, y1) - Sum(w, y2)| / d(y1, y2).  For exact maps the ratio is
    asserted to stay within lip_c_hat / (1 - gamma_hat).  Snapped maps can
    phase-lock two orbits onto a short cycle a cell or two apart, making
    the weight difference grow with the word length, so for them the ratio
    is only reported.
    """
    assert system.validation is not None
    n = system.space.n
    if n < 2:
        return 0.0
    maps, weights = system.maps.tolist(), system.weights.tolist()
    dx = distance_table(system.space)
    rng = np.random.default_rng(seed)
    max_len = max(1, 4 * n)
    best = 0.0
    for _ in range(trials):
        length = int(rng.integers(1, min(max_len, 32) + 1))
        word = rng.integers(0, system.num_maps, size=length).tolist()
        y1, y2 = (int(y) for y in rng.choice(n, size=2, replace=False))
        s1, _ = apply_word(maps, weights, word, y1)
        s2, _ = apply_word(maps, weights, word, y2)
        if s1 == BOTTOM or s2 == BOTTOM:
            continue
        best = max(best, abs(s1 - s2) / dx[y1, y2])
    if system.exact_maps:
        report = system.validation
        bound = report.lip_c_hat / (1.0 - report.gamma_hat)
        assert best <= bound + 1e-12, f"Lipschitz ratio {best} exceeds bound {bound}"
    return best


def iterate_transfer(step, lam0, tol=1e-12, max_iters=None):
    """Fixed-point search: apply ``step`` to density values and re-normalize.

    Stops when consecutive iterates are within ``tol`` in the exponential
    sup metric max |e^a - e^b|.  Returns (values, iterations, converged);
    without convergence the last iterate is returned after ``max_iters``
    steps (default 10 n).
    """
    cur = np.asarray(lam0, dtype=np.float64)
    cur = cur - cur.max()
    if max_iters is None:
        max_iters = 10 * cur.size
    for k in range(1, max_iters + 1):
        nxt = np.asarray(step(cur), dtype=np.float64)
        nxt = nxt - nxt.max()
        if np.max(np.abs(np.exp(cur) - np.exp(nxt))) <= tol:
            return nxt, k, True
        cur = nxt
    return cur, max_iters, False


def zero_weight_maps(system):
    """Indices j whose constant weight q_j is exactly 0 (the set J_0)."""
    return tuple(j for j in range(system.num_maps) if system.weights[j][0] == 0.0)


def word_table(system, depth, alphabet=None, x_ref=0):
    """Endpoint of ``x_ref`` under each word of ``depth`` map indices.

    Words are tuples over ``alphabet`` (default: every map index), the
    leftmost index applied last, composed one point at a time.
    """
    if alphabet is None:
        alphabet = range(system.num_maps)
    table = {}
    for word in itertools.product(alphabet, repeat=depth):
        _, end = apply_word(system.maps, system.weights, word, x_ref)
        table[word] = int(end)
    return table


def composite_collapse_depth(maps, max_depth):
    """Least k <= ``max_depth`` at which every composite of k maps is constant.

    Builds the distinct composites of k maps, as tuples, level by level.
    Each level is a function of the one before, so a level seen before
    means the levels cycle without collapsing: ``None``, as past
    ``max_depth``.
    """
    n = len(maps[0])
    composites = {tuple(range(n))}
    seen = set()
    for k in range(1, max_depth + 1):
        composites = {tuple(int(m[x]) for x in c) for c in composites for m in maps}
        if all(len(set(c)) == 1 for c in composites):
            return k
        level = frozenset(composites)
        if level in seen:
            return None
        seen.add(level)
    return None


def j0_image(system, depth):
    """Points the words of ``depth`` zero-weight indices send a point to."""
    return set(word_table(system, depth, zero_weight_maps(system)).values())


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


def scatter_transition_matrix(maps, weights):
    """One-step best edge weights by one ``np.maximum.at`` over the (m, n)
    tables in map-major order, the scatter form of the transition matrix.

    Unlike :func:`edge_table`, a +0.0 / -0.0 tie keeps the later map's zero.
    """
    maps = np.asarray(maps)
    n = maps.shape[1]
    a = np.full((n, n), BOTTOM)
    src = np.broadcast_to(np.arange(n), maps.shape)
    weights = np.asarray(weights, dtype=float)
    np.maximum.at(a, (maps.reshape(-1), src.reshape(-1)), weights.reshape(-1))
    return a


def on_cycle(n, edges):
    """Per vertex: does it reach itself by a path of length >= 1?

    A depth-first search from each vertex's successors; quadratic, and
    shares nothing with the strongly-connected-component routine it checks.
    """
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    out = []
    for v in range(n):
        seen, todo = set(), list(succ[v])
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                todo.extend(succ[u])
        out.append(v in seen)
    return out


def reached_from_cycles(n, edges):
    """Per vertex: does a path of length >= 0 lead to it from a vertex on a
    cycle?  :func:`on_cycle`, then a depth-first search from its vertices.
    """
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    seen = set()
    todo = [v for v, cyclic in enumerate(on_cycle(n, edges)) if cyclic]
    while todo:
        u = todo.pop()
        if u not in seen:
            seen.add(u)
            todo.extend(succ[u])
    return [v in seen for v in range(n)]


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


def scatter_transfer_density(maps, weights, lam):
    """One ``np.maximum.at`` pass over the pairs (j, y) in order: the form
    ``transfer_density`` had before it took blocks.  It fixes which of 0.0
    and -0.0 a tie keeps, which the loop above (strict ``>``) does not."""
    out = np.full(len(lam), BOTTOM)
    np.maximum.at(out, maps.reshape(-1), (weights + lam[None, :]).reshape(-1))
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


def naive_weight_lipschitz(dx, weights):
    """max over maps j and pairs x1 != x2 with finite weights of
    |q_j(x1) - q_j(x2)| / d(x1, x2), floored at 0."""
    dx, weights = dx.tolist(), weights.tolist()
    best = 0.0
    for w in weights:
        for x1, a in enumerate(w):
            for x2, b in enumerate(w):
                if a != BOTTOM and b != BOTTOM and dx[x1][x2] > 0:
                    best = max(best, abs(a - b) / dx[x1][x2])
    return best


def dense_contraction_constant(system):
    """The library's dense gamma_hat over a full distance table, as it stood
    before grids held no table: one n x n block per map pair j1 <= j2."""
    dx = distance_table(system.space)
    dj = system.index_space.dist
    img = system.maps  # (m, n)
    slack2 = 2.0 * system.snap_slack
    m, n = img.shape
    numer = np.empty((n, n))
    denom = np.empty((n, n))
    best = 0.0
    for j1 in range(m):
        rows = dx[img[j1]]
        for j2 in range(j1, m):
            np.take(rows, img[j2], axis=1, out=numer)
            np.subtract(numer, slack2, out=numer)
            np.add(dj[j1, j2], dx, out=denom)
            if dj[j1, j2] > 0:
                quot = np.divide(numer, denom, out=numer)
            else:
                mask = denom > 0
                quot = numer[mask] / denom[mask]
            if quot.size:
                best = max(best, float(quot.max()))
    return best


def dense_weight_lipschitz(system):
    """The library's dense Lipschitz estimate over a full distance table, as
    it stood before grids held no table."""
    dx = distance_table(system.space)
    best = 0.0
    for j in range(system.num_maps):
        w = system.weights[j]
        finite = w > BOTTOM
        if finite.sum() < 2:
            continue
        wf = w[finite]
        sub = dx[np.ix_(finite, finite)]
        diff = np.abs(wf[:, None] - wf[None, :])
        mask = sub > 0
        if mask.any():
            best = max(best, float(np.max(diff[mask] / sub[mask])))
    return best


def naive_snap(xs, value):
    """Index of the coordinate nearest ``value`` by a full scan; ties go to the lowest index."""
    return int(np.argmin(np.abs(xs - float(value))))


def nearest_member(xs, t, points, k, rows=64):
    """min over {v : t[v] < k[i]} of |xs[points[i]] - xs[v]|, +inf over an empty
    set, from the coordinates ``xs`` of ``rows`` points at a time."""
    k = np.broadcast_to(k, points.shape)
    out = np.empty(points.shape)
    for first in range(0, points.size, rows):
        x, bound = points[first:first + rows], k[first:first + rows]
        near = np.abs(xs[x, None] - xs[None, :])
        out[first:first + rows] = np.where(t < bound[:, None], near, np.inf).min(axis=1)
    return out


def naive_affine_grid_maps(xs, num_maps, rng, constant_first):
    """The snapped affine maps of ``examples._affine_grid_maps``, one scan per point."""
    a, b = float(xs[0]), float(xs[-1])
    maps = []
    for j in range(num_maps):
        if constant_first and j == 0:
            maps.append([naive_snap(xs, rng.uniform(a, b))] * len(xs))
            continue
        slope = rng.uniform(0.2, 0.6) * (1 if rng.random() < 0.5 else -1)
        span_lo = min(slope * a, slope * b)
        span_hi = max(slope * a, slope * b)
        shift = rng.uniform(a - span_lo, b - span_hi)
        maps.append([naive_snap(xs, shift + slope * float(x)) for x in xs])
    return maps


def naive_cylinder_table(words):
    """d(w, v) = (1/2)^i at the first position i >= 1 where the words differ."""
    n = len(words)
    table = np.zeros((n, n))
    for x, w in enumerate(words):
        for y, v in enumerate(words):
            for i, (a, b) in enumerate(zip(w, v)):
                if a != b:
                    table[x, y] = 0.5 ** (i + 1)
                    break
    return table


def naive_is_constant_weight(weights, tol):
    """Map by map: one BOTTOM at some points only is not constant, one BOTTOM
    everywhere is skipped, and any other may vary by at most ``tol``."""
    for w in weights:
        finite = w > BOTTOM
        if finite.any() and not finite.all():
            return False
        if finite.all() and w.max() - w.min() > tol:
            return False
    return True


def labelled_csv(header, labels, rows):
    """Text ``csv.writer`` writes for ``header``, then per label: it and ``repr`` of its floats."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for label, row in zip(labels, rows):
        writer.writerow([label] + [repr(float(x)) for x in row])
    return buf.getvalue()


def enumerate_by_assignment(system, pot, levels):
    """The loop ``enumerate_invariants`` ran before it built its densities as a block.

    One density per assignment of ``levels`` to the non-anchor Aubry
    points, in ``itertools.product`` order, each distinct one verified
    once, one density at a time.  Returns ``(density, max_deviation)``
    pairs in first-seen order, whether or not a deviation passes.
    """
    from tropifs.errors import ConfigError
    from tropifs.invariant import (
        MAX_ASSIGNMENTS, MAX_ENUMERATE_VALUES, BoundaryData, build_invariant, verify_invariant)

    for lv in levels:
        if np.isnan(lv) or lv > 0:
            raise ConfigError("levels must lie in [-inf, 0]")
    anchor = pot.aubry[0]
    others = list(pot.aubry[1:])
    total = len(levels) ** len(others)
    if total > MAX_ASSIGNMENTS:
        raise ConfigError(
            f"enumerate would build {len(levels)}^{len(others)} boundary assignments "
            f"({len(levels)} levels, {len(pot.aubry)} Aubry points), "
            f"more than the limit of {MAX_ASSIGNMENTS}"
        )
    if total * pot.space.n > MAX_ENUMERATE_VALUES:
        raise ConfigError(
            f"enumerate would build {total} boundary assignments of {pot.space.n} points, "
            f"{total * pot.space.n} values, more than the limit of {MAX_ENUMERATE_VALUES}"
        )

    # Keyed by bytes, keeping first-seen order; adding 0.0 folds -0.0 into
    # 0.0, so two densities share a key exactly when np.array_equal holds,
    # and then their deviations (on the exp scale, where -0.0 and 0.0 are
    # both 1) are equal too, so verifying the first one verifies both.
    distinct = {}
    for assignment in itertools.product(levels, repeat=len(others)):
        vals = {anchor: 0.0}
        vals.update(dict(zip(others, assignment)))
        lam = build_invariant(pot, BoundaryData(values=vals, anchor=anchor))
        key = (lam.values + 0.0).tobytes()
        if key not in distinct:
            distinct[key] = (lam, verify_invariant(system, lam).max_deviation)
    return list(distinct.values())


def distance_table(space):
    """The n x n table of ``space.distances`` over all index pairs."""
    i = np.arange(space.n)
    return space.distances(i[:, None], i)


def dense_closure(system):
    """The dense closure S = A+ of a system, as the ``mane`` command builds it."""
    from tropifs.mane import transition_matrix
    from tropifs.maxplus import kleene_plus

    return kleene_plus(transition_matrix(system))


def build_point_space(labels, dist, resolution=0.0):
    """Explicit space from a distance table; exact (no discretization error) by default."""
    from tropifs.spaces import FiniteSpace

    return FiniteSpace(labels=labels, dist=np.asarray(dist, float), resolution=resolution)


def values_to_jsonable(arr):
    """The entries of ``arr``, flattened, as floats with BOTTOM spelled "-inf"."""
    return ["-inf" if x == BOTTOM else x for x in np.asarray(arr, dtype=np.float64).ravel().tolist()]


def space_to_jsonable(space):
    """The explicit ``{"labels", "dist", "resolution"}`` form of a space."""
    return {
        "labels": list(space.labels),
        "dist": [[float(x) for x in row] for row in distance_table(space)],
        "resolution": float(space.resolution),
    }


def system_to_jsonable(system):
    """A system as the ``inline`` block of a config, with an explicit space."""
    return {
        "space": space_to_jsonable(system.space),
        "index_space": {
            "labels": list(system.index_space.labels),
            "dist": [[float(x) for x in row] for row in system.index_space.dist],
        },
        "maps": [[int(t) for t in row] for row in system.maps],
        "weights": [values_to_jsonable(row) for row in system.weights],
        "exact_maps": bool(system.exact_maps),
    }
