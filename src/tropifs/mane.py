"""Mane potential and Aubry set of a max-plus IFS.

The one-step transition matrix has A[x, y] = best weight of jumping from
source y to target x in a single map application.  Its transitive closure
S = A+ gives, at (x, y), the supremum of accumulated weights over all
finite words steering y onto x; the Aubry set collects the points whose
zero-cost return S[x, x] = 0 is attained (up to a diagonal tolerance that
only absorbs float summation error).

The invariant densities only need the Aubry set and the columns of S at
Aubry points, and both are graph problems on the at most m*n transition
edges y -> phi_j(y) of weight q_j(y) <= 0 (the critical-graph view of
max-plus spectral theory, Butkovic, *Max-linear Systems*, 2010):

* a return cycle of weight >= -tol uses only edges of weight >= -tol, so
  every Aubry point lies on a nontrivial strongly connected component (or
  a self-loop) of that edge subgraph, found by an iterative Tarjan
  (SIAM J. Comput. 1972);
* the column S[:, z] is the fixed point of col <- max(col, transfer(col))
  started from the unit column at z: a Bellman-Ford relaxation whose step
  is the transfer operator itself.  Weights are <= 0, so a best path is
  simple and the iteration settles within n rounds.

:func:`mane_potential` computes those on the sparse graph in plain numpy;
the dense n x n closure is built by Floyd-Warshall only when
:attr:`PotentialMatrix.s` is read (the ``mane`` command, tests).

Because the maps are stored pre-snapped, "landing within epsilon of x"
degenerates to exact index equality: the S computed here is the
resolution-scale version of the continuum potential.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyAubryError, InternalError
from .maxplus import BOTTOM, MpMatrix, kleene_plus
from .mpifs import MpIfs

AUBRY_TOL = 1e-9
#: Most points whose dense closure :attr:`PotentialMatrix.s` the ``mane``
#: command builds.  Floyd-Warshall is n^3: at this limit ``tropifs mane``
#: took 32-37 s and 240 MiB of max RSS (``grid_random`` and
#: ``shift_random``, 2 shared vCPUs), and each doubling of n costs 8x the
#: time and 4x the memory of its n x n tables.
MAX_CLOSURE_POINTS = 2**11


class PotentialMatrix:
    """Aubry set and the closure S (row = target, column = source) at it.

    ``columns[:, k]`` is the column S[:, aubry[k]], which is all the
    invariant densities need.  The full closure :attr:`s` is built from
    ``system`` on first access.
    """

    def __init__(
        self,
        aubry: Sequence[int],
        tol_aubry: float,
        columns: np.ndarray,
        system: MpIfs,
    ):
        self.space = system.space
        self.aubry = tuple(aubry)
        self.tol_aubry = tol_aubry
        columns.flags.writeable = False
        self.columns = columns
        self.system = system
        self._slot = {z: k for k, z in enumerate(self.aubry)}

    @cached_property
    def s(self) -> MpMatrix:
        """The dense closure A+, computed once on first access."""
        return kleene_plus(transition_matrix(self.system))

    def column(self, z: int) -> np.ndarray:
        """S[:, z] for an Aubry point ``z`` (read-only view)."""
        return self.columns[:, self._slot[z]]


def transition_matrix(system: MpIfs) -> MpMatrix:
    """A[x, y] = max over j with phi_j(y) = x of q_j(y); BOTTOM when no j hits."""
    n = system.space.n
    a = np.full((n, n), BOTTOM)
    src = np.broadcast_to(np.arange(n), system.maps.shape)
    np.maximum.at(a, (system.maps.reshape(-1), src.reshape(-1)), system.weights.reshape(-1))
    return MpMatrix(a)


def _edges(system: MpIfs):
    """Transition edges (source, target, weight): finite, one per pair, max weight.

    Parallel edges are merged to their max, so every pair is relaxed once.
    """
    n = system.space.n
    src = np.broadcast_to(np.arange(n), system.maps.shape).reshape(-1)
    tgt = system.maps.reshape(-1)
    w = system.weights.reshape(-1)
    finite = w > BOTTOM
    src, tgt, w = src[finite], tgt[finite], w[finite]
    key = src * n + tgt
    order = np.lexsort((w, key))
    last = np.append(key[order][1:] != key[order][:-1], True)
    keep = order[last]
    return src[keep], tgt[keep], w[keep]


def _round_limit(n: int) -> int:
    """Relaxation rounds allowed: a best path is simple, so n always suffice."""
    return n


def _on_cycle(n: int, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Mask of the vertices on a cycle: nontrivial SCCs and self-loops.

    Tarjan's algorithm over CSR arrays, with an explicit stack instead of
    recursion so that a path of any length fits.
    """
    order = np.argsort(src, kind="stable")
    heads = tgt[order].tolist()
    start = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    nxt = start[:-1]  # nxt[v]: the next out-edge of v to try
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[src[src == tgt]] = True
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        path = [root]  # the depth-first path
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while path:
            v = path[-1]
            e = nxt[v]
            if e < start[v + 1]:
                nxt[v] = e + 1
                u = heads[e]
                if index[u] < 0:
                    path.append(u)
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack[u] = True
                elif on_stack[u] and index[u] < low[v]:
                    low[v] = index[u]
                continue
            path.pop()
            if path and low[v] < low[path[-1]]:
                low[path[-1]] = low[v]
            if low[v] == index[v]:
                component = []
                while not component or component[-1] != v:
                    u = stack.pop()
                    on_stack[u] = False
                    component.append(u)
                if len(component) >= 2:
                    on_cycle[component] = True
    return on_cycle


def _columns(n: int, src, tgt, w, sources: np.ndarray) -> np.ndarray:
    """col[x, k] = best weight of a path sources[k] -> x of length >= 0.

    Value iteration col <- max(col, transfer(col)) on all sources at once:
    each round relaxes, in place, only the out-edges of the rows that
    changed in the round before, at most n edges at a time so that no
    temporary outgrows the (n, k) block.  Each such chunk reads the block
    before it scatters its sums with one ``np.maximum.at``; any order of
    these monotone updates reaches the same least fixed point.
    """
    order = np.argsort(src, kind="stable")
    src, tgt, w = src[order], tgt[order], w[order]
    start = np.searchsorted(src, np.arange(n + 1))
    k = sources.size
    cols = np.full((n, k), BOTTOM)
    cols[sources, np.arange(k)] = 0.0
    frontier = sources
    for _ in range(_round_limit(n)):
        # the out-edge ranges [start[v], start[v + 1]) of the frontier, joined
        lo, counts = start[frontier], start[frontier + 1] - start[frontier]
        edges = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        grown = np.zeros(n, dtype=bool)
        for first in range(0, edges.size, n):
            part = edges[first:first + n]
            t = tgt[part]
            best = cols.take(src[part], axis=0)
            best += w[part, None]
            grown[t[(best > cols.take(t, axis=0)).any(axis=1)]] = True
            np.maximum.at(cols.reshape(-1), (t[:, None] * k + np.arange(k)).ravel(), best.ravel())
        frontier = np.flatnonzero(grown)
        if not frontier.size:
            # 0.0 + folds a -0.0 sum into 0.0
            return np.add(0.0, cols, out=cols)
    raise InternalError(f"path weights still changing after {_round_limit(n)} rounds")


def mane_potential(system: MpIfs, tol_aubry: float = AUBRY_TOL) -> PotentialMatrix:
    """Exact Aubry set and Aubry columns of the path-supremum potential.

    Candidates are the points on a nontrivial strongly connected component
    or a self-loop of the edges of weight >= -tol_aubry; one value
    iteration from all candidates at once gives their columns of S, and a
    candidate is kept when its return weight S[z, z] is >= -tol_aubry.
    Nothing n x n is allocated unless the result's ``s`` is read.

    Raises :class:`EmptyAubryError` when no point passes the zero test;
    for a validated system that signals a too-tight tolerance or
    corrupted input, never correct behavior.
    """
    if system.validation is None:
        raise ConfigError("system must be validated first")
    n = system.space.n
    src, tgt, w = _edges(system)
    near = w >= -tol_aubry
    candidates = np.flatnonzero(_on_cycle(n, src[near], tgt[near]))

    cols = _columns(n, src, tgt, w, candidates)
    # S[z, z] = max over edges y -> z of (best path z -> y, length >= 0) + q.
    slot = np.full(n, -1)
    slot[candidates] = np.arange(candidates.size)
    into = slot[tgt] >= 0
    k = slot[tgt[into]]
    ret = np.full(candidates.size, BOTTOM)
    np.maximum.at(ret, k, cols[src[into], k] + w[into])
    cols[candidates, np.arange(candidates.size)] = ret

    keep = ret >= -tol_aubry
    aubry = tuple(int(z) for z in candidates[keep])
    if not aubry:
        raise EmptyAubryError(
            f"no point has a return cycle within {tol_aubry} of zero cost"
        )
    return PotentialMatrix(
        aubry=aubry,
        tol_aubry=tol_aubry,
        columns=cols[:, keep],
        system=system,
    )
