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
  a self-loop) of that edge subgraph (Tarjan, SIAM J. Comput. 1972);
* the column S[:, z] is a single-source longest path with non-positive
  weights, i.e. Dijkstra from z on the costs -q.

:func:`mane_potential` computes those on the sparse graph; the dense n x n
closure is built by Floyd-Warshall only when :attr:`PotentialMatrix.s` is
read (the ``mane`` command, tests).

Because the maps are stored pre-snapped, "landing within epsilon of x"
degenerates to exact index equality: the S computed here is the
resolution-scale version of the continuum potential.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyAubryError
from .maxplus import BOTTOM, MpMatrix, kleene_plus
from .mpifs import MpIfs

AUBRY_TOL = 1e-9


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

    Parallel edges are merged here because a sparse matrix built from
    coordinates would sum them.
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


def mane_potential(system: MpIfs, tol_aubry: float = AUBRY_TOL) -> PotentialMatrix:
    """Exact Aubry set and Aubry columns of the path-supremum potential.

    Candidates are the points on a nontrivial strongly connected component
    or a self-loop of the edges of weight >= -tol_aubry; one Dijkstra from
    all candidates on the costs -q gives their columns of S, and a
    candidate is kept when its return weight S[z, z] is >= -tol_aubry.
    Nothing n x n is allocated unless the result's ``s`` is read.

    Raises :class:`EmptyAubryError` when no point passes the zero test;
    for a validated system that signals a too-tight tolerance or
    corrupted input, never correct behavior.
    """
    if not system.validated:
        raise ConfigError("system must be validated first")
    # scipy is imported here, not at module level, to keep CLI start-up fast.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, dijkstra

    n = system.space.n
    src, tgt, w = _edges(system)
    near = w >= -tol_aubry
    near_graph = csr_matrix(
        (np.ones(int(near.sum())), (src[near], tgt[near])), shape=(n, n)
    )
    _, scc = connected_components(near_graph, directed=True, connection="strong")
    on_cycle = np.bincount(scc)[scc] >= 2
    on_cycle[src[near & (src == tgt)]] = True
    candidates = np.flatnonzero(on_cycle)

    # Zero-weight edges stay explicit +0.0 entries: they are the Aubry edges.
    cost = csr_matrix((0.0 - w, (src, tgt)), shape=(n, n))
    # S[x, z] = -D[z, x] off the diagonal; 0.0 - D folds -0.0 into 0.0.
    cols = 0.0 - dijkstra(cost, directed=True, indices=candidates).T
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
