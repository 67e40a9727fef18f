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
max-plus spectral theory, Butkovic, *Max-linear Systems*, 2010).
:func:`_edges` lists those edges once, by source, with parallel maps
merged to their max weight, and A, the candidates and the columns all
read that list:

* a return cycle of weight >= -tol uses only edges of weight >= -tol, so
  every Aubry point lies on a cycle (or a self-loop) of that edge
  subgraph.  Kahn's peeling (CACM 1962) keeps a superset, the points
  some such cycle reaches, and the exact return-weight test decides: a
  kept point on no such cycle returns only through an edge below -tol,
  and a float sum of terms <= 0, taken left to right, is never above any
  term it has added, so its return weight is below -tol as well;
* the column S[:, z] is the fixed point of col <- max(col, transfer(col))
  started from the unit column at z: a Bellman-Ford relaxation whose step
  is the transfer operator itself.  Weights are <= 0, so a best path is
  simple and the iteration settles within n rounds.

:func:`mane_potential` computes those on the sparse graph in plain numpy,
with the return weights S[z, z] from the last edge of each cycle
(:func:`maxplus._plus_columns`), and nothing n x n.  Only the ``mane``
command builds the dense closure, ``kleene_plus(transition_matrix(system))``:
the same value iteration from all n points when every path sum is exact
(the 2^-26 lattice), Floyd-Warshall otherwise.

Because the maps are stored pre-snapped, "landing within epsilon of x"
degenerates to exact index equality: the S computed here is the
resolution-scale version of the continuum potential.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyAubryError
from .maxplus import BOTTOM, MpMatrix, _plus_columns
from .mpifs import MpIfs
from .spaces import FiniteSpace

AUBRY_TOL = 1e-9
#: Most points whose dense closure S the ``mane`` command builds.  At
#: this limit ``tropifs mane`` took 1.2-1.9 s and 237-269 MiB of max RSS
#: (``grid_random`` and ``shift_random``, seed 7, both weight kinds, 2
#: shared vCPUs), and wrote ``S.csv`` as n^2 numbers, 17-81 MB of text.
#: The bound stays for that file and for the shape that defeats the value
#: iteration: a chain whose best paths are about 2n/3 edges long takes up
#: to that many rounds over all n columns, n^3 work again (8.2 s and
#: 132 MiB for the closure alone at this limit), and each doubling of n
#: costs up to 8x the time and 4x the memory of its n x n tables.
MAX_CLOSURE_POINTS = 2**11
#: Most values (points x candidates) of the block of Aubry columns that
#: :func:`mane_potential` builds, checked before it is allocated: 512 MiB
#: of float64.  An all-Aubry ``shift_random`` at depth 13 (2^13 points,
#: every one a candidate) is exactly at it.
MAX_COLUMN_VALUES = 2**26


class PotentialMatrix:
    """Aubry set and the closure S (row = target, column = source) at it.

    ``columns[:, k]`` is the column S[:, aubry[k]] over ``space``, which
    is all the invariant densities need.
    """

    def __init__(
        self,
        aubry: Sequence[int],
        tol_aubry: float,
        columns: np.ndarray,
        space: FiniteSpace,
    ):
        self.space = space
        self.aubry = tuple(aubry)
        self.tol_aubry = tol_aubry
        columns.flags.writeable = False
        self.columns = columns
        self._slot = {z: k for k, z in enumerate(self.aubry)}

    def column(self, z: int) -> np.ndarray:
        """S[:, z] for an Aubry point ``z`` (read-only view)."""
        return self.columns[:, self._slot[z]]


def _edges(system: MpIfs):
    """Transition edges y -> phi_j(y) as (source, target, weight) arrays:
    finite, parallel maps merged to their max weight (the later map's on a
    +0.0 / -0.0 tie, as ``np.maximum.at``), listed by source, then target.
    """
    n = system.space.n
    finite = system.weights > BOTTOM
    src = np.broadcast_to(np.arange(n), system.maps.shape)[finite]
    tgt, w = system.maps[finite], system.weights[finite]
    key = src * n + tgt
    order = np.lexsort((w, key))
    keep = order[np.diff(key[order], append=n * n) != 0]  # the last of each pair
    return src[keep], tgt[keep], w[keep]


def transition_matrix(system: MpIfs) -> MpMatrix:
    """A[x, y] = max over j with phi_j(y) = x of q_j(y); BOTTOM when no j hits."""
    src, tgt, w = _edges(system)
    a = np.full((system.space.n, system.space.n), BOTTOM)
    a[tgt, src] = w
    return MpMatrix(a)


def _reached_from_cycles(n: int, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Mask of the vertices that some cycle (or self-loop) reaches.

    Kahn's peeling (CACM 1962) over the edges src -> tgt listed by source,
    as :func:`_edges` lists them: a vertex of in-degree 0 is dropped with
    its out-edges, until no such vertex is left.  What is never dropped
    lies on a cycle or downstream of one, a superset of the vertices on a
    cycle.
    """
    heads = tgt.tolist()
    start = np.searchsorted(src, np.arange(n + 1)).tolist()
    indegree = np.bincount(tgt, minlength=n)
    dropped = np.flatnonzero(indegree == 0).tolist()
    indegree = indegree.tolist()
    for v in dropped:  # the list grows while it is walked
        for u in heads[start[v]:start[v + 1]]:
            indegree[u] -= 1
            if not indegree[u]:
                dropped.append(u)
    kept = np.ones(n, dtype=bool)
    kept[dropped] = False
    return kept


def mane_potential(system: MpIfs, tol_aubry: float = AUBRY_TOL) -> PotentialMatrix:
    """Exact Aubry set and Aubry columns of the path-supremum potential.

    Candidates are the points that Kahn's peeling of the edges of weight
    >= -tol_aubry leaves; one value iteration from all of them at once
    gives their columns of S, and a candidate is kept when its return
    weight S[z, z] is >= -tol_aubry.  One on no such cycle fails that
    test: a float sum of terms <= 0 is never above a term it has added.
    Nothing n x n is allocated.

    Raises :class:`ConfigError` when the block of columns would hold more
    than ``MAX_COLUMN_VALUES`` values, before it is built.

    Raises :class:`EmptyAubryError` when no point passes the zero test;
    for a validated system that signals a too-tight tolerance or
    corrupted input, never correct behavior.
    """
    if system.validation is None:
        raise ConfigError("system must be validated first")
    n = system.space.n
    src, tgt, w = _edges(system)
    near = w >= -tol_aubry
    candidates = np.flatnonzero(_reached_from_cycles(n, src[near], tgt[near]))
    if n * candidates.size > MAX_COLUMN_VALUES:
        raise ConfigError(
            f"the Aubry columns of {n} points at {candidates.size} candidates are "
            f"{n * candidates.size} values, more than the limit of {MAX_COLUMN_VALUES}"
        )
    cols = _plus_columns(n, src, tgt, w, candidates)
    ret = cols[candidates, np.arange(candidates.size)]
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
        space=system.space,
    )
