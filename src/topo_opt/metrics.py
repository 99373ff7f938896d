"""Distances between persistence diagrams and optimal partial matchings.

The degree-q distance augments each diagram with the diagonal projections
of the other's points and solves a square assignment problem exactly; the
bottleneck distance binary-searches the finite set of candidate costs with
a bipartite feasibility check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .complexes import read_table, write_table


@dataclass
class PartialMatching:
    """Optimal partial matching between two diagrams.

    ``pairs`` holds (index_a, index_b) with -1 standing for the diagonal on
    either side.  ``cost`` is the resulting distance value.
    """

    pairs: list[tuple[int, int]]
    cost: float

    def matched(self):
        return [(i, j) for i, j in self.pairs if i >= 0 and j >= 0]


def diagonal_distance(points: np.ndarray, inner: float) -> np.ndarray:
    """Distance of each point to the diagonal in the inner q'-norm:
    (d - b) / 2^(1 - 1/q')."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pers = pts[:, 1] - pts[:, 0]
    if np.isinf(inner):
        return pers / 2.0
    return pers / 2.0 ** (1.0 - 1.0 / inner)


def _ground(a: np.ndarray, b: np.ndarray, inner: float) -> np.ndarray:
    diff = np.abs(a[:, None, :] - b[None, :, :])
    if np.isinf(inner):
        return diff.max(axis=-1)
    return (diff**inner).sum(axis=-1) ** (1.0 / inner)


def _finite_points(alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """Both diagrams as (m, 2) float arrays; a non-finite coordinate raises."""
    a = np.asarray(alpha, dtype=float).reshape(-1, 2)
    b = np.asarray(beta, dtype=float).reshape(-1, 2)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("diagram distances expect finite diagram points")
    return a, b


def fg_distance(
    alpha: np.ndarray,
    beta: np.ndarray,
    q: float = 2.0,
    inner: float | None = None,
) -> tuple[float, PartialMatching]:
    """Degree-q matching distance between two finite diagrams.

    Costs are ground distances raised to the q-th power on the augmented
    (m1+m2) x (m1+m2) matrix, with zero cost diagonal-to-diagonal; the
    assignment is solved exactly and the total is taken to the 1/q power.
    """
    a, b = _finite_points(alpha, beta)
    if np.isinf(q):
        return bottleneck_distance(a, b)
    if inner is None:
        inner = q
    m1, m2 = len(a), len(b)
    n = m1 + m2
    if n == 0:
        return 0.0, PartialMatching([], 0.0)
    C = np.zeros((n, n))
    if m1 and m2:
        C[:m1, :m2] = _ground(a, b, inner) ** q
    if m1:
        C[:m1, m2:] = diagonal_distance(a, inner)[:, None] ** q
    if m2:
        C[m1:, :m2] = diagonal_distance(b, inner)[None, :] ** q
    rows, cols = linear_sum_assignment(C)
    total = float(C[rows, cols].sum())
    dist = total ** (1.0 / q)
    pairs = []
    for r, c in zip(rows, cols):
        ia = r if r < m1 else -1
        ib = c if c < m2 else -1
        if ia >= 0 or ib >= 0:
            pairs.append((int(ia), int(ib)))
    return dist, PartialMatching(pairs, dist)


def bottleneck_distance(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, PartialMatching]:
    """Bottleneck distance (inf-norm ground metric, diagonal at (d-b)/2).

    Binary search over the finite candidate cost set with a bipartite
    perfect-matching feasibility test on the augmented graph.
    """
    a, b = _finite_points(alpha, beta)
    m1, m2 = len(a), len(b)
    n = m1 + m2
    if n == 0:
        return 0.0, PartialMatching([], 0.0)
    G = _ground(a, b, np.inf) if m1 and m2 else np.empty((m1, m2))
    da = diagonal_distance(a, np.inf)
    db = diagonal_distance(b, np.inf)
    candidates = np.unique(np.concatenate([G.ravel(), da, db, [0.0]]))

    def feasible(c):
        rows, cols, eps = [], [], 1e-12 + 1e-9 * c
        for i in range(m1):
            for j in range(m2):
                if G[i, j] <= c + eps:
                    rows.append(i)
                    cols.append(j)
            if da[i] <= c + eps:
                rows.append(i)
                cols.append(m2 + i)
        for j in range(m2):
            if db[j] <= c + eps:
                rows.append(m1 + j)
                cols.append(j)
        for k in range(m1):
            for l in range(m2):
                rows.append(m1 + l)
                cols.append(m2 + k)
        M = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        match = maximum_bipartite_matching(M, perm_type="column")
        return None if (match < 0).any() else match

    lo, hi = 0, len(candidates) - 1
    if feasible(candidates[hi]) is None:  # pragma: no cover - always feasible
        raise RuntimeError("no feasible matching at the maximal candidate cost")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    c = float(candidates[lo])
    match = feasible(c)
    pairs = []
    for r in range(n):
        col = int(match[r])
        ia = r if r < m1 else -1
        ib = col if col < m2 else -1
        if ia >= 0 or ib >= 0:
            pairs.append((ia, ib))
    return c, PartialMatching(pairs, c)


def write_matching(path, matching: PartialMatching) -> None:
    """Serialize a matching as side_a,side_b rows (-1 for the diagonal)."""
    write_table(path, ("side_a", "side_b"), matching.pairs)


def read_matching(path) -> PartialMatching:
    pairs = [(int(i), int(j)) for i, j in read_table(path, "side_a")]
    return PartialMatching(pairs, float("nan"))
