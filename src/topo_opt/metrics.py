"""Distances between persistence diagrams and optimal partial matchings.

Both distances solve one partial-matching problem on one augmented cost
matrix, each diagram gaining a diagonal copy of every point of the other.
The degree-q distance solves its q-th power as an assignment problem; the
bottleneck distance binary-searches its entries with a perfect-matching
check.

scipy is imported inside the two solvers, not here: it holds about 50 MB
of resident memory and most of the package's import time, and only a
process that matches two diagrams needs it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Pairwise inner q'-norm distances.  When the q'-th powers leave the
    float range, each pair's coordinate gaps are divided by their larger one
    first, so that a large q' does not underflow a distance to 0."""
    diff = np.abs(a[:, None, :] - b[None, :, :])
    if np.isinf(inner):
        return diff.max(axis=-1)
    with np.errstate(over="ignore", under="ignore"):
        P = diff**inner
        if _in_float_range(diff, P):
            return P.sum(axis=-1) ** (1.0 / inner)
        s = diff.max(axis=-1, keepdims=True)
        s[s == 0] = 1.0
        return ((diff / s) ** inner).sum(axis=-1) ** (1.0 / inner) * s[..., 0]


def _finite_points(alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """Both diagrams as (m, 2) float arrays; a non-finite coordinate raises."""
    a = np.asarray(alpha, dtype=float).reshape(-1, 2)
    b = np.asarray(beta, dtype=float).reshape(-1, 2)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("diagram distances expect finite diagram points")
    return a, b


def check_order(value: float, name: str = "q") -> None:
    """Raise a ValueError unless 1 <= value <= inf (NaN included)."""
    if not 1.0 <= value <= np.inf:
        raise ValueError(f"{name} must lie in [1, inf], got {value!r}")


def _augmented(a: np.ndarray, b: np.ndarray, inner: float) -> np.ndarray:
    """The (m1+m2) x (m1+m2) partial-matching costs: rows a then copies of b,
    columns b then copies of a.  A point costs its ground distance to a
    point and its diagonal distance to any copy; copy to copy costs 0."""
    m1, m2 = len(a), len(b)
    C = np.zeros((m1 + m2, m1 + m2))
    C[:m1, :m2] = _ground(a, b, inner)
    C[:m1, m2:] = diagonal_distance(a, inner)[:, None]
    C[m1:, :m2] = diagonal_distance(b, inner)[None, :]
    return C


def _in_float_range(x: np.ndarray, P: np.ndarray) -> bool:
    """Whether the powers P of the non-negative values x stayed in the float
    range: none overflowed, and none of a positive value fell below the
    smallest normal float."""
    return bool(np.isfinite(P).all() and (P >= np.finfo(float).tiny)[x > 0].all())


def _qnorm(terms, q: float) -> tuple[float, float]:
    """The q-norm, 1 <= q < inf, of the non-negative values in ``terms``, and
    the scale s they were divided by first.

    ``terms`` is a float, an array or a tuple of these; a tuple's q-th power
    sums are added one term after the other, so a nested tuple is one term.
    fg_distance's rule sets s: 1 while every unscaled q-th power stays in the
    float range, else the largest value, so that the scaled sum is at least 1
    and a term that underflows is below 2^-1074 of it.
    """

    def values(t):
        if isinstance(t, tuple):
            return np.concatenate([np.empty(0)] + [values(u) for u in t])
        return np.ravel(np.asarray(t, dtype=float))

    def power_sum(t):
        if isinstance(t, tuple):
            # a plain loop: sum() compensates float sums on Python >= 3.12
            total = 0.0
            for u in t:
                total += power_sum(u)
            return total
        if np.ndim(t) == 0:
            # a scalar power, not numpy's vectorised one, which can differ
            # in the last bit
            return float(np.float64(t / s) ** q)
        return float(((t / s) ** q).sum())

    x, s = values(terms), 1.0
    with np.errstate(over="ignore", under="ignore"):
        if not _in_float_range(x, x ** q):
            s = float(x.max())
        return power_sum(terms) ** (1.0 / q) * s, s


def _matching(cols: np.ndarray, m1: int, m2: int, cost: float) -> PartialMatching:
    """The matching assigning augmented row r to column cols[r], with -1 for
    a diagonal copy and copy-to-copy pairs dropped."""
    rows = np.arange(len(cols))
    keep = (rows < m1) | (cols < m2)
    ia = np.where(rows < m1, rows, -1)[keep].tolist()
    ib = np.where(cols < m2, cols, -1)[keep].tolist()
    return PartialMatching(list(zip(ia, ib)), cost)


def fg_distance(
    alpha: np.ndarray,
    beta: np.ndarray,
    q: float = 2.0,
    inner: float | None = None,
) -> tuple[float, PartialMatching]:
    """Degree-q matching distance between two finite diagrams, 1 <= q <= inf,
    over the inner q'-norm ground metric (q' = ``inner``, q by default).

    The augmented cost matrix, raised to the q-th power, is solved exactly
    as an assignment problem and the total is taken to the 1/q power.  When
    those powers leave the float range, the matrix is first divided by the
    bottleneck value s in the same inner norm: the scaled optimal sum is at
    least 1, a term that underflows is below 2^-1074 of it, and an entry
    that overflows to inf is in no optimal matching.  At
    q = inf the largest matched cost is minimized instead, still in the
    inner q'-norm; at q' = inf too this is the bottleneck distance.
    """
    inner = q if inner is None else inner
    check_order(q)
    check_order(inner, "inner")
    a, b = _finite_points(alpha, beta)
    if np.isinf(q):
        return _bottleneck(a, b, inner)
    from scipy.optimize import linear_sum_assignment

    C, s = _augmented(a, b, inner), 1.0
    with np.errstate(over="ignore", under="ignore"):
        P = C ** q
        if not _in_float_range(C, P):
            s = _bottleneck(a, b, inner)[0] or 1.0
            P = (C / s) ** q
    rows, cols = linear_sum_assignment(P)
    dist = float(P[rows, cols].sum()) ** (1.0 / q) * s
    return dist, _matching(cols, len(a), len(b), dist)


def bottleneck_distance(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, PartialMatching]:
    """Bottleneck distance (inf-norm ground metric, diagonal at (d-b)/2)."""
    return _bottleneck(*_finite_points(alpha, beta), np.inf)


def _bottleneck(a: np.ndarray, b: np.ndarray, inner: float) -> tuple[float, PartialMatching]:
    """The least largest cost of a partial matching, in the inner q'-norm.

    Binary search over the augmented matrix's entries: cost c is feasible
    when the edges costing at most c (up to a relative 1e-9) admit a perfect
    matching, each point reaching only its own diagonal copy.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    m1, m2 = len(a), len(b)
    C = _augmented(a, b, inner)
    candidates = np.unique(np.append(C, 0.0))
    C[:m1, m2:][~np.eye(m1, dtype=bool)] = np.inf
    C[m1:, :m2][~np.eye(m2, dtype=bool)] = np.inf

    def feasible(c):
        eps = 1e-12 + 1e-9 * c
        match = maximum_bipartite_matching(csr_matrix(C <= c + eps), perm_type="column")
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
    return c, _matching(feasible(c), m1, m2, c)


def write_matching(path, matching: PartialMatching) -> None:
    """Serialize a matching as side_a,side_b rows (-1 for the diagonal)."""
    write_table(path, ("side_a", "side_b"), matching.pairs)


def read_matching(path) -> PartialMatching:
    pairs = [(int(i), int(j)) for i, j in read_table(path, "side_a")]
    return PartialMatching(pairs, float("nan"))
