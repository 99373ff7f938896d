"""Parametrized filtration families and their simplex-wise gradients.

Each family maps a parameter (point cloud, vertex values, direction, or the
raw value vector itself) to a monotone filtration, and exposes the gradient
of a single simplex's value with respect to the parameter.  Gradients are
returned sparse, as {row_or_index: contribution}, with ties resolved by a
deterministic witness so the map is piecewise differentiable.  Every
family but the raw values also ranks its values in integers, so that the
total order sorts small integer keys (Bauer, Ripser, 2021).  The two Rips
families share one clique fold, which takes the max over each simplex's
vertex pairs from the edge values alone, and every family but the raw
values shares one witness rule, ``_first_largest``.
"""
from __future__ import annotations

import copy
import itertools
import warnings

import numpy as np

from .complexes import (
    Filtration,
    OrderingSignature,
    Simplex,
    SimplicialComplex,
    boundary,
    _free_ties,
    complete_complex,
    read_table,
    write_table,
)


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, rank): the sorted distinct values and the rank of each
    value among them, so distinct[rank] == values.  -0.0 and 0.0 share a
    rank, and so do all NaNs, which rank last.  The rank is 16 bits wide
    up to 65,536 distinct values (numpy radix-sorts it) and 32 bits above."""
    distinct, rank = np.unique(values, return_inverse=True)
    return distinct, rank.astype(np.uint16 if len(distinct) <= 1 << 16 else np.uint32)


def _clique(cx: SimplicialComplex, low: np.ndarray) -> np.ndarray:
    """A clique filtration on cx, of low's dtype: ``low`` holds the values
    of the vertices and edges, in position order, and each higher simplex
    takes np.maximum folded over its vertex pairs in lexicographic order.
    Both Rips families fold their integer ranks with it (Bauer, Ripser,
    2021), and weighted Rips its float values as well."""
    out = np.empty(len(cx), dtype=low.dtype)
    out[:len(low)] = low
    edges = low[cx.n_vertices():]
    for q, (start, ids) in enumerate(cx.blocks()[2:], start=2):
        block, pairs = out[start:start + len(ids)], cx.vertex_pairs(q)
        np.take(edges, pairs[0], out=block)
        for idx in pairs[1:]:
            np.maximum(block, edges.take(idx), out=block)
    return out


class _CompleteFamily:
    """A family on the complete complex over n_points vertices, truncated at
    max_dim, with values built from pairwise distances.  Its parameter is a
    cloud of exactly n_points points; any other count raises ValueError."""

    def __init__(self, n_points: int, max_dim: int):
        self.n_points = n_points
        self.max_dim = max_dim
        # complete complexes by vertex count, shared with every subsample
        self._complexes: dict[int, SimplicialComplex] = {}

    @property
    def complex(self):
        # built on first use: subsample-only workflows on large clouds never
        # need the full complete complex
        cx = self._complexes.get(self.n_points)
        if cx is None:
            cx = self._complexes[self.n_points] = complete_complex(
                self.n_points, self.max_dim)
        return cx

    def subsample(self, indices):
        """The same family on the points at ``indices`` (constant weights
        are sliced to them); subsamples of one size share one complex."""
        sub = copy.copy(self)
        sub.n_points = len(indices)
        w = getattr(self, "weights", None)
        if isinstance(w, ConstantWeights):
            sub.weights = ConstantWeights(w.w[list(indices)])
        return sub

    def _points(self, X) -> np.ndarray:
        """X as floats, checked to hold one point per vertex."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 0 or len(X) != self.n_points:
            raise ValueError(f"{type(self).__name__} on {self.n_points} vertices needs"
                             f" {self.n_points} points, got an array of shape {X.shape}")
        return X

    def _edges(self) -> np.ndarray:
        """The complex's edges as two rows (a, b) of vertex ids, a < b."""
        cx = self.complex
        return cx.blocks()[1][1].T if cx.dim >= 1 else np.empty((2, 0), dtype=int)


def _first_largest(family, simplex: Simplex, values, what: str) -> int:
    """The witness rule of every family: the position of the first largest
    of ``values``, where a NaN never wins.  The values are a Rips simplex's
    pair values, its vertex pairs in lexicographic order, or a lower-star
    simplex's vertex values, in vertex order.  A simplex whose values are
    all NaN raises ValueError naming the family and the simplex."""
    wit = None
    for k, v in enumerate(values):
        if v == v and (wit is None or v > values[wit]):
            wit = k
    if wit is None:
        raise ValueError(f"{type(family).__name__}: simplex {simplex} has no witness {what},"
                         f" its {what} values are {list(map(float, values))}")
    return wit


def _witness_vertex(family, vindex: dict, f, simplex: Simplex) -> int:
    """The witness of a lower-star simplex: its vertex, in vertex order,
    with the first largest of the values ``f`` (indexed through vindex)."""
    f, simplex = np.asarray(f, dtype=float), tuple(sorted(simplex))
    return simplex[_first_largest(family, simplex, [f[vindex[v]] for v in simplex], "vertex")]


class VietorisRips(_CompleteFamily):
    """Half-diameter Vietoris-Rips filtration on the complete complex.

    Simplex value is max_{i,j in sigma} ||x_i - x_j|| / 2; vertices enter at 0.
    """

    def filtration(self, X: np.ndarray) -> Filtration:
        X = self._points(X)
        cx = self.complex
        # the values are >= +0.0, so the distinct value of each rank is the
        # value itself, bit for bit
        distinct, low_rank = _dense_rank(np.concatenate(
            [np.zeros(cx.n_vertices()), _edge_lengths(X, *self._edges()) / 2.0]))
        rank = _clique(cx, low_rank)
        return Filtration(cx, distinct[rank], check=False, rank=rank)

    def simplex_gradient(self, X: np.ndarray, simplex: Simplex) -> dict:
        simplex = tuple(simplex)
        if len(simplex) == 1:
            return {}
        X = np.asarray(X, dtype=float)
        # only distances within the simplex matter
        pairs = list(itertools.combinations(simplex, 2))
        diff = [X[i] - X[j] for i, j in pairs]
        length = [float(np.sqrt(d @ d)) for d in diff]
        k = _first_largest(self, simplex, length, "pair")
        g = diff[k] / (2.0 * length[k])
        i, j = pairs[k]
        return {i: g, j: -g}


class ConstantWeights:
    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def values(self, X):
        return self.w

    def gradient(self, X, i):
        return {}


class FunctionWeights:
    """User weight function: fn(X) -> (n,), grad(X, i) -> {row: d-vector}."""

    def __init__(self, fn, grad):
        self.fn = fn
        self.grad = grad

    def values(self, X):
        return np.asarray(self.fn(X), dtype=float)

    def gradient(self, X, i):
        return self.grad(X, i)


class DTMWeights:
    """Distance-to-measure weight: mean distance to the k nearest neighbors
    (the query point itself excluded).  The neighbor set is frozen when
    differentiating."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"DTMWeights needs k >= 1 neighbors, got k={k}")
        self.k = k

    def _neighbors(self, X, i):
        d = np.linalg.norm(X - X[i], axis=1)
        d[i] = np.inf
        return np.argsort(d, kind="stable")[: self.k], d

    def values(self, X):
        X = np.asarray(X, dtype=float)
        if self.k >= len(X):
            raise ValueError(
                f"DTM weight needs k < n points, got k={self.k}, n={len(X)}"
            )
        out = np.empty(len(X))
        for i in range(len(X)):
            nbrs, d = self._neighbors(X, i)
            out[i] = d[nbrs].mean()
        return out

    def gradient(self, X, i):
        X = np.asarray(X, dtype=float)
        nbrs, d = self._neighbors(X, i)
        g: dict[int, np.ndarray] = {}
        acc = np.zeros(X.shape[1])
        for j in nbrs:
            u = (X[i] - X[j]) / d[j]
            acc = acc + u / self.k
            g[int(j)] = g.get(int(j), 0.0) - u / self.k
        g[int(i)] = g.get(int(i), 0.0) + acc
        return g


class WeightedRips(_CompleteFamily):
    """Weighted Rips filtration.

    Vertex {j} enters at 2 f(x_j); an edge {i,j} at
    max(2 f(x_i), 2 f(x_j), ||x_i - x_j|| + f(x_i) + f(x_j)); higher simplices
    at the max over their edges.  Each max is np.maximum folded left to
    right, so on weights of -0.0 the values keep the sign of a zero.  On
    ties the edge term wins, then the larger-weight vertex term.
    """

    def __init__(self, n_points: int, max_dim: int, weights):
        super().__init__(n_points, max_dim)
        self.weights = weights
        self._last_weights: tuple | None = None

    def _weight_values(self, X: np.ndarray) -> np.ndarray:
        """The weights of the points of X, checked to be one per point.
        ``weights.values`` is read as a function of the cloud: the last
        cloud's weights are kept, keyed on the weights object and X's shape
        and bytes, so a step that differentiates many simplices at one
        cloud computes them once."""
        key = (self.weights, X.shape, X.tobytes())
        if self._last_weights is not None and self._last_weights[0] == key:
            return self._last_weights[1]
        f = self.weights.values(X)
        if np.shape(f) != (self.n_points,):
            raise ValueError(f"{type(self).__name__} on {self.n_points} points needs"
                             f" {self.n_points} weights, got weights.values(X) of shape"
                             f" {np.shape(f)}")
        self._last_weights = (key, f)
        return f

    def filtration(self, X: np.ndarray) -> Filtration:
        X = self._points(X)
        f = self._weight_values(X)
        cx = self.complex
        low = np.concatenate([2 * f, _edge_values(X, f, *self._edges())[0]])
        # the values are folded as floats, not read back from their ranks:
        # a distinct value could not keep the sign of a zero
        return Filtration(cx, _clique(cx, low), check=False,
                          rank=_clique(cx, _dense_rank(low)[1]))

    def simplex_gradient(self, X: np.ndarray, simplex: Simplex) -> dict:
        simplex = tuple(simplex)
        X = self._points(X)
        f = self._weight_values(X)
        if len(simplex) == 1:
            return _scale_sparse(self.weights.gradient(X, simplex[0]), 2.0)
        pairs = list(itertools.combinations(simplex, 2))
        values, length = _edge_values(X, f, *np.array(pairs).T)
        k = _first_largest(self, simplex, values, "pair")
        i, j = pairs[k]
        if length[k] + f[i] + f[j] >= max(2 * f[i], 2 * f[j]):
            # edge term active (wins ties)
            u = (X[i] - X[j]) / length[k]
            g = {i: u.copy(), j: -u}
            g = _add_sparse(g, self.weights.gradient(X, i))
            g = _add_sparse(g, self.weights.gradient(X, j))
            return g
        v = i if f[i] >= f[j] else j
        return _scale_sparse(self.weights.gradient(X, v), 2.0)


def _edge_lengths(X: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lengths ||x_a[k] - x_b[k]|| of the edges {a[k], b[k]}."""
    diff = X[a] - X[b]
    return np.sqrt((diff * diff).sum(axis=1))


def _edge_values(X: np.ndarray, f: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(values, lengths) of the weighted Rips edges {a[k], b[k]}, each value
    max(2 f_a, 2 f_b, ||x_a - x_b|| + f_a + f_b)."""
    length = _edge_lengths(X, a, b)
    fa, fb = f[a], f[b]
    return np.maximum(np.maximum(2 * fa, 2 * fb), length + fa + fb), length


def _add_sparse(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def _scale_sparse(a: dict, c: float) -> dict:
    return {k: c * v for k, v in a.items()}


class LowerStar:
    """Lower-star filtration of vertex values on a fixed complex.

    Parameter is the vector of vertex values (indexed by sorted vertex id);
    the simplex value is the max over its vertices, witnessed by the
    smallest vertex id among the maximizers, where a NaN never wins (a
    simplex whose values are all NaN has no witness: ValueError).  A vector
    of another length raises ValueError.
    """

    def __init__(self, complex: SimplicialComplex):
        self.complex = complex
        self.vertices = [s[0] for s in complex.skeleton(0)]
        self.vindex = {v: i for i, v in enumerate(self.vertices)}

    def filtration(self, f: np.ndarray) -> Filtration:
        f = np.asarray(f, dtype=float)
        if f.shape != (len(self.vertices),):
            raise ValueError(f"LowerStar on {len(self.vertices)} vertices needs"
                             f" {len(self.vertices)} vertex values, got an array of"
                             f" shape {f.shape}")
        blocks = self.complex.blocks()
        vertex_ids = blocks[0][1][:, 0]
        _, vertex_rank = _dense_rank(f)
        vals, rank = [], []
        for _, ids in blocks:
            rows = np.searchsorted(vertex_ids, ids)
            rv = vertex_rank[rows]
            # the first maximizer, as max() over the vertices takes it: its
            # value keeps the sign of a zero, where a row max may not
            top = np.arange(len(rv)), rv.argmax(axis=1)
            vals.append(f[rows[top]])
            rank.append(rv[top])
        return Filtration(self.complex, np.concatenate(vals), check=False,
                          rank=np.concatenate(rank))

    def witness(self, f: np.ndarray, simplex: Simplex) -> int:
        return _witness_vertex(self, self.vindex, f, simplex)

    def simplex_gradient(self, f: np.ndarray, simplex: Simplex) -> dict:
        return {self.vindex[self.witness(f, tuple(simplex))]: 1.0}


class HeightFiltration:
    """Lower-star of the height function x -> <x, theta> on fixed positions.

    positions holds one row per vertex, and theta one coordinate per
    column; theta is normalized to unit length (with a warning when it is
    not; a zero or non-finite theta is a ValueError).
    The gradient with respect to theta is the witness position projected
    onto the tangent space of the sphere, (I - theta theta^T) x_w.
    """

    def __init__(self, complex: SimplicialComplex, positions: np.ndarray):
        self.complex = complex
        self.positions = np.asarray(positions, dtype=float)
        self._lower_star = LowerStar(complex)
        nv = len(self._lower_star.vertices)
        if self.positions.ndim != 2 or len(self.positions) != nv:
            raise ValueError(f"HeightFiltration on {nv} vertices needs {nv} positions,"
                             f" got positions of shape {self.positions.shape}")

    def _unit(self, theta):
        theta = np.asarray(theta, dtype=float)
        d = self.positions.shape[1]
        if theta.shape != (d,):
            raise ValueError(f"HeightFiltration on {d}-D positions needs a direction of"
                             f" {d} coordinates, got theta of shape {theta.shape}")
        nrm = np.linalg.norm(theta)
        if not (np.isfinite(nrm) and nrm > 0):
            raise ValueError(f"height direction {theta.tolist()} is zero or not finite")
        if abs(nrm - 1.0) > 1e-12:
            warnings.warn("height direction is not unit length; normalizing")
            theta = theta / nrm
        return theta

    def filtration(self, theta: np.ndarray) -> Filtration:
        return self._lower_star.filtration(self.positions @ self._unit(theta))

    def witness(self, theta: np.ndarray, simplex: Simplex) -> int:
        return _witness_vertex(self, self._lower_star.vindex,
                               self.positions @ self._unit(theta), simplex)

    def simplex_gradient(self, theta: np.ndarray, simplex: Simplex) -> dict:
        theta = self._unit(theta)
        w = self.witness(theta, tuple(simplex))
        xw = self.positions[self._lower_star.vindex[w]]
        g = xw - theta * (theta @ xw)
        return {i: g[i] for i in range(len(g))}


class RawValues:
    """The identity family: the parameter is the filtration value vector
    itself (in the complex's canonical simplex order)."""

    def __init__(self, complex: SimplicialComplex):
        self.complex = complex

    def filtration(self, values: np.ndarray) -> Filtration:
        return Filtration(self.complex, np.array(values, dtype=float))

    def simplex_gradient(self, values: np.ndarray, simplex: Simplex) -> dict:
        return {self.complex.index[tuple(simplex)]: 1.0}


def strata_signature(family, theta) -> OrderingSignature:
    """Ordering signature of the filtration at theta; flags stratum boundaries.

    A tie only marks a boundary when the two tied values can actually
    separate under a perturbation of theta, i.e. when the simplex gradients
    differ.  Structural coincidences -- all Rips vertices entering at 0, or
    two cofaces whose value is realized by the same witness edge -- move in
    lockstep and never change the order.
    """
    filt = family.filtration(theta)
    grads: dict[int, dict] = {}

    def grad(q):
        if q not in grads:
            grads[q] = family.simplex_gradient(theta, filt.complex.simplex(q))
        return grads[q]

    def same_gradient(ga, gb):
        return ga.keys() == gb.keys() and all(
            np.array_equal(ga[k], gb[k]) or np.allclose(ga[k], gb[k]) for k in ga)

    tied = any(not same_gradient(grad(a), grad(b)) for a, b in _free_ties(filt))
    return OrderingSignature(filt.order, tied)


def move_values(
    cx: SimplicialComplex, values: np.ndarray, targets: dict[Simplex, float]
) -> np.ndarray:
    """Set the given simplices to their target values, clamping faces and
    cofaces as needed to restore monotonicity.

    A decreased simplex drags offending faces down with it; an increased one
    pushes offending cofaces up.
    """
    out = np.asarray(values, dtype=float).copy()

    def push_down(s, t):
        i = cx.index[s]
        if out[i] > t:
            out[i] = t
        for f in boundary(s):
            push_down(f, t)

    def push_up(s, t):
        i = cx.index[s]
        if out[i] < t:
            out[i] = t
        for c in cx.cofaces(s):
            if out[cx.index[c]] < t:
                push_up(c, t)

    for s, t in targets.items():
        s = tuple(s)
        i = cx.index[s]
        old = out[i]
        out[i] = t
        if t < old:
            for f in boundary(s):
                push_down(f, t)
        elif t > old:
            for c in cx.cofaces(s):
                if out[cx.index[c]] < t:
                    push_up(c, t)
    return out


# ---------------------------------------------------------------------------
# point cloud serialization: comma-separated coordinates with an x0,x1,...
# header line.


def write_cloud(path, X: np.ndarray) -> None:
    X = np.asarray(X, dtype=float)
    write_table(path, [f"x{k}" for k in range(X.shape[1])], X)


def read_cloud(path) -> np.ndarray:
    rows = read_table(path, "x0")
    return np.asarray([[float(v) for v in row] for row in rows], dtype=float)
