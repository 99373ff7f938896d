"""Losses on persistence diagrams and composition through filtration maps.

All losses consume ordinary (finite) diagram points only; essential points
are stripped upstream and points with persistence below PRUNE_TOL are
pruned before a loss sees them.  Each loss returns its value together with
the gradient with respect to the diagram points, row-aligned with the
input; ``compose_gradient`` lifts a diagram gradient to the filtration
parameter via the birth/death simplex witnesses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import _qnorm, diagonal_distance, fg_distance
from .reduction import PersistenceDiagram

PRUNE_TOL = 1e-12


def total_persistence(points, exponent: float = 2.0, sign: float = 1.0, death_only: bool = False):
    """sign * 1/2 * sum (d-b)^p; for p=2 the gradient rows are sign*(b-d, d-b)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pers = pts[:, 1] - pts[:, 0]
    value = sign * 0.5 * float((pers**exponent).sum())
    g = sign * 0.5 * exponent * pers ** (exponent - 1.0)
    grad = np.stack([-g, g], axis=1)
    if death_only:
        grad[:, 0] = 0.0
    return value, grad


def simplification_loss(points, eta: float):
    """Sum of persistences strictly below eta (pushes small bars to zero)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pers = pts[:, 1] - pts[:, 0]
    active = np.abs(pers) < eta
    value = float(pers[active].sum())
    grad = np.zeros_like(pts)
    grad[active, 0] = -1.0
    grad[active, 1] = 1.0
    return value, grad


def matched_partners(points, target, q: float = 2.0):
    """Optimal partners of diagram points against a target diagram: row i
    of the partners is the target point matched to points[i], or the
    diagonal projection of points[i] when it is matched to the diagonal.
    Returns (FG_q distance, partners, matching)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    tgt = np.asarray(target, dtype=float).reshape(-1, 2)
    dist, matching = fg_distance(pts, tgt, q=q)
    m = 0.5 * (pts[:, 0] + pts[:, 1])
    partners = np.column_stack([m, m])
    for i, j in matching.matched():
        partners[i] = tgt[j]
    return dist, partners, matching


def distance_to_target(points, target, q: float = 2.0):
    """1/2 * FG_q(alpha, beta)^2 against a fixed target diagram beta.

    By the envelope theorem (the optimal matching is locally constant), the
    gradient at a point is x_i - pi*(x_i) with pi* its matched partner or
    diagonal projection.  Returns (value, grad, matching).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    dist, partners, matching = matched_partners(pts, target, q)
    return 0.5 * dist**2, pts - partners, matching


def singleton_loss(points, index: int, target):
    """Euclidean distance of one diagram point to a target coordinate."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    q0 = np.asarray(target, dtype=float)
    diff = pts[index] - q0
    value = float(np.linalg.norm(diff))
    grad = np.zeros_like(pts)
    if value > 0:
        grad[index] = diff / value
    return value, grad


def _check_bandwidth(bandwidth) -> None:
    if not 0 < bandwidth < np.inf:
        raise ValueError(f"linear vectorization needs a finite bandwidth > 0,"
                         f" got {bandwidth!r}")


def linear_vectorization(points, grid, bandwidth: float):
    """Gaussian-bump image of a diagram on a fixed grid.

    feature_k = sum_i exp(-||x_i - g_k||^2 / (2 s^2)); a point sitting on a
    grid node contributes exactly 1 there.  Returns (features, jacobian) with
    jacobian[k, i] = d feature_k / d x_i.  A bandwidth that is not finite
    and positive raises ValueError.
    """
    _check_bandwidth(bandwidth)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    g = np.asarray(grid, dtype=float).reshape(-1, 2)
    diff = pts[None, :, :] - g[:, None, :]  # (K, m, 2)
    w = np.exp(-(diff**2).sum(axis=-1) / (2.0 * bandwidth**2))  # (K, m)
    jac = -w[:, :, None] * diff / bandwidth**2
    return w.sum(axis=1), jac


def chain_rule(family, theta, partials) -> np.ndarray:
    """sum partial * grad_theta f(s) over the (simplex s, partial) pairs,
    accumulated in their order, with the simplex-value gradients supplied
    by the filtration family at theta."""
    out = np.zeros_like(theta)
    for s, partial in partials:
        for k, v in family.simplex_gradient(theta, s).items():
            out[k] += partial * v
    return out


def compose_gradient(family, theta, dgm: PersistenceDiagram, grads: dict[int, np.ndarray]):
    """Lift diagram gradients to the filtration parameter.

    grad_theta = sum_i dL/db_i * grad_theta f(birth_i) + dL/dd_i * grad_theta
    f(death_i); zero partials are skipped.
    """
    theta = np.asarray(theta, dtype=float)
    partials = ((s, g)
                for dim, G in grads.items()
                for row, pair in zip(np.asarray(G, dtype=float), dgm.pairs.get(dim, []))
                for s, g in zip(pair, row) if g != 0.0)
    return chain_rule(family, theta, partials)


# ---------------------------------------------------------------------------
# loss objects consumed by the descent driver.  Each exposes the homology
# dimensions it reads, evaluate(diagram) -> (value, {dim: grad}), and
# singleton terms for the big-step scheme.


@dataclass
class SingletonTerm:
    """One diagram point with explicit target coordinates and loss partials."""

    dim: int
    row: int
    birth_simplex: tuple
    death_simplex: tuple
    target: np.ndarray  # (2,) target (birth, death) values
    partials: np.ndarray  # (2,) dL/d(birth, death)


class DiagramLoss:
    dims: tuple[int, ...] = ()

    def evaluate(self, dgm: PersistenceDiagram):
        raise NotImplementedError

    def terms(self, dgm: PersistenceDiagram, push_scale: float = 1.0):
        """Singleton decomposition: default target is the point a unit
        (push_scale-sized) gradient step would reach."""
        _, grads = self.evaluate(dgm)
        out = []
        for dim, G in grads.items():
            pts = dgm.points.get(dim, np.empty((0, 2)))
            for row, g in enumerate(np.asarray(G)):
                if np.any(g != 0.0):
                    bs, ds = dgm.pairs[dim][row]
                    out.append(
                        SingletonTerm(
                            dim, row, bs, ds, pts[row] - push_scale * g, g.copy()
                        )
                    )
        return out


class TotalPersistenceLoss(DiagramLoss):
    def __init__(self, dims=(0,), exponent=2.0, sign=1.0, death_only=False):
        self.dims = tuple(dims)
        self.exponent = exponent
        self.sign = sign
        self.death_only = death_only

    def evaluate(self, dgm):
        value, grads = 0.0, {}
        for dim in self.dims:
            v, g = total_persistence(
                dgm.ordinary(dim), self.exponent, self.sign, self.death_only
            )
            value += v
            grads[dim] = g
        return value, grads


class SimplificationLoss(DiagramLoss):
    def __init__(self, dims=(0,), eta=0.1):
        self.dims = tuple(dims)
        self.eta = eta

    def evaluate(self, dgm):
        value, grads = 0.0, {}
        for dim in self.dims:
            v, g = simplification_loss(dgm.ordinary(dim), self.eta)
            value += v
            grads[dim] = g
        return value, grads


class DistanceToTargetLoss(DiagramLoss):
    def __init__(self, dim: int, target, q: float = 2.0):
        self.dims = (dim,)
        self.target = np.asarray(target, dtype=float).reshape(-1, 2)
        self.q = q

    def evaluate(self, dgm):
        v, g, _ = distance_to_target(dgm.ordinary(self.dims[0]), self.target, self.q)
        return v, {self.dims[0]: g}

    def terms(self, dgm, push_scale: float = 1.0):
        dim = self.dims[0]
        pts = dgm.ordinary(dim)
        _, partners, _ = matched_partners(pts, self.target, self.q)
        return [SingletonTerm(dim, i, *dgm.pairs[dim][i], tgt, pts[i] - tgt)
                for i, tgt in enumerate(partners)]


class SingletonLoss(DiagramLoss):
    """Distance of the index-th most persistent point to a target coordinate."""

    def __init__(self, dim: int, index: int, target):
        self.dims = (dim,)
        self.index = index
        self.target = np.asarray(target, dtype=float)

    def evaluate(self, dgm):
        v, g = singleton_loss(dgm.ordinary(self.dims[0]), self.index, self.target)
        return v, {self.dims[0]: g}

    def terms(self, dgm, push_scale: float = 1.0):
        pts = dgm.ordinary(self.dims[0])
        bs, ds = dgm.pairs[self.dims[0]][self.index]
        diff = pts[self.index] - self.target
        nrm = np.linalg.norm(diff)
        partials = diff / nrm if nrm > 0 else np.zeros(2)
        return [
            SingletonTerm(
                self.dims[0], self.index, bs, ds, self.target.copy(), partials
            )
        ]


class EmptyDiagramDistanceLoss(DiagramLoss):
    """sign * FG_q(diagram, empty): the q-norm of persistences over sqrt(2)
    style diagonal distances.  sign=-1 rewards persistent features.  When
    the q-th powers leave the float range (large finite q), the distances
    are divided by the largest one first, as ``fg_distance`` does, so the
    value and partials stay exact.  For q = inf it is sign times the largest
    (d - b) / 2, whose gradient moves the first point that attains it."""

    def __init__(self, dim: int = 1, q: float = 2.0, sign: float = -1.0):
        self.dims = (dim,)
        self.q = q
        self.sign = sign

    def evaluate(self, dgm):
        pts = dgm.ordinary(self.dims[0])
        if len(pts) == 0:
            return 0.0, {self.dims[0]: np.zeros((0, 2))}
        if np.isinf(self.q):
            dd = diagonal_distance(pts, np.inf)
            i = int(np.argmax(dd))
            grad = np.zeros_like(pts)
            grad[i] = (-self.sign / 2.0, self.sign / 2.0)
            return self.sign * float(dd[i]), {self.dims[0]: grad}
        dd = diagonal_distance(pts, self.q)
        dist, s = _qnorm(dd, self.q)
        grad = np.zeros_like(pts)
        if dist > 0:
            # d dist / d pers_i = (dd_i/s)^(q-1) / ((dist/s)^(q-1) * 2^(1-1/q))
            dpers = (dd / s) ** (self.q - 1.0) / (
                (dist / s) ** (self.q - 1.0) * 2.0 ** (1.0 - 1.0 / self.q)
            )
            grad[:, 0] = -self.sign * dpers
            grad[:, 1] = self.sign * dpers
        return self.sign * dist, {self.dims[0]: grad}


class LinearVectorizationLoss(DiagramLoss):
    """Inner product of a Gaussian-bump vectorization with fixed weights."""

    def __init__(self, dim: int, grid, bandwidth: float, weights):
        self.dims = (dim,)
        self.grid = np.asarray(grid, dtype=float).reshape(-1, 2)
        _check_bandwidth(bandwidth)
        self.bandwidth = bandwidth
        self.weights = np.asarray(weights, dtype=float)

    def evaluate(self, dgm):
        pts = dgm.ordinary(self.dims[0])
        feats, jac = linear_vectorization(pts, self.grid, self.bandwidth)
        value = float(self.weights @ feats)
        grad = np.einsum("k,kij->ij", self.weights, jac)
        return value, {self.dims[0]: grad}
