"""Gradient schemes for losses composed with persistence.

Includes the plain chain-rule gradient, gradient sampling over ordering
strata with a min-norm-point step size, moving sets with their fast
matrix-support characterization, the big-step gradient, diagram-space
continuation, subsampled distributed gradients, and kernel interpolation of
a gradient field.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .complexes import NotMonotoneError, Simplex
from .losses import PRUNE_TOL, DiagramLoss, chain_rule, compose_gradient, matched_partners
from .reduction import (
    ReducedDecomposition,
    _bits,
    _lowest,
    build_diagram,
    persistence_pairs,
)


def vanilla_gradient(family, theta, loss: DiagramLoss):
    """Loss value and parameter gradient through the persistence pairing.

    Essential points are stripped and near-zero-persistence points pruned
    before the loss is evaluated.  Returns (value, gradient, diagram).
    Builds theta's filtration and hands it to ``_gradient``, the path the
    stratified gradients share with their already built samples.
    """
    return _gradient(family, theta, family.filtration(theta), loss)


def _gradient(family, theta, filt, loss: DiagramLoss):
    """``vanilla_gradient`` at theta, read off filt = family.filtration(theta)."""
    dgm = build_diagram(filt, drop_zero_tol=PRUNE_TOL)
    value, grads = loss.evaluate(dgm)
    g = compose_gradient(family, theta, dgm, grads)
    return value, g, dgm


# ---------------------------------------------------------------------------
# strata sampling and the min-norm point


def _is_count(m) -> bool:
    """Whether m is an integer >= 0."""
    return isinstance(m, (int, np.integer)) and m >= 0


def sample_strata(family, theta, eps: float, m: int, rng: np.random.Generator):
    """Sample up to m parameter points with pairwise-distinct total simplex
    orders from the eps-ball around theta (theta's own stratum is always
    included first).  Rejection sampling is capped at 20*m draws; a draw
    whose values break the face order (possible for raw values) is
    rejected.  Strata are told apart by the bytes of each filtration's
    ``order``, which an ``OrderingSignature`` compares; no tie is walked.
    Needs 0 < eps < inf and an integer m >= 0 (ValueError).

    Returns a list of (point, filtration) pairs, theta's first: each sample
    is a point plus the filtration whose order told its stratum apart, so a
    gradient reads it without building it again.  Callers must not change
    that filtration."""
    if not 0 < eps < np.inf:
        raise ValueError(f"sample_strata needs a radius 0 < eps < inf, got eps={eps!r}")
    if not _is_count(m):
        raise ValueError(f"sample_strata needs an integer count m >= 0, got m={m!r}")
    theta = np.asarray(theta, dtype=float)
    filt = family.filtration(theta)
    strata = {filt.order.tobytes(): (theta.copy(), filt)}
    draws = 0
    dim = theta.size
    while len(strata) - 1 < m and draws < 20 * m:
        draws += 1
        u = rng.standard_normal(theta.shape)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            continue
        r = eps * rng.uniform() ** (1.0 / dim)
        cand = theta + u * (r / nrm)
        try:
            filt = family.filtration(cand)
        except NotMonotoneError:
            continue
        strata.setdefault(filt.order.tobytes(), (cand, filt))
    return list(strata.values())


def _affine_minimizer(P: np.ndarray) -> np.ndarray:
    """Coefficients a (sum 1) minimizing ||a @ P|| over the affine hull."""
    k = len(P)
    A = np.zeros((k + 1, k + 1))
    A[:k, :k] = P @ P.T
    A[k, :k] = 1.0
    A[:k, k] = 1.0
    b = np.zeros(k + 1)
    b[k] = 1.0
    sol = np.linalg.lstsq(A, b, rcond=None)[0]
    return sol[:k]


def min_norm_point(vectors, tol: float = 1e-9, max_iter: int = 1000) -> np.ndarray:
    """Minimum-norm point of the convex hull of the given vectors (Wolfe).

    Terminates on the Wolfe criterion <g*, g_i - g*> >= -tol for all i.
    """
    P = np.asarray(
        [np.asarray(v, dtype=float).ravel() for v in vectors], dtype=float
    )
    if len(P) == 0:
        raise ValueError("need at least one vector")
    S = [int(np.argmin((P * P).sum(axis=1)))]
    lam = np.array([1.0])
    x = P[S[0]].copy()
    for _ in range(max_iter):
        dots = P @ x
        j = int(np.argmin(dots))
        if dots[j] >= x @ x - tol:
            break
        if j in S:
            break
        S.append(j)
        lam = np.append(lam, 0.0)
        # minor cycle: pull the affine minimizer back into the simplex
        while True:
            a = _affine_minimizer(P[S])
            if (a > 1e-12).all():
                lam = a
                break
            mask = a <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask, lam / (lam - a), np.inf)
            t = min(1.0, float(ratios.min()))
            lam = lam + t * (a - lam)
            keep = lam > 1e-12
            if keep.all():
                lam = lam / lam.sum()
                break
            S = [s for s, k in zip(S, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
        x = lam @ P[S]
    return x


@dataclass
class StratifiedConfig:
    eps: float = 1e-2
    m: int = 4
    beta: float = 0.5
    C: float = 10.0
    shrink: float = 0.5
    eta: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name, ok in (("eps", 0 < self.eps < np.inf), ("m", _is_count(self.m)),
                         ("beta", 0 < self.beta < 1), ("C", 0 < self.C < np.inf),
                         ("shrink", 0 < self.shrink < 1), ("eta", 0 < self.eta < np.inf)):
            if not ok:
                raise ValueError(
                    f"StratifiedConfig.{name} out of range: {getattr(self, name)!r}")


def _sampled_min_norm(family, theta, loss: DiagramLoss, eps: float, m: int,
                      rng: np.random.Generator):
    """Sample strata in the eps-ball around theta, take the vanilla gradient
    at every sampled point and their min-norm point.  Each gradient reads
    the filtration its sample carries, so a pass builds each sampled
    point's filtration once.

    Returns (points, gradients, g, ||g||); a non-finite ||g|| is an error."""
    samples = sample_strata(family, theta, eps, m, rng)
    pts = [p for p, _ in samples]
    grads = [_gradient(family, p, filt, loss)[1] for p, filt in samples]
    g = min_norm_point(grads)
    nrm = np.linalg.norm(g)
    if not np.isfinite(nrm):
        raise ValueError(f"non-finite min-norm gradient norm {nrm} over sampled strata")
    return pts, grads, g, nrm


def stratified_gradient(family, theta, loss: DiagramLoss, cfg: StratifiedConfig,
                        rng: np.random.Generator | None = None):
    """Controlled stratified gradient: min-norm over sampled strata
    gradients with the ball radius shrunk until eps <= (1-beta)/(2C)*||g||.

    Returns (g, alpha) with alpha = eps/||g|| the admissible step size, or
    alpha = 0 at approximate stationarity (||g|| <= eta)."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    eps = cfg.eps
    bound = (1.0 - cfg.beta) / (2.0 * cfg.C)
    # a pass that does not return has eps > bound * ||g|| > bound * eta, and
    # eps shrinks geometrically, so the loop ends within
    # max(0, ceil(log(cfg.eps / (bound * eta)) / log(1 / shrink))) + 1 passes
    while True:
        _, _, g, nrm = _sampled_min_norm(family, theta, loss, eps, cfg.m, rng)
        if nrm <= cfg.eta:
            return g.reshape(np.shape(theta)), 0.0
        if eps <= bound * nrm:
            return g.reshape(np.shape(theta)), eps / nrm
        eps *= cfg.shrink


def stratified_gradient_const(family, theta, loss: DiagramLoss, cfg: StratifiedConfig,
                              rng: np.random.Generator | None = None):
    """Constant-time variant: one fixed sample, one radius shrink, then the
    sample is filtered to the reduced ball (the min-norm point can only grow
    under subset filtering, so the bound keeps holding)."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    theta = np.asarray(theta, dtype=float)
    pts, grads, g, nrm = _sampled_min_norm(family, theta, loss, cfg.eps, cfg.m, rng)
    if nrm <= cfg.eta:
        return g.reshape(theta.shape), 0.0
    bound = (1.0 - cfg.beta) / (2.0 * cfg.C)
    eps = min(cfg.eps, bound * nrm)
    kept = [
        (p, gr)
        for p, gr in zip(pts, grads)
        if np.linalg.norm(p - theta) <= eps + 1e-15
    ]
    g = min_norm_point([gr for _, gr in kept])
    nrm = np.linalg.norm(g)
    if nrm <= cfg.eta:
        return g.reshape(theta.shape), 0.0
    return g.reshape(theta.shape), eps / nrm


# ---------------------------------------------------------------------------
# moving sets


def _clip_target(dec: ReducedDecomposition, tau: Simplex, t: float) -> float:
    """Clamp the target value so tau never crosses one of its own faces or
    cofaces; crossing either would break monotonicity of the filtration."""
    q = dec.position(tau)
    up = t > dec.values[q]
    near = dec.values[dec.cofaces(q) if up else dec.faces[q]]
    bound = float(near.min(initial=np.inf) if up else near.max(initial=-np.inf))
    if t > bound if up else t < bound:
        warnings.warn(f"target {t} for {tau} clipped at {'coface' if up else 'face'} value {bound}")
        return bound
    return t


def _moving_set_query(dec: ReducedDecomposition, tau, t: float):
    """Check a moving-set query: returns (tau, its position, f(tau), the
    clipped target, whether it lies above f(tau)).  An essential tau is an
    error: it has no pair to preserve, and so is a non-finite target."""
    tau = tuple(tau)
    if not np.isfinite(t):
        raise ValueError(f"moving-set target t={t} for {tau} is not finite")
    pos_tau = dec.position(tau)
    if dec.partner(pos_tau) is None:
        raise ValueError(f"{tau} is essential; it has no finite pair to preserve")
    v0 = float(dec.values[pos_tau])
    t = _clip_target(dec, tau, t)
    return tau, pos_tau, v0, t, t > v0


def moving_set_naive(dec: ReducedDecomposition, tau, t: float) -> set[Simplex]:
    """Simplices that must move along when tau's value moves to t.

    The walk takes the same-dimension simplices next to tau toward t one at a
    time, and stops at the first one not strictly between f(tau) and the
    (clipped) target.  Each crosses the moving block, and joins it exactly
    when the crossing steals tau's pairing with its partner sigma.

    A crossing is decided by one prefix column reduction, in the matrix
    where tau is a column: D for a death, whose reduced columns are the
    decomposition's own R, and D's anti-transpose for a birth, reduced on
    demand.  The pairing is unique, and sigma pairs with tau exactly when
    tau's column, reduced against the columns before it, has its lowest one
    at sigma.
    - A candidate that enters tau's prefix (a death pushed up, a birth
      pushed down) joins iff its column, reduced against the columns before
      tau and the candidates already crossed, has its lowest one at sigma.
    - A candidate that leaves tau's prefix (a death pushed down, a birth
      pushed up) joins iff tau's column, reduced against the columns before
      the candidate and the block's members, no longer has its lowest one
      at sigma.
    No basis is read, and the decomposition is not changed."""
    tau, pos_tau, v0, t, up = _moving_set_query(dec, tau, t)
    window = []
    step = 1 if up else -1
    q = pos_tau + step
    while 0 <= q < len(dec.simplices):
        if len(dec.simplices[q]) == len(tau):
            v = float(dec.values[q])
            if not (v0 < v < t if up else t < v < v0):
                break
            window.append(q)
        q += step
    X = {tau}
    if not window:
        return X

    death = dec.is_death(pos_tau)
    mat = dec.D if death else dec.anti_D
    c_tau, r_sigma = mat.index(pos_tau), mat.index(dec.partner(pos_tau))
    if death == up:
        # candidates enter tau's prefix; the crossed ones stay in it
        crossed: dict[int, int] = {}
        for q in window:
            col = mat.reduce_prefix(mat.raw(mat.index(q)), c_tau, crossed)
            if _lowest(col) == r_sigma:
                X.add(dec.simplices[q])
            elif col:
                crossed[_lowest(col)] = col
        return X
    # candidates leave tau's prefix; the block's members come before tau
    members: list[int] = []
    for q in window:
        c, block = mat.index(q), {}
        for m in reversed(members):
            col = mat.reduce_prefix(mat.raw(m), c, block)
            if col:
                block[_lowest(col)] = col
        if _lowest(mat.reduce_prefix(mat.raw(c_tau), c, block)) != r_sigma:
            members.append(c)
            X.add(dec.simplices[q])
    return X


def moving_set_fast(dec: ReducedDecomposition, tau, t: float) -> set[Simplex]:
    """Moving set read directly off the basis of the matrix where tau is a
    column: D for a death, D's anti-transpose for a birth.

    When the crossed simplices enter tau's prefix (a death pushed up, a
    birth pushed down), the candidates are the set bits of tau's row of
    U = V^-1; otherwise they are those of tau's column of V.  Each basis is
    built on the first query that needs it and kept with the decomposition.
    The support, mapped back to positions, is intersected with the open
    window of same-dimension values between f(tau) and the (clipped)
    target."""
    tau, pos_tau, v0, t, up = _moving_set_query(dec, tau, t)
    death = dec.is_death(pos_tau)
    mat = dec.D if death else dec.anti_D
    V, U = mat.basis
    c = mat.index(pos_tau)
    X = {tau}
    for q in map(mat.index, _bits(U[c] if death == up else V[c])):
        s = dec.simplices[q]
        v = float(dec.values[q])
        if len(s) == len(tau) and (v0 < v < t if up else t < v < v0):
            X.add(s)
    return X


def moving_set(dec: ReducedDecomposition, tau, t: float, variant: str = "fast"):
    if variant == "fast":
        return moving_set_fast(dec, tau, t)
    if variant == "naive":
        return moving_set_naive(dec, tau, t)
    raise ValueError(f"unknown moving-set variant {variant!r}")


# ---------------------------------------------------------------------------
# big-step gradient


def big_step_gradient(family, theta, loss: DiagramLoss, push_scale: float = 1.0):
    """Gradient with diagram partials spread over moving sets.

    For each singleton term of the loss, the partial derivative of the
    birth (death) coordinate is copied onto every simplex in the moving set
    of the birth (death) simplex toward its target value, found by the
    naive walk, which needs no basis.  A simplex pushed by several terms
    keeps the one with the largest |current - target| gap.

    The diagram and the moving sets share one pairing, that of
    ``persistence_pairs``; no full homology reduction is run.  The
    decomposition the moving sets read is seeded from that pairing, and
    reduces a column of D only when a walk first needs it: only death
    columns are, a few dozen of the 6,017 at 33 points.
    Returns (value, gradient, diagram).
    """
    theta = np.asarray(theta, dtype=float)
    filt = family.filtration(theta)
    pairing = persistence_pairs(filt)
    dec = ReducedDecomposition._from_pairing(filt, pairing)
    dgm = build_diagram(filt, pairing, drop_zero_tol=PRUNE_TOL)
    value, _ = loss.evaluate(dgm)
    terms = loss.terms(dgm, push_scale)
    assigned: dict[Simplex, tuple[float, float]] = {}

    def offer(s: Simplex, partial: float, target: float):
        gap = abs(filt.value(s) - target)
        if s not in assigned or gap > assigned[s][0]:
            assigned[s] = (gap, partial)

    for term in terms:
        for s, partial, target in (
            (term.birth_simplex, term.partials[0], term.target[0]),
            (term.death_simplex, term.partials[1], term.target[1]),
        ):
            if partial == 0.0:
                continue
            if abs(filt.value(s) - target) <= PRUNE_TOL:
                offer(s, partial, target)
                continue
            # through the dispatcher: the benchmark's traced pass hooks it
            for member in moving_set(dec, s, target, "naive"):
                offer(member, partial, target)
    g = chain_rule(family, theta, ((s, partial) for s, (_, partial) in assigned.items()))
    return value, g, dgm


# ---------------------------------------------------------------------------
# continuation in diagram space


def continuation_step(family, theta, targets: dict[int, np.ndarray],
                      gamma: float = 1.0, q: float = 2.0):
    """One continuation update X += gamma * J^+ v.

    v stacks, for every ordinary diagram point, the displacement toward its
    optimally matched target point (or its diagonal projection); J stacks the
    filtration gradients of the paired simplices.  The pseudo-inverse uses an
    SVD cutoff of 1e-10 relative to the largest singular value.
    """
    theta = np.asarray(theta, dtype=float)
    filt = family.filtration(theta)
    dgm = build_diagram(filt, drop_zero_tol=PRUNE_TOL)
    rows_J, rows_v = [], []
    for dim, target in targets.items():
        pts = dgm.ordinary(dim)
        _, partners, _ = matched_partners(pts, target, q)
        disp = partners - pts
        for i, (bs, ds) in enumerate(dgm.pairs.get(dim, [])):
            for s, dv in ((bs, disp[i, 0]), (ds, disp[i, 1])):
                rows_J.append(chain_rule(family, theta, [(s, 1.0)]).ravel())
                rows_v.append(dv)
    if not rows_J:
        return theta.copy(), dgm
    J = np.asarray(rows_J)
    v = np.asarray(rows_v)
    delta = np.linalg.pinv(J, rcond=1e-10) @ v
    return theta + gamma * delta.reshape(theta.shape), dgm


# ---------------------------------------------------------------------------
# distributed (subsampled) gradient


def distributed_gradient(family, theta, loss: DiagramLoss, n_sub: int, s: int,
                         rng: np.random.Generator):
    """Average of vanilla gradients over n_sub random s-point subclouds,
    scattered back to the global point indices."""
    theta = np.asarray(theta, dtype=float)
    n = len(theta)
    if n_sub < 1 or s < 1:
        raise ValueError(f"need n_sub >= 1 and s >= 1, got n_sub={n_sub}, s={s}")
    if s > n:
        raise ValueError("subsample size exceeds the cloud size")
    g = np.zeros_like(theta)
    for _ in range(n_sub):
        idx = np.sort(rng.choice(n, size=s, replace=False))
        sub = family.subsample(idx)
        _, gs, _ = vanilla_gradient(sub, theta[idx], loss)
        g[idx] += gs
    return g / n_sub


# ---------------------------------------------------------------------------
# kernel interpolation of a gradient field


class GaussianField:
    """Radial-basis vector field V(x) = sum_i rho_sigma(||x - c_i||) alpha_i;
    with no centers it is zero everywhere."""

    def __init__(self, centers: np.ndarray, alpha: np.ndarray, sigma: float):
        self.centers = centers
        self.alpha = alpha
        self.sigma = sigma

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d2 = ((pts[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=-1)
        K = np.exp(-d2 / (2.0 * self.sigma**2))
        return K @ self.alpha


def diffeo_interpolate(X: np.ndarray, grad: np.ndarray, sigma: float,
                       ridge: float = 0.0) -> GaussianField:
    """Interpolate a sparse per-point gradient into a smooth global field.

    Coefficients solve (K + ridge*I) alpha = grad on the support of the
    gradient, K_ij = exp(-||x_i-x_j||^2 / (2 sigma^2)).  A singular system at
    ridge=0 falls back to ridge=1e-10 with a warning.  X and grad must be
    finite point clouds of one shape (n, d), and sigma finite and positive;
    anything else raises ValueError naming the argument.
    """
    X = np.asarray(X, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if X.ndim != 2 or grad.shape != X.shape:
        raise ValueError(
            f"diffeo_interpolate needs points and a gradient of one shape (n, d);"
            f" got points of shape {X.shape} and a gradient of shape {grad.shape}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"diffeo_interpolate needs a finite positive sigma, got {sigma!r}")
    for name, arr in (("X", X), ("grad", grad)):
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if len(bad):
            raise ValueError(f"diffeo_interpolate needs a finite {name};"
                             f" row {bad[0]} is {arr[bad[0]].tolist()}")
    support = np.where(np.linalg.norm(grad, axis=1) > 0)[0]
    if len(support) == 0:
        return GaussianField(X[:0], grad[:0], sigma)
    C = X[support]
    a = grad[support]
    d2 = ((C[:, None, :] - C[None, :, :]) ** 2).sum(axis=-1)
    K = np.exp(-d2 / (2.0 * sigma**2))
    try:
        alpha = np.linalg.solve(K + ridge * np.eye(len(C)), a)
        resid = np.abs(K @ alpha + ridge * alpha - a).max()
        if not np.isfinite(alpha).all() or (ridge == 0.0 and resid > 1e-6):
            raise np.linalg.LinAlgError("ill-conditioned kernel system")
    except np.linalg.LinAlgError:
        warnings.warn("singular kernel matrix at ridge=0; retrying with 1e-10")
        alpha = np.linalg.solve(K + 1e-10 * np.eye(len(C)), a)
    return GaussianField(C, alpha, sigma)
