"""Descent driver over filtration parameters with pluggable gradient schemes.

A run produces a Trace of (step, loss, grad_norm, time_ms) records, one per
step plus the initial state.  Fixed seeds make the iterates and the
loss/grad columns of the trace bit-identical across runs; wall times are
excluded from trace equality.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .complexes import read_table, write_table
from .losses import DiagramLoss
from .schemes import (
    StratifiedConfig,
    _sampled_min_norm,
    big_step_gradient,
    continuation_step,
    diffeo_interpolate,
    distributed_gradient,
    stratified_gradient,
    stratified_gradient_const,
    vanilla_gradient,
)


@dataclass
class TraceRecord:
    step: int
    loss: float
    grad_norm: float
    time_ms: float

    def __eq__(self, other):  # wall time excluded
        return (
            self.step == other.step
            and self.loss == other.loss
            and self.grad_norm == other.grad_norm
        )


@dataclass
class Trace:
    records: list[TraceRecord] = field(default_factory=list)
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)

    def __len__(self):
        return len(self.records)

    def losses(self):
        return np.array([r.loss for r in self.records])

    def __eq__(self, other):
        return self.records == other.records


class DescentAborted(RuntimeError):
    """Raised when the loss or the gradient turns non-finite; carries the
    partial trace."""

    def __init__(self, message: str, trace: Trace):
        super().__init__(message)
        self.trace = trace


def geometric_schedule(eta: float, gamma: float):
    """Step sizes eta * gamma^k (square-summable for gamma < 1)."""
    return lambda k: eta * gamma**k


def harmonic_schedule(eta: float):
    """Step sizes eta / (k+1): non-summable but square-summable."""
    return lambda k: eta / (k + 1)


@dataclass
class DescentConfig:
    method: str = "vanilla"
    steps: int = 20
    lr: float = 0.1
    decay: float = 1.0
    schedule: str = "geometric"
    noise_std: float = 0.0
    seed: int = 0
    stratified: StratifiedConfig = field(default_factory=StratifiedConfig)
    continuation_targets: dict | None = None
    n_sub: int = 10
    subsample_size: int = 20
    diffeo_sigma: float = 0.05
    snapshot_steps: tuple[int, ...] = ()

    def make_schedule(self):
        if self.schedule == "geometric":
            return geometric_schedule(self.lr, self.decay)
        if self.schedule == "harmonic":
            return harmonic_schedule(self.lr)
        raise ValueError(f"unknown schedule {self.schedule!r}")


# ---------------------------------------------------------------------------
# one step per method: (family, theta, loss, cfg, lr, rng) ->
# (value, g, step_size, theta_next).  step_size None means no admissible step
# remains; theta_next, when not None, replaces theta - step_size * g.


def _vanilla_step(family, theta, loss, cfg, lr, rng):
    value, g, _ = vanilla_gradient(family, theta, loss)
    return value, g, lr, None


class _FirstValue:
    """The loss, remembering the value of its first evaluation."""

    def __init__(self, loss: DiagramLoss):
        self.loss, self.value = loss, None

    def evaluate(self, dgm):
        value, grads = self.loss.evaluate(dgm)
        if self.value is None:
            self.value = value
        return value, grads


def _stratified_step(gradient, family, theta, loss, cfg, lr, rng):
    # the stratified gradients take the vanilla gradient at theta first, so
    # the first loss value is the loss at theta.  They also take their own
    # step, eps/||g||, so lr (and with it --lr and --decay) is ignored: every
    # cell of a stratified grid is the same trajectory
    first = _FirstValue(loss)
    g, alpha = gradient(family, theta, first, cfg.stratified, rng)
    # alpha = 0 is approximate stationarity: the sampled-strata min-norm
    # point vanished
    return first.value, g, alpha if alpha != 0.0 else None, None


def _big_step(family, theta, loss, cfg, lr, rng):
    value, g, _ = big_step_gradient(family, theta, loss, push_scale=lr)
    return value, g, lr, None


def _continuation_step(family, theta, loss, cfg, lr, rng):
    if not cfg.continuation_targets:
        raise ValueError("continuation requires target diagrams")
    theta_next, dgm = continuation_step(
        family, theta, cfg.continuation_targets, gamma=lr
    )
    value, _ = loss.evaluate(dgm)
    g = (theta - theta_next) / lr if lr else np.zeros_like(theta)
    return value, g, lr, theta_next


def _distributed_step(family, theta, loss, cfg, lr, rng):
    value, _, _ = vanilla_gradient(family, theta, loss)
    g = distributed_gradient(family, theta, loss, cfg.n_sub, cfg.subsample_size, rng)
    return value, g, lr, None


def _diffeo_step(family, theta, loss, cfg, lr, rng):
    value, g, _ = vanilla_gradient(family, theta, loss)
    g = diffeo_interpolate(theta, g, cfg.diffeo_sigma)(theta)
    return value, g, lr, None


# every step looks its gradient function up at call time, so a replaced
# module attribute (a tracer's wrapper, a test double) is the one called
_STEPS = {
    "vanilla": _vanilla_step,
    "stratified": lambda *a: _stratified_step(stratified_gradient, *a),
    "stratified_const": lambda *a: _stratified_step(stratified_gradient_const, *a),
    "big_step": _big_step,
    "continuation": _continuation_step,
    "distributed": _distributed_step,
    "diffeo": _diffeo_step,
}
METHODS = tuple(_STEPS)


def descend(family, theta0, loss: DiagramLoss, cfg: DescentConfig,
            regularizer=None):
    """Run cfg.steps descent steps from theta0; returns (theta, Trace).

    ``regularizer``, when given, must expose value_and_grad(theta) and is
    added to the topological loss for every method.  A negative step count or
    a non-finite theta0 raises ValueError; a non-finite loss, gradient norm
    or updated theta raises DescentAborted.
    """
    step = _STEPS.get(cfg.method)
    if step is None:
        raise ValueError(f"unknown method {cfg.method!r}")
    rng = np.random.default_rng(cfg.seed)
    schedule = cfg.make_schedule()
    theta = np.asarray(theta0, dtype=float).copy()
    if not np.isfinite(theta).all():
        raise ValueError("non-finite entries in theta0")
    if cfg.steps < 0:
        raise ValueError(f"need steps >= 0, got {cfg.steps}")
    trace = Trace()
    for k in range(cfg.steps + 1):
        t0 = time.perf_counter()
        lr = schedule(k)
        value, g, step_size, theta_next = step(family, theta, loss, cfg, lr, rng)
        if regularizer is not None:
            rv, rg = regularizer.value_and_grad(theta)
            value += rv
            g = g + rg
            if theta_next is not None:
                theta_next = theta_next - lr * rg
        gnorm = float(np.linalg.norm(g))
        trace.records.append(
            TraceRecord(k, float(value), gnorm, (time.perf_counter() - t0) * 1e3)
        )
        if k in cfg.snapshot_steps:
            trace.snapshots[k] = theta.copy()
        if not (np.isfinite(value) and np.isfinite(gnorm)):
            raise DescentAborted(
                f"non-finite loss {value} or grad norm {gnorm} at step {k}", trace
            )
        if k == cfg.steps or step_size is None:
            break
        zeta = (
            rng.normal(0.0, cfg.noise_std, size=theta.shape)
            if cfg.noise_std > 0
            else 0.0
        )
        if theta_next is not None:
            theta = theta_next + (
                -lr * zeta if cfg.noise_std > 0 else 0.0
            )
        else:
            theta = theta - step_size * (g + zeta)
        if not np.isfinite(theta).all():
            raise DescentAborted(f"non-finite parameters after step {k}", trace)
    return theta, trace


def goldstein_check(family, theta, loss: DiagramLoss, eps: float, m: int,
                    eta: float = 1e-6, rng: np.random.Generator | None = None):
    """Approximate Goldstein stationarity test: min-norm point of sampled
    strata gradients within the eps-ball.  Returns (is_stationary, norm).
    Needs a finite tolerance eta >= 0 (ValueError)."""
    if not 0 <= eta < np.inf:
        raise ValueError(f"goldstein_check needs a finite tolerance eta >= 0, got eta={eta!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    nrm = float(_sampled_min_norm(family, theta, loss, eps, m, rng)[3])
    return nrm <= eta, nrm


class BoxRegularizer:
    """Per-coordinate soft confinement sum_i sum_k (|x_ik| - bound)_+^2."""

    def __init__(self, bound: float = 2.0):
        self.bound = bound

    def value_and_grad(self, theta):
        theta = np.asarray(theta, dtype=float)
        excess = np.maximum(np.abs(theta) - self.bound, 0.0)
        value = float((excess**2).sum())
        grad = 2.0 * excess * np.sign(theta)
        return value, grad


# ---------------------------------------------------------------------------
# trace serialization: step,loss,grad_norm,time_ms


def write_trace(path, trace: Trace) -> None:
    write_table(path, ("step", "loss", "grad_norm", "time_ms"),
                ((r.step, r.loss, r.grad_norm, r.time_ms) for r in trace.records))


def read_trace(path) -> Trace:
    return Trace([TraceRecord(int(s), float(l), float(g), float(t))
                  for s, l, g, t in read_table(path, "step")])
