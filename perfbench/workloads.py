"""The benchmark's workloads: set-up, one fixed-step run, and its output.

Every workload optimises the circle objective of ``experiments.circle_loss``
(-FG_2(Dgm_1, empty) plus BoxRegularizer(2.0)) on a Vietoris-Rips family with
max_dim=2, step size eta=0.128 decayed by gamma=0.9 per step.  A part is
one method's fixed-step run; a workload is a few parts that share a set-up.

The seed picks one of VARIANTS input variants, ``seed % VARIANTS``, and the
outcome of every variant of every part is pinned in expected.json.  The
variant fixes the cloud and every random draw, so a run's trajectory is
deterministic.

The cloud is the noisy circle ``gen_circle(n, seed=0)`` turned about the
origin by an angle drawn from the variant.  A turn keeps every distance up
to rounding, so it keeps the work of a step, while each variant still hands
the program different numbers.  Clouds drawn afresh per seed, or relabelled,
do not: the Rips filtration has many tied triangles, broken by vertex
labels.  The pairing-only reduction of a 101-point circle did 58 to 79
million column entry operations across five fresh clouds, and 54 to 85
million across five relabellings of one cloud.

The package is reached through module attributes at call time (for example
``schemes.distributed_gradient``) so that the traced run sees every call.
"""
from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from topo_opt import complexes, experiments, filtrations, optim, reduction, schemes

ETA = 0.128
GAMMA = 0.9
VARIANTS = 50


@dataclass
class Step:
    loss: float | None  # None where the method computes no loss value
    grad_norm: float
    ms: float


@dataclass
class MethodRun:
    method: str
    planned: int  # steps the run was meant to take
    steps: list[Step] = field(default_factory=list)
    error: str | None = None
    # parameters the method ended at, and the family whose H1 diagram at
    # those parameters is checked (None where there is no such diagram)
    theta: np.ndarray | None = None
    family: object = None

    def outcome(self, with_h1: bool) -> dict:
        """What the output check compares, bit for bit: the loss and
        grad_norm of every step, a digest of the final parameters and,
        with_h1, of the final H1 diagram (computed here, outside any timing)."""
        out = {"steps": [[s.loss, s.grad_norm] for s in self.steps],
               "final": _digest(self.theta.tobytes()) if self.theta is not None else None}
        if with_h1 and self.family is not None and self.theta is not None:
            dgm = reduction.build_diagram(self.family.filtration(self.theta))
            pts = sorted((float(b), float(d)) for b, d in dgm.ordinary(1))
            text = ";".join(f"{b.hex()},{d.hex()}" for b, d in pts)
            out["h1"] = f"{len(pts)} points, {_digest(text.encode())}"
        return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def check(run: MethodRun, got: dict, ref: dict) -> tuple[int, int]:
    """(attempted, failed) steps of one run, checked against the outcome ref.

    A step fails when it raised or was never reached after an error, when
    its loss or gradient norm is not finite, or when it differs from ref.
    A differing final parameter or H1 digest fails the last step taken."""
    n = len(run.steps)
    attempted = max(n, run.planned, len(ref["steps"]))
    bad = {i for i, s in enumerate(run.steps)
           if not math.isfinite(s.grad_norm)
           or (s.loss is not None and not math.isfinite(s.loss))}
    bad.update(i for i, s in enumerate(got["steps"])
               if i >= len(ref["steps"]) or s != ref["steps"][i])
    if n and (got["final"] != ref["final"] or (
            "h1" in got and "h1" in ref and got["h1"] != ref["h1"])):
        bad.add(n - 1)
    return attempted, len(bad) + attempted - n


# ---------------------------------------------------------------------------
# descent workloads


def _cloud(n_points: int, variant: int, outlier: bool = True) -> np.ndarray:
    angle = np.random.default_rng(variant).uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(angle), np.sin(angle)
    return experiments.gen_circle(n_points, outlier=outlier, seed=0) @ np.array(
        [[c, s], [-s, c]])


def _setup_descent(n_points: int, variant: int):
    """Cloud, family, complex build and the first total order."""
    X0 = _cloud(n_points, variant)
    family = filtrations.VietorisRips(len(X0), max_dim=2)
    complexes.total_order(family.filtration(X0))
    return family, X0


def _descent_config(method: str, steps: int, variant: int) -> optim.DescentConfig:
    """Descent settings of the circle experiment (ExperimentSpec) for one
    method; the moving-set variant is the library default."""
    spec = experiments.ExperimentSpec(seed=variant)
    return optim.DescentConfig(
        method=method,
        steps=steps,
        lr=ETA,
        decay=GAMMA,
        seed=variant,
        stratified=spec.stratified,
        continuation_targets={1: np.array([spec.continuation_target])},
    )


def _run_descent(state, method, steps, variant, on_step=None):
    family, X0 = state
    loss, reg = experiments.circle_loss()
    run = MethodRun(method, steps + 1)
    cfg = _descent_config(method, steps, variant)
    if on_step is not None:
        cfg.make_schedule = _labelled_schedule(cfg, method, on_step)
    try:
        theta, trace = optim.descend(family, X0, loss, cfg, regularizer=reg)
    except optim.DescentAborted as exc:
        trace, theta = exc.trace, None
        run.error = str(exc)
    except Exception:
        trace, theta = optim.Trace(), None
        run.error = traceback.format_exc()
    run.steps = [Step(r.loss, r.grad_norm, r.time_ms) for r in trace.records]
    run.theta, run.family = theta, family
    return run


def _labelled_schedule(cfg, method, on_step):
    """The config's schedule, telling on_step when each step starts
    (``descend`` asks for step k's size first thing in step k)."""
    schedule = optim.DescentConfig.make_schedule(cfg)

    def make():
        def labelled(k):
            on_step(f"{method}:{k}")
            return schedule(k)
        return labelled

    return make


# ---------------------------------------------------------------------------
# subsampling workloads

N_LARGE = 2000
SUBSAMPLE = 50
N_SUB = 10
SIGMA = 0.05


def _setup_subsample(variant: int):
    """Cloud and family.  The family builds no complex here: the run builds
    one per subsample, and that is run time."""
    X0 = _cloud(N_LARGE, variant, outlier=False)
    return filtrations.VietorisRips(N_LARGE, max_dim=2), X0


def _run_subsample(state, method, steps, variant, on_step=None):
    """distributed_gradient steps, or steps that push one subsample's
    vanilla gradient to all points through diffeo_interpolate.

    ``descend`` is not used: for these methods it first builds the full
    N_LARGE-point complex."""
    family, X = state
    loss, reg = experiments.circle_loss()
    rng = np.random.default_rng(variant)
    run = MethodRun(method, steps)
    for k in range(steps):
        if on_step is not None:
            on_step(f"{method}:{k}")
        t0 = time.perf_counter()
        try:
            if method == "distributed":
                value = None
                g = schemes.distributed_gradient(family, X, loss, N_SUB, SUBSAMPLE, rng)
            else:
                idx = np.sort(rng.choice(N_LARGE, size=SUBSAMPLE, replace=False))
                sub = family.subsample(idx)
                # the diffeo steps end on the H1 diagram of their last subsample
                run.family, run.theta = sub, X[idx]
                value, gs, _ = schemes.vanilla_gradient(sub, X[idx], loss)
                G = np.zeros_like(X)
                G[idx] = gs
                fld = schemes.diffeo_interpolate(X, G, SIGMA)
                g = fld(X) if len(fld.centers) else np.zeros_like(X)
            rv, rg = reg.value_and_grad(X)
            g = g + rg
            if value is not None:
                value += rv
            X = X - ETA * GAMMA**k * g
        except Exception:
            run.error = traceback.format_exc()
            break
        run.steps.append(Step(value, float(np.linalg.norm(g)),
                              (time.perf_counter() - t0) * 1e3))
    if run.family is None:
        run.theta = X
    return run


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Part:
    """One method's fixed-step run.  Its outcome is pinned in expected.json
    under the part's name."""
    name: str
    setup: object
    run: object
    method: str
    steps: int  # descent steps of one run

    def execute(self, state, variant: int, on_step=None) -> MethodRun:
        """One fixed-step run; ``on_step(label)`` is told when each step
        starts."""
        return self.run(state, self.method, self.steps, variant, on_step)


@dataclass(frozen=True)
class Workload:
    """Parts that share one set-up and run one after the other."""
    name: str
    parts: tuple[Part, ...]
    setups: int  # set-ups per benchmark run; setup_s is their median
    why: str

    @property
    def setup(self):
        return self.parts[0].setup


def _n33(variant):
    return _setup_descent(32, variant)


def _n101(variant):
    return _setup_descent(100, variant)


PARTS = {
    p.name: p
    for p in (
        Part("vanilla_n101", _n101, _run_descent, "vanilla", 2),
        Part("stratified_n33", _n33, _run_descent, "stratified", 10),
        Part("big_step_n33", _n33, _run_descent, "big_step", 10),
        Part("continuation_n33", _n33, _run_descent, "continuation", 10),
        Part("distributed_n2000", _setup_subsample, _run_subsample, "distributed", 1),
        Part("diffeo_n2000", _setup_subsample, _run_subsample, "diffeo", 10),
    )
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "vanilla_n101", (PARTS["vanilla_n101"],), 9,
            "paper-size cloud (171,801 simplices): pairing-only reduction "
            "dominates each step"),
        Workload(
            "schemes_n33",
            tuple(PARTS[n] for n in ("stratified_n33", "big_step_n33",
                                     "continuation_n33")), 15,
            "stratified, big-step and continuation descents on 6,017 simplices: "
            "strata sampling, in-place transpositions of V and U, the pinv of J"),
        Workload(
            "subsample_n2000",
            tuple(PARTS[n] for n in ("distributed_n2000", "diffeo_n2000")), 101,
            "distributed and diffeo steps on a 2000-point cloud: many small "
            "reductions, a complex built per subsample, the kernel solve"),
    )
}
assert all(p.setup is w.setup for w in WORKLOADS.values() for p in w.parts)
