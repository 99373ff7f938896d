"""Benchmark harness: data generators, the circle objective, and grid runs.

``run_experiment`` sweeps a (step size, decay) grid for each method on the
circle-with-outlier cloud, writing traces, snapshot clouds, and snapshot
diagrams per cell, plus a deterministic manifest (best cell per method) and
a separate wall-time file.
"""
from __future__ import annotations

import importlib
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .filtrations import VietorisRips, write_cloud
from .losses import EmptyDiagramDistanceLoss
from .optim import BoxRegularizer, DescentConfig, descend, write_trace
from .reduction import build_diagram, write_diagram
from .schemes import (
    StratifiedConfig,
    diffeo_interpolate,
    distributed_gradient,
    vanilla_gradient,
)

DEFAULT_ETAS = (0.064, 0.128, 0.256)
DEFAULT_GAMMAS = (1.0, 0.9, 0.8, 0.7)
SNAPSHOT_STEPS = (0, 1, 5, 10, 20)


def gen_circle(n: int = 100, radius: float = 1.0, noise: float = 0.05,
               outlier: bool = True, seed: int = 0) -> np.ndarray:
    """Noisy circle sample: n uniform angles with radial Gaussian noise,
    optionally plus one outlier at the origin (with a small jitter)."""
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = radius + rng.normal(0.0, noise, size=n)
    pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    if outlier:
        pts = np.vstack([pts, rng.normal(0.0, 0.01 * radius, size=(1, 2))])
    return pts


def gen_sphere(n: int = 500, radius: float = 1.0, noise: float = 0.05,
               seed: int = 0) -> np.ndarray:
    """Noisy 3-sphere sample for second-homology experiments."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius + rng.normal(0.0, noise, size=(n, 1))
    return u * r


def circle_loss():
    """The circle objective: drive the H1 diagram away from the diagonal,
    value -FG_2(Dgm_1, empty), with a soft [-2, 2]^2 confinement."""
    return EmptyDiagramDistanceLoss(dim=1, q=2.0, sign=-1.0), BoxRegularizer(2.0)


@dataclass
class ExperimentSpec:
    name: str = "circle"
    n_points: int = 100
    noise: float = 0.05
    outlier: bool = True
    seed: int = 0
    methods: tuple[str, ...] = ("vanilla", "stratified", "continuation", "big_step")
    etas: tuple[float, ...] = DEFAULT_ETAS
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    steps: int = 20
    snapshot_steps: tuple[int, ...] = SNAPSHOT_STEPS
    stratified: StratifiedConfig = field(default_factory=lambda: StratifiedConfig(
        eps=1e-2, m=4, beta=0.5, C=10.0, shrink=0.5, eta=1e-8
    ))
    continuation_target: tuple[float, float] = (0.0, 1.5)
    n_sub: int = 10
    subsample_size: int = 50
    diffeo_sigma: float = 0.05


def _write_manifest(out: Path, manifest: dict) -> None:
    """manifest.txt: one key=value line per entry, sorted by key."""
    with open(out / "manifest.txt", "w") as fh:
        for k in sorted(manifest):
            fh.write(f"{k}={manifest[k]}\n")


def _cell_config(spec: ExperimentSpec, method: str, eta: float, gamma: float) -> DescentConfig:
    return DescentConfig(
        method=method,
        steps=spec.steps,
        lr=eta,
        decay=gamma,
        seed=spec.seed,
        stratified=spec.stratified,
        continuation_targets={1: np.array([spec.continuation_target])},
        n_sub=spec.n_sub,
        subsample_size=min(spec.subsample_size, spec.n_points),
        diffeo_sigma=spec.diffeo_sigma,
        snapshot_steps=spec.snapshot_steps,
    )


def _run_cell(spec, family, X0, loss, reg, method, eta, gamma, cell_dir: Path):
    cell_dir.mkdir(parents=True, exist_ok=True)
    cfg = _cell_config(spec, method, eta, gamma)
    t0 = time.perf_counter()
    theta, trace = descend(family, X0, loss, cfg, regularizer=reg)
    elapsed = time.perf_counter() - t0
    write_trace(cell_dir / "trace.csv", trace)
    for k, snap in {**trace.snapshots, cfg.steps: theta}.items():
        write_cloud(cell_dir / f"cloud_step{k}.csv", snap)
        write_diagram(
            cell_dir / f"diagram_step{k}.csv", build_diagram(family.filtration(snap))
        )
    return float(trace.records[-1].loss), elapsed


def run_experiment(spec: ExperimentSpec, out_dir) -> dict:
    """Sweep the method x (eta, gamma) grid; returns the manifest mapping.

    Writes manifest.txt (deterministic under a fixed seed) and timings.csv
    (wall times, kept out of the manifest; no cell pays a one-time import)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    X0 = gen_circle(spec.n_points, noise=spec.noise, outlier=spec.outlier, seed=spec.seed)
    family = VietorisRips(len(X0), max_dim=2)
    loss, reg = circle_loss()
    if "continuation" in spec.methods:
        # continuation matches diagrams, and a process's first match imports
        # scipy's solver (about 0.5 s): load it here, outside the timed cells
        importlib.import_module("scipy.optimize")
    results: dict[tuple, tuple[float, float]] = {}
    for m, eta, gamma in itertools.product(spec.methods, spec.etas, spec.gammas):
        cell_dir = out / m / f"eta{eta:g}_gamma{gamma:g}"
        results[(m, eta, gamma)] = _run_cell(
            spec, family, X0, loss, reg, m, eta, gamma, cell_dir
        )

    manifest: dict[str, str] = {
        "experiment": spec.name,
        "n_points": str(spec.n_points + (1 if spec.outlier else 0)),
        "steps": str(spec.steps),
        "seed": str(spec.seed),
    }
    method_time: dict[str, float] = {}
    for m in spec.methods:
        best = min(
            ((eta, gamma) for mm, eta, gamma in results if mm == m),
            key=lambda eg: results[(m, eg[0], eg[1])][0],
        )
        loss_val = results[(m, best[0], best[1])][0]
        manifest[f"best.{m}"] = f"eta={best[0]:g},gamma={best[1]:g},loss={loss_val:.17g}"
        method_time[m] = sum(
            res[1] for (mm, _, _), res in results.items() if mm == m
        )
    _write_manifest(out, manifest)
    with open(out / "timings.csv", "w") as fh:
        fh.write("method,eta,gamma,seconds\n")
        for (m, eta, gamma), (_, secs) in sorted(results.items()):
            fh.write(f"{m},{eta:g},{gamma:g},{secs:.6f}\n")
        for m, total in sorted(method_time.items()):
            fh.write(f"{m},total,total,{total:.6f}\n")
    manifest["_timings"] = {m: method_time[m] for m in spec.methods}  # type: ignore
    return manifest


def run_subsample_experiment(out_dir, n: int = 2000, s: int = 50,
                             n_sub: int = 10, sigma: float = 0.05,
                             seed: int = 0) -> dict:
    """Support comparison on a large cloud: one-subsample vanilla gradient
    versus the diffeo-interpolated field and the distributed average."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    X = gen_circle(n, outlier=False, seed=seed)
    loss, _ = circle_loss()
    family = VietorisRips(n, max_dim=2)
    g_vanilla = distributed_gradient(family, X, loss, 1, s, rng)
    g_diffeo = diffeo_interpolate(X, g_vanilla, sigma)(X)
    g_dist = distributed_gradient(family, X, loss, n_sub, s, rng)

    def support(g, tol=1e-12):
        return int((np.linalg.norm(g, axis=1) > tol).sum())

    manifest = {
        "n": str(n),
        "s": str(s),
        "support.vanilla_subsample": str(support(g_vanilla)),
        "support.diffeo": str(support(g_diffeo)),
        "support.distributed": str(support(g_dist)),
    }
    write_cloud(out / "cloud.csv", X)
    _write_manifest(out, manifest)
    return manifest


def run_sphere_experiment(out_dir, n: int = 500, s: int = 16, seed: int = 0) -> dict:
    """H2 demonstration on a noisy sphere via a small subsample (the full
    3-skeleton on 500 points is out of reach)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    X = gen_sphere(n, seed=seed)
    idx = np.sort(rng.choice(n, size=s, replace=False))
    family = VietorisRips(s, max_dim=3)
    loss = EmptyDiagramDistanceLoss(dim=2, q=2.0, sign=-1.0)
    value, g, dgm = vanilla_gradient(family, X[idx], loss)
    write_cloud(out / "cloud.csv", X)
    write_diagram(out / "diagram.csv", dgm)
    manifest = {
        "n": str(n),
        "s": str(s),
        "h2_points": str(len(dgm.ordinary(2))),
        "loss": f"{value:.17g}",
    }
    _write_manifest(out, manifest)
    return manifest
