"""Command-line interface: topo-opt run | check | distance.

Exit codes: 0 success, 2 validation error (bad arguments or inputs),
1 runtime failure.
"""
from __future__ import annotations

import sys

import click
import numpy as np
from click.core import ParameterSource

# the options each experiment reads besides --experiment and --out
READS = {
    "circle": ("method", "steps", "lr", "decay", "seed", "n_points"),
    "subsample": ("seed", "n_points"),
    "sphere_h2": ("seed",),
}
EXPERIMENTS = tuple(READS)


@click.group()
def main():
    """Topological optimization experiments and diagram utilities."""


@main.command()
@click.option("--experiment", required=True, type=click.Choice(EXPERIMENTS))
@click.option("--method", default=None, help="restrict the circle grid to one method")
@click.option("--steps", default=20, show_default=True, type=int)
@click.option("--lr", default=None, type=float, help="single step size (skips the grid)")
@click.option("--decay", default=None, type=float, help="single decay (skips the grid)")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--n-points", default=None, type=int, help="override the cloud size")
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.pass_context
def run(ctx, experiment, method, steps, lr, decay, seed, n_points, out):
    """Run a benchmark experiment and write traces/diagrams/manifest.  An
    option the experiment does not read is refused, not ignored."""
    from .experiments import (
        ExperimentSpec,
        run_experiment,
        run_sphere_experiment,
        run_subsample_experiment,
    )
    from .optim import METHODS

    for param in ctx.command.params:
        if (param.name not in ("experiment", "out", *READS[experiment])
                and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE):
            click.echo(f"validation error: {param.opts[0]} is not read by "
                       f"--experiment {experiment}", err=True)
            sys.exit(2)
    if steps <= 0:
        raise click.UsageError("--steps must be positive")
    if method is not None and method not in METHODS:
        raise click.UsageError(f"unknown method {method!r}; choose from {METHODS}")
    try:
        if experiment == "circle":
            spec = ExperimentSpec(seed=seed, steps=steps)
            if n_points is not None:
                spec.n_points = n_points
            if method is not None:
                spec.methods = (method,)
            if lr is not None:
                spec.etas = (lr,)
            if decay is not None:
                spec.gammas = (decay,)
            manifest = run_experiment(spec, out)
        elif experiment == "subsample":
            kwargs = {"seed": seed}
            if n_points is not None:
                kwargs["n"] = n_points
            manifest = run_subsample_experiment(out, **kwargs)
        else:
            manifest = run_sphere_experiment(out, seed=seed)
    except (ValueError, FileNotFoundError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # runtime failure
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(1)
    for k, v in manifest.items():
        if not k.startswith("_"):
            click.echo(f"{k}={v}")


@main.command()
def check():
    """Run the built-in property checks (quick self-test)."""
    failures = 0

    def report(name, ok):
        nonlocal failures
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    try:
        from .complexes import Filtration, triangulated_torus
        from .filtrations import VietorisRips
        from .losses import TotalPersistenceLoss
        from .metrics import fg_distance
        from .reduction import betti_numbers, build_diagram
        from .schemes import min_norm_point, vanilla_gradient

        torus = triangulated_torus()
        b = betti_numbers(Filtration(torus, np.zeros(len(torus))))
        report("torus betti numbers (1, 2, 1)", (b[0], b[1], b[2]) == (1, 2, 1))

        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        fam = VietorisRips(4, max_dim=2)
        dgm = build_diagram(fam.filtration(square), drop_zero_tol=1e-12)
        pts = dgm.ordinary(1)
        ok = len(pts) == 1 and abs(pts[0, 0] - 0.5) < 1e-12 and abs(
            pts[0, 1] - np.sqrt(2) / 2
        ) < 1e-12
        report("unit square H1 bar (0.5, sqrt(2)/2)", ok)

        d, _ = fg_distance(np.array([[0.0, 2.0]]), np.empty((0, 2)), q=2)
        report("FG_2 to empty diagram", abs(d - np.sqrt(2)) < 1e-12)

        g = min_norm_point([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        report("min-norm point of {(1,0),(0,1)}", np.allclose(g, [0.5, 0.5]))

        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 2))
        loss = TotalPersistenceLoss(dims=(0,))
        v0, grad, _ = vanilla_gradient(fam6 := VietorisRips(6, 2), X, loss)
        h, e = 1e-6, np.zeros_like(X)
        direction = rng.normal(size=X.shape)
        direction /= np.linalg.norm(direction)
        vp = vanilla_gradient(fam6, X + h * direction, loss)[0]
        vm = vanilla_gradient(fam6, X - h * direction, loss)[0]
        fd = (vp - vm) / (2 * h)
        an = float((grad * direction).sum())
        report("composite gradient vs finite difference", abs(fd - an) < 1e-5 * max(1, abs(an)))
    except Exception as exc:
        click.echo(f"runtime error during checks: {exc}", err=True)
        sys.exit(1)
    sys.exit(0 if failures == 0 else 1)


@main.command()
@click.option("--a", "path_a", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--b", "path_b", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--q", default=2.0, show_default=True, type=float)
def distance(path_a, path_b, q):
    """Degree-q distance between two diagram files (per dim and combined);
    at q = inf, maxima replace the q-th power sums.  At large finite q the
    sums are taken as ``fg_distance`` takes its own, divided by the largest
    term when the q-th powers leave the float range."""
    from .metrics import _qnorm, check_order, fg_distance
    from .reduction import read_diagram

    try:
        check_order(q)
        da = read_diagram(path_a)
        db = read_diagram(path_b)
    except (ValueError, OSError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(2)
    try:
        total, terms = 0.0, ()
        dims = sorted(set(da.dims()) | set(db.dims()))
        for dim in dims:
            ea = np.sort(da.essential.get(dim, np.empty(0)))
            eb = np.sort(db.essential.get(dim, np.empty(0)))
            if len(ea) != len(eb):
                click.echo(f"dim {dim}: inf (essential counts differ)")
                click.echo("total: inf")
                return
            d, _ = fg_distance(da.ordinary(dim), db.ordinary(dim), q=q)
            gaps = np.abs(ea - eb)
            if np.isinf(q):
                dim_total = max(d, gaps.max(initial=0.0))
                total = max(total, dim_total)
            else:
                dim_total = _qnorm((d, gaps), q)[0]
                terms += ((d, gaps),)
            click.echo(f"dim {dim}: {dim_total:.17g}")
        click.echo(f"total: {total if np.isinf(q) else _qnorm(terms, q)[0]:.17g}")
    except Exception as exc:
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
