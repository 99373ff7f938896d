"""Benchmark harness and command-line interface."""
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from topo_opt.cli import main
from topo_opt.experiments import (
    ExperimentSpec,
    circle_loss,
    gen_circle,
    gen_sphere,
    run_experiment,
    run_sphere_experiment,
    run_subsample_experiment,
)
from topo_opt.filtrations import VietorisRips
from topo_opt.reduction import PersistenceDiagram, build_diagram, write_diagram


def test_gen_circle_shape_and_determinism():
    a = gen_circle(n=30, seed=7)
    b = gen_circle(n=30, seed=7)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (31, 2)  # outlier appended
    radii = np.linalg.norm(a[:-1], axis=1)
    assert 0.7 < radii.min() and radii.max() < 1.3
    assert np.linalg.norm(a[-1]) < 0.1
    assert gen_circle(n=30, outlier=False, seed=7).shape == (30, 2)


def test_gen_sphere_on_shell():
    X = gen_sphere(n=100, noise=0.0, seed=1)
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)


def test_circle_loss_rewards_persistence():
    loss, reg = circle_loss()
    X = gen_circle(n=12, noise=0.0, outlier=False, seed=0)
    fam = VietorisRips(12, max_dim=2)
    dgm = build_diagram(fam.filtration(X), drop_zero_tol=1e-12)
    value, grads = loss.evaluate(dgm)
    assert value < 0  # a clean circle has a persistent H1 feature
    assert reg.value_and_grad(X)[0] == 0.0  # inside the confinement box


def test_manifest_deterministic(tmp_path):
    spec = ExperimentSpec(
        n_points=10, steps=3, methods=("vanilla",), etas=(0.064,),
        gammas=(1.0,), snapshot_steps=(0, 3), seed=0,
    )
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    ma = (tmp_path / "a" / "manifest.txt").read_bytes()
    mb = (tmp_path / "b" / "manifest.txt").read_bytes()
    assert ma == mb
    cell = tmp_path / "a" / "vanilla" / "eta0.064_gamma1"
    assert (cell / "trace.csv").exists()
    assert (cell / "cloud_step0.csv").exists()
    assert (cell / "diagram_step3.csv").exists()
    assert (tmp_path / "a" / "timings.csv").exists()


def test_subsample_supports(tmp_path):
    manifest = run_subsample_experiment(tmp_path, n=60, s=10, n_sub=4, seed=0)
    assert int(manifest["support.vanilla_subsample"]) <= 10
    assert int(manifest["support.diffeo"]) >= int(
        manifest["support.vanilla_subsample"]
    )
    assert int(manifest["support.distributed"]) > 10


def test_sphere_experiment_writes_its_cloud_diagram_and_manifest(tmp_path):
    manifest = run_sphere_experiment(tmp_path / "a", n=60, s=10, seed=0)
    assert sorted(manifest) == ["h2_points", "loss", "n", "s"]
    assert (manifest["n"], manifest["s"]) == ("60", "10")
    # this subsample of the sphere keeps a 2-cycle, which the loss rewards
    assert int(manifest["h2_points"]) >= 1 and float(manifest["loss"]) < 0.0
    assert (tmp_path / "a" / "cloud.csv").exists()
    assert (tmp_path / "a" / "diagram.csv").exists()
    run_sphere_experiment(tmp_path / "b", n=60, s=10, seed=0)
    assert ((tmp_path / "a" / "manifest.txt").read_bytes()
            == (tmp_path / "b" / "manifest.txt").read_bytes())


def test_cli_run_circle(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "run", "--experiment", "circle", "--method", "vanilla",
            "--steps", "2", "--lr", "0.064", "--decay", "1.0",
            "--n-points", "10", "--out", str(tmp_path / "out"),
        ],
    )
    assert res.exit_code == 0, res.output
    assert "best.vanilla" in res.output
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_cli_run_rejects_bad_arguments(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["run", "--experiment", "nope", "--out", str(tmp_path)],
    )
    assert res.exit_code == 2
    res = runner.invoke(
        main,
        ["run", "--experiment", "circle", "--steps", "0", "--out", str(tmp_path)],
    )
    assert res.exit_code == 2
    res = runner.invoke(
        main,
        ["run", "--experiment", "circle", "--method", "sgd", "--out", str(tmp_path)],
    )
    assert res.exit_code == 2
    # an option the experiment does not read is refused, a default is not
    for experiment, given in (
            ("sphere_h2", ["--n-points", "5"]), ("sphere_h2", ["--method", "vanilla"]),
            ("sphere_h2", ["--lr", "3"]), ("sphere_h2", ["--steps", "7"]),
            ("subsample", ["--method", "big_step"]), ("subsample", ["--lr", "0.5"]),
            ("subsample", ["--decay", "0.9"]), ("subsample", ["--steps", "20"])):
        res = runner.invoke(main, ["run", "--experiment", experiment, "--seed", "1", *given,
                                   "--out", str(tmp_path / "unread")])
        assert res.exit_code == 2, (experiment, given, res.output)
        assert (f"validation error: {given[0]} is not read by --experiment {experiment}"
                in res.output), res.output
        assert not (tmp_path / "unread").exists()


def test_cli_run_hands_every_option_its_experiment_reads_to_the_experiment(tmp_path, monkeypatch):
    import topo_opt.experiments as experiments
    from topo_opt.cli import READS

    calls = {}

    def recorder(experiment):
        def run(*args, **kwargs):
            calls[experiment] = args[0] if experiment == "circle" else kwargs
            return {}
        return run

    monkeypatch.setattr(experiments, "run_experiment", recorder("circle"))
    monkeypatch.setattr(experiments, "run_subsample_experiment", recorder("subsample"))
    monkeypatch.setattr(experiments, "run_sphere_experiment", recorder("sphere_h2"))
    given = {"method": "vanilla", "steps": "3", "lr": "0.125", "decay": "0.5",
             "seed": "4", "n_points": "12"}
    for experiment, names in READS.items():
        args = [a for name in names for a in ("--" + name.replace("_", "-"), given[name])]
        res = CliRunner().invoke(main, ["run", "--experiment", experiment, *args,
                                        "--out", str(tmp_path)])
        assert res.exit_code == 0, (experiment, res.output)
    spec = calls["circle"]
    assert (spec.methods, spec.steps, spec.etas, spec.gammas, spec.seed, spec.n_points) == (
        ("vanilla",), 3, (0.125,), (0.5,), 4, 12)
    assert calls["subsample"] == {"seed": 4, "n": 12}
    assert calls["sphere_h2"] == {"seed": 4}


def test_cli_check_passes():
    runner = CliRunner()
    res = runner.invoke(main, ["check"])
    assert res.exit_code == 0, res.output
    assert "FAIL" not in res.output
    assert res.output.count("PASS") >= 5


def test_cli_distance(tmp_path):
    fam = VietorisRips(6, max_dim=2)
    Xa = gen_circle(n=5, seed=1)
    Xb = gen_circle(n=5, seed=2)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagram(pa, build_diagram(fam.filtration(Xa)))
    write_diagram(pb, build_diagram(fam.filtration(Xb)))
    runner = CliRunner()
    res = runner.invoke(main, ["distance", "--a", str(pa), "--b", str(pb)])
    assert res.exit_code == 0, res.output
    assert "total:" in res.output
    res_self = runner.invoke(main, ["distance", "--a", str(pa), "--b", str(pa)])
    total = float(res_self.output.strip().splitlines()[-1].split(":")[1])
    assert total == pytest.approx(0.0, abs=1e-12)


def test_cli_distance_infinite_order_takes_maxima(tmp_path):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagram(pa, PersistenceDiagram({1: np.array([[0.0, 1.0]])}, {0: np.array([0.0])}))
    write_diagram(pb, PersistenceDiagram({1: np.array([[0.0, 1.5]])}, {0: np.array([0.25])}))
    res = CliRunner().invoke(main, ["distance", "--a", str(pa), "--b", str(pb), "--q", "inf"])
    assert res.exit_code == 0, res.output
    # dim 0: the essential gap; dim 1: the bottleneck distance 0.5
    assert res.output.splitlines() == ["dim 0: 0.25", "dim 1: 0.5", "total: 0.5"]


@pytest.mark.parametrize("q, lines", [
    ("2", ["dim 0: 0", "dim 1: 1.1180339887498949", "total: 1.1180339887498949"]),
    # the 3000-th powers of the costs, all below 1, underflow unless scaled
    ("3000", ["dim 0: 0", "dim 1: 0.75017330681555738", "total: 0.75017330681555738"]),
])
def test_cli_distance_at_finite_orders(tmp_path, q, lines):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagram(pa, PersistenceDiagram({1: np.array([[0.0, 1.0]])}, {0: np.array([0.0])}))
    write_diagram(pb, PersistenceDiagram({1: np.array([[0.5, 2.0]])}, {0: np.array([0.0])}))
    res = CliRunner().invoke(main, ["distance", "--a", str(pa), "--b", str(pb), "--q", q])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines() == lines


@pytest.mark.parametrize("q", ["0", "-1", "0.5", "nan"])
def test_cli_distance_rejects_orders_outside_one_to_inf(tmp_path, q):
    pa = tmp_path / "a.csv"
    write_diagram(pa, PersistenceDiagram({1: np.array([[0.0, 1.0]])}, {}))
    res = CliRunner().invoke(main, ["distance", "--a", str(pa), "--b", str(pa), "--q", q])
    assert res.exit_code == 2
    assert "validation error: q must lie in [1, inf]" in res.output


def test_cli_distance_missing_file(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main, ["distance", "--a", str(tmp_path / "no.csv"), "--b", str(tmp_path / "no.csv")]
    )
    assert res.exit_code == 2


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    """Every ``topo-opt ...`` line of the README's command-line block is
    accepted by the CLI's argument parser (nothing is run)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0]
    lines = [shlex.split(l, comments=True) for l in block.splitlines()]
    lines = [l for l in lines if l and l[0] == "topo-opt"]
    assert len(lines) >= 4
    monkeypatch.chdir(tmp_path)  # input files named in the examples exist here
    for args in lines:
        for a in args:
            if a.endswith(".csv"):
                (tmp_path / a).touch()
        ctx = main.make_context("topo-opt", args[1:])
        name, cmd, rest = main.resolve_command(ctx, args[1:])
        cmd.make_context(name, rest, parent=ctx)
