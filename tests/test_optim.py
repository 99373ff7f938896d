"""Descent driver: schedules, determinism, abort handling, trace IO."""
import numpy as np
import pytest

from topo_opt import triangulated_torus
from topo_opt.filtrations import LowerStar, RawValues, VietorisRips
from topo_opt.losses import DiagramLoss, TotalPersistenceLoss
from topo_opt.optim import (
    METHODS,
    BoxRegularizer,
    DescentAborted,
    DescentConfig,
    Trace,
    TraceRecord,
    descend,
    geometric_schedule,
    goldstein_check,
    harmonic_schedule,
    read_trace,
    write_trace,
)
from topo_opt.schemes import continuation_step


def circle_cloud(n=10, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    X = np.column_stack([np.cos(t), np.sin(t)])
    return X + noise * rng.normal(size=X.shape)


def test_geometric_schedule_values():
    s = geometric_schedule(0.1, 0.5)
    assert s(0) == pytest.approx(0.1)
    assert s(3) == pytest.approx(0.1 * 0.125)


def test_harmonic_schedule_square_summable_not_summable():
    s = harmonic_schedule(1.0)
    ks = np.arange(2000)
    steps = np.array([s(k) for k in ks])
    assert steps.sum() > (steps**2).sum()
    # partial sums keep growing while squared partial sums converge
    assert steps[1000:].sum() > 0.5
    assert (steps[1000:] ** 2).sum() < 1e-2


def test_unknown_method_and_schedule_rejected():
    fam = VietorisRips(n_points=3, max_dim=1)
    X = circle_cloud(3)
    with pytest.raises(ValueError):
        descend(fam, X, TotalPersistenceLoss(), DescentConfig(method="sgd"))
    with pytest.raises(ValueError):
        DescentConfig(schedule="cosine").make_schedule()


def test_descent_reduces_total_persistence():
    X = circle_cloud(8, noise=0.05, seed=3)
    fam = VietorisRips(n_points=8, max_dim=1)
    cfg = DescentConfig(method="vanilla", steps=15, lr=0.05, decay=0.95)
    theta, trace = descend(fam, X, TotalPersistenceLoss(dims=(0,)), cfg)
    losses = trace.losses()
    assert len(trace) == 16
    assert losses[-1] < losses[0]


def test_descent_deterministic_across_runs():
    X = circle_cloud(7, noise=0.1, seed=5)
    fam = VietorisRips(n_points=7, max_dim=1)
    cfg = DescentConfig(
        method="vanilla", steps=8, lr=0.05, noise_std=0.01, seed=42
    )
    loss = TotalPersistenceLoss(dims=(0,))
    t1, tr1 = descend(fam, X, loss, cfg)
    t2, tr2 = descend(fam, X, loss, cfg)
    np.testing.assert_array_equal(t1, t2)
    assert tr1 == tr2


def test_trace_equality_ignores_wall_time():
    a = TraceRecord(0, 1.0, 2.0, 10.0)
    b = TraceRecord(0, 1.0, 2.0, 99.0)
    assert a == b
    assert Trace([a]) == Trace([b])


def test_quadratic_surrogate_exact_iterates():
    """On f(x) = 1/2 sum x_i^2 (total persistence of bars (0, x_i) under a
    raw-values filtration) vanilla descent is exactly x_{k+1} = (1-2 lr_k) x_k:
    lr_k = 0.1 under the geometric schedule with decay 1, and 0.1/(k+1) under
    the harmonic one."""
    from topo_opt import build_complex

    cx = build_complex([(0, 1)])
    fam = RawValues(cx)
    theta0 = np.array([0.0, 0.0, 0.8])  # one bar (0, 0.8) in H0
    loss = TotalPersistenceLoss(dims=(0,))
    cfg = DescentConfig(method="vanilla", steps=5, lr=0.1, decay=1.0)
    theta, trace = descend(fam, theta0, loss, cfg)
    expected_bar = 0.8
    for k in range(6):
        assert trace.records[k].loss == pytest.approx(0.5 * expected_bar**2)
        expected_bar *= 1.0 - 2 * 0.1  # grad acts on both endpoints
    assert theta[2] - theta[1] == pytest.approx(0.8 * (1 - 0.2) ** 5)

    cfg = DescentConfig(method="vanilla", steps=5, lr=0.1, schedule="harmonic")
    theta, trace = descend(fam, theta0, loss, cfg)
    expected_bar = 0.8
    for k in range(6):
        assert trace.records[k].loss == pytest.approx(0.5 * expected_bar**2)
        expected_bar *= 1.0 - 2 * 0.1 / (k + 1)
    assert theta[2] - theta[1] == pytest.approx(0.8 * 0.8 * 0.9 * (1 - 0.2 / 3) * 0.95 * 0.96)


def test_snapshots_recorded_at_requested_steps():
    X = circle_cloud(6, seed=2)
    fam = VietorisRips(n_points=6, max_dim=1)
    cfg = DescentConfig(
        method="vanilla", steps=5, lr=0.02, snapshot_steps=(0, 1, 5)
    )
    _, trace = descend(fam, X, TotalPersistenceLoss(dims=(0,)), cfg)
    assert set(trace.snapshots) == {0, 1, 5}
    np.testing.assert_array_equal(trace.snapshots[0], X)


def test_descent_aborted_carries_partial_trace():
    class ExplodingLoss(DiagramLoss):
        dims = (0,)

        def __init__(self):
            self.calls = 0

        def evaluate(self, dgm):
            self.calls += 1
            pts = dgm.ordinary(0)
            if self.calls > 2:
                return float("nan"), {0: np.zeros_like(pts)}
            return 0.0, {0: np.zeros_like(pts)}

    X = circle_cloud(5)
    fam = VietorisRips(n_points=5, max_dim=1)
    cfg = DescentConfig(method="vanilla", steps=10, lr=0.01)
    with pytest.raises(DescentAborted) as exc:
        descend(fam, X, ExplodingLoss(), cfg)
    assert len(exc.value.trace) >= 1
    assert not np.isfinite(exc.value.trace.records[-1].loss)


def test_descent_aborted_on_non_finite_gradient():
    class NanGradientLoss(DiagramLoss):
        dims = (0,)

        def evaluate(self, dgm):
            return 0.0, {0: np.full_like(dgm.ordinary(0), np.nan)}

    X = circle_cloud(5)
    fam = VietorisRips(n_points=5, max_dim=1)
    cfg = DescentConfig(method="vanilla", steps=3, lr=0.01)
    with pytest.raises(DescentAborted) as exc:
        descend(fam, X, NanGradientLoss(), cfg)
    assert len(exc.value.trace) == 1
    assert not np.isfinite(exc.value.trace.records[-1].grad_norm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_descend_rejects_non_finite_theta0(bad):
    X = circle_cloud(5)
    X[2, 1] = bad
    fam = VietorisRips(n_points=5, max_dim=1)
    with pytest.raises(ValueError, match="theta0"):
        descend(fam, X, TotalPersistenceLoss(dims=(0,)), DescentConfig(steps=2))


def test_descend_rejects_a_negative_step_count():
    X = circle_cloud(5)
    fam = VietorisRips(n_points=5, max_dim=1)
    loss = TotalPersistenceLoss(dims=(0,))
    with pytest.raises(ValueError, match="steps"):
        descend(fam, X, loss, DescentConfig(steps=-1))
    # zero steps still records the start point
    _, trace = descend(fam, X, loss, DescentConfig(steps=0))
    assert len(trace) == 1


def test_diffeo_descent_on_vertex_values_names_the_shape():
    """Kernel interpolation moves points; a lower-star family's 1-D vertex
    values are not a point cloud, and the step says so."""
    fam = LowerStar(triangulated_torus())
    theta = np.random.default_rng(0).uniform(size=9)
    cfg = DescentConfig(method="diffeo", steps=2, lr=0.01)
    with pytest.raises(ValueError, match=r"shape \(9,\)"):
        descend(fam, theta, TotalPersistenceLoss(dims=(0, 1)), cfg)


def test_descent_aborted_when_an_update_overflows_theta():
    class SteepLoss(DiagramLoss):
        dims = (0,)

        def evaluate(self, dgm):
            pts = dgm.ordinary(0)
            return 0.0, {0: np.tile([0.0, 1e150], (len(pts), 1))}

    X = circle_cloud(5)
    fam = VietorisRips(n_points=5, max_dim=1)
    cfg = DescentConfig(method="vanilla", steps=3, lr=1e160)
    with np.errstate(over="ignore"), pytest.raises(DescentAborted) as exc:
        descend(fam, X, SteepLoss(), cfg)
    assert "parameters" in str(exc.value)
    (record,) = exc.value.trace.records
    assert np.isfinite(record.loss) and np.isfinite(record.grad_norm)


@pytest.mark.parametrize("method", METHODS)
def test_every_method_descends_deterministically(method):
    X = circle_cloud(6, noise=0.1, seed=1)
    fam = VietorisRips(n_points=6, max_dim=1)
    cfg = DescentConfig(
        method=method, steps=2, lr=0.05, seed=3, n_sub=2, subsample_size=4,
        continuation_targets={0: np.array([[0.0, 0.2], [0.0, 0.4]])},
    )
    loss = TotalPersistenceLoss(dims=(0,))
    theta1, trace1 = descend(fam, X, loss, cfg)
    theta2, trace2 = descend(fam, X, loss, cfg)
    assert len(trace1) == 3
    assert np.isfinite(theta1).all()
    assert all(np.isfinite([r.loss, r.grad_norm]).all() for r in trace1.records)
    assert trace1 == trace2
    np.testing.assert_array_equal(theta1, theta2)


def test_goldstein_check_flags_flat_loss():
    class ZeroLoss(DiagramLoss):
        dims = (0,)

        def evaluate(self, dgm):
            pts = dgm.ordinary(0)
            return 0.0, {0: np.zeros_like(pts)}

    X = circle_cloud(5, seed=1)
    fam = VietorisRips(n_points=5, max_dim=1)
    stationary, nrm = goldstein_check(fam, X, ZeroLoss(), eps=0.01, m=3)
    assert stationary
    assert nrm <= 1e-6
    active, nrm2 = goldstein_check(
        fam, X, TotalPersistenceLoss(dims=(0,)), eps=0.01, m=3
    )
    assert not active
    assert nrm2 > 1e-6


def test_box_regularizer_confines_points():
    reg = BoxRegularizer(bound=1.0)
    v, g = reg.value_and_grad(np.array([[0.5, -2.0]]))
    assert v == pytest.approx(1.0)
    np.testing.assert_allclose(g, [[0.0, -2.0]])
    X = circle_cloud(6, seed=4) * 3.0
    fam = VietorisRips(n_points=6, max_dim=1)
    cfg = DescentConfig(method="vanilla", steps=10, lr=0.05)
    theta, _ = descend(
        fam, X, TotalPersistenceLoss(dims=(0,)), cfg, regularizer=BoxRegularizer(2.0)
    )
    assert np.abs(theta).max() < np.abs(X).max()


def test_continuation_step_with_a_regularizer_moves_by_both():
    """Continuation replaces theta by its update J^+ v; a regularizer's
    gradient, taken at theta, is subtracted from that update at the step
    size, and its value and gradient join the recorded loss and norm."""
    X = circle_cloud(6, noise=0.1, seed=1) * 2.5
    fam = VietorisRips(n_points=6, max_dim=1)
    targets = {0: np.array([[0.0, 0.2], [0.0, 0.4]])}
    reg = BoxRegularizer(2.0)
    loss = TotalPersistenceLoss(dims=(0,))
    cfg = DescentConfig(method="continuation", steps=1, lr=0.05, continuation_targets=targets)
    theta, trace = descend(fam, X, loss, cfg, regularizer=reg)
    rv, rg = reg.value_and_grad(X)
    assert rv > 0 and np.abs(rg).max() > 0
    moved, dgm = continuation_step(fam, X, targets, gamma=0.05)
    np.testing.assert_allclose(theta, moved - 0.05 * rg, rtol=0, atol=1e-15)
    first = trace.records[0]
    assert first.loss == pytest.approx(loss.evaluate(dgm)[0] + rv)
    assert first.grad_norm == pytest.approx(np.linalg.norm((X - moved) / 0.05 + rg))


def test_continuation_method_requires_targets():
    X = circle_cloud(5)
    fam = VietorisRips(n_points=5, max_dim=1)
    cfg = DescentConfig(method="continuation", steps=2)
    with pytest.raises(ValueError):
        descend(fam, X, TotalPersistenceLoss(dims=(0,)), cfg)


def test_trace_io_roundtrip(tmp_path):
    X = circle_cloud(6, seed=7)
    fam = VietorisRips(n_points=6, max_dim=1)
    cfg = DescentConfig(method="vanilla", steps=4, lr=0.03)
    _, trace = descend(fam, X, TotalPersistenceLoss(dims=(0,)), cfg)
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    trace2 = read_trace(path)
    assert trace2 == trace  # loss/grad columns exact, wall time ignored


@pytest.mark.parametrize("method", ["stratified", "stratified_const"])
def test_stratified_step_takes_one_vanilla_gradient_per_sampled_point(method, monkeypatch):
    # theta is the first sampled point, so its vanilla gradient also gives
    # the step's loss value: no extra evaluation at theta.  Each gradient
    # evaluation is one build_diagram call.
    import topo_opt.schemes

    vanilla, sample = topo_opt.schemes.vanilla_gradient, topo_opt.schemes.sample_strata
    diagram = topo_opt.schemes.build_diagram
    calls, points = [], []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return diagram(*args, **kwargs)

    def sampled(*args):
        samples = sample(*args)
        points.append(len(samples))
        return samples

    monkeypatch.setattr(topo_opt.schemes, "build_diagram", counted)
    monkeypatch.setattr(topo_opt.schemes, "sample_strata", sampled)
    X = circle_cloud(8, noise=0.05, seed=3)
    fam, loss = VietorisRips(n_points=8, max_dim=1), TotalPersistenceLoss(dims=(0,))
    cfg = DescentConfig(method=method, steps=2, lr=0.05, snapshot_steps=(0, 1, 2))
    _, trace = descend(fam, X, loss, cfg)
    assert len(trace) == 3 and len(calls) == sum(points) > 3
    for r in trace.records:
        assert r.loss == vanilla(fam, trace.snapshots[r.step], loss)[0]
