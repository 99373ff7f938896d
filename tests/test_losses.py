"""Diagram losses: closed-form values, gradients vs finite differences,
and the chain rule through filtration families."""
import warnings

import numpy as np
import pytest

from topo_opt.filtrations import VietorisRips
from topo_opt.losses import (
    DistanceToTargetLoss,
    EmptyDiagramDistanceLoss,
    LinearVectorizationLoss,
    SimplificationLoss,
    SingletonLoss,
    TotalPersistenceLoss,
    compose_gradient,
    distance_to_target,
    linear_vectorization,
    matched_partners,
    singleton_loss,
    total_persistence,
)
from topo_opt.metrics import fg_distance
from topo_opt.reduction import build_diagram
from topo_opt.schemes import big_step_gradient, vanilla_gradient


def fd_loss_grad(fn, points, h=1e-6):
    """Central finite differences of a (value, grad, ...) loss in the points."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    out = np.zeros_like(pts)
    for i in range(pts.shape[0]):
        for j in range(2):
            up, dn = pts.copy(), pts.copy()
            up[i, j] += h
            dn[i, j] -= h
            out[i, j] = (fn(up)[0] - fn(dn)[0]) / (2 * h)
    return out


def test_total_persistence_single_point():
    value, grad = total_persistence([(0.0, 2.0)])
    assert value == pytest.approx(2.0)
    np.testing.assert_allclose(grad, [[-2.0, 2.0]])


def test_total_persistence_fd(rng):
    pts = rng.uniform(0, 1, size=(5, 2))
    pts[:, 1] += pts[:, 0] + 0.1
    for p in (1.5, 2.0, 3.0):
        _, grad = total_persistence(pts, exponent=p)
        fd = fd_loss_grad(lambda x: total_persistence(x, exponent=p), pts)
        np.testing.assert_allclose(grad, fd, atol=1e-6)


def test_total_persistence_death_only():
    _, grad = total_persistence([(0.0, 2.0)], death_only=True)
    np.testing.assert_allclose(grad, [[0.0, 2.0]])


def test_simplification_selects_small_bars():
    pts = [(0.0, 0.05), (0.0, 1.0)]
    loss = SimplificationLoss(dims=(0,), eta=0.1)
    value, grads = loss.evaluate(FakeDiagram({0: np.asarray(pts)}))
    assert value == pytest.approx(0.05)
    np.testing.assert_allclose(grads[0], [[-1.0, 1.0], [0.0, 0.0]])


class FakeDiagram:
    """Minimal stand-in exposing just the ordinary() accessor."""

    def __init__(self, points):
        self.points = {k: np.asarray(v, dtype=float) for k, v in points.items()}

    def ordinary(self, dim):
        return self.points.get(dim, np.empty((0, 2)))


def test_distance_to_target_empty_target():
    value, grad, matching = distance_to_target([(0.0, 2.0)], np.empty((0, 2)))
    assert value == pytest.approx(1.0)
    np.testing.assert_allclose(grad, [[-1.0, 1.0]])
    assert matching.pairs == [(0, -1)]


def test_distance_to_target_fd(rng):
    tgt = np.array([[0.2, 0.9], [0.5, 1.4]])
    pts = rng.uniform(0, 1, size=(4, 2))
    pts[:, 1] += pts[:, 0] + 0.2
    _, grad, _ = distance_to_target(pts, tgt)
    fd = fd_loss_grad(lambda x: distance_to_target(x, tgt), pts)
    np.testing.assert_allclose(grad, fd, atol=1e-5)


def test_singleton_pinned_example():
    value, grad = singleton_loss([(1.0, 3.0)], 0, (1.0, 5.0))
    assert value == pytest.approx(2.0)
    np.testing.assert_allclose(grad, [[0.0, -1.0]])


def test_singleton_zero_at_target():
    value, grad = singleton_loss([(1.0, 3.0)], 0, (1.0, 3.0))
    assert value == 0.0
    np.testing.assert_allclose(grad, 0.0)


def test_linear_vectorization_unit_bump():
    grid = np.array([[0.0, 1.0], [5.0, 5.0]])
    feats, jac = linear_vectorization([(0.0, 1.0)], grid, bandwidth=0.3)
    assert feats[0] == pytest.approx(1.0)
    assert feats[1] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(jac[0, 0], [0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("bandwidth", [0.0, -0.5, float("nan"), float("inf")])
def test_linear_vectorization_rejects_a_bandwidth_that_is_not_finite_and_positive(bandwidth):
    # a zero bandwidth would give an all-NaN gradient
    grid = np.array([[0.0, 1.0]])
    match = r"linear vectorization needs a finite bandwidth > 0, got "
    with pytest.raises(ValueError, match=match):
        linear_vectorization([(0.0, 1.0)], grid, bandwidth)
    with pytest.raises(ValueError, match=match):
        LinearVectorizationLoss(0, grid, bandwidth, [1.0])


def test_linear_vectorization_fd(rng):
    grid = rng.uniform(0, 2, size=(3, 2))
    pts = rng.uniform(0, 2, size=(2, 2))
    w = rng.uniform(-1, 1, size=3)
    loss = LinearVectorizationLoss(0, grid, 0.5, w)
    dgm = FakeDiagram({0: pts})
    _, grads = loss.evaluate(dgm)

    def value(x):
        f, _ = linear_vectorization(x, grid, 0.5)
        return (float(w @ f),)

    np.testing.assert_allclose(grads[0], fd_loss_grad(value, pts), atol=1e-6)


def test_empty_diagram_distance_fd(rng):
    pts = rng.uniform(0, 1, size=(3, 2))
    pts[:, 1] += pts[:, 0] + 0.3
    loss = EmptyDiagramDistanceLoss(dim=1, q=2.0, sign=-1.0)
    _, grads = loss.evaluate(FakeDiagram({1: pts}))

    def value(x):
        v, _ = loss.evaluate(FakeDiagram({1: x}))
        return (v,)

    np.testing.assert_allclose(grads[1], fd_loss_grad(value, pts), atol=1e-6)
    # negative sign rewards persistence: gradients push deaths upward
    assert np.all(grads[1][:, 1] < 0)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_empty_diagram_distance_of_infinite_order(rng, sign):
    loss = EmptyDiagramDistanceLoss(dim=1, q=np.inf, sign=sign)
    for pts in ([[0.0, 3.0], [0.0, 1.0]], [[0.0, 0.5], [0.0, 0.2]],
                rng.uniform(0, 1, size=(4, 2)) + [[0.0, 1.0]]):
        pts = np.asarray(pts, dtype=float)
        value, grads = loss.evaluate(FakeDiagram({1: pts}))
        assert value == pytest.approx(sign * fg_distance(pts, np.empty((0, 2)),
                                                         q=np.inf)[0], abs=1e-12)

        def fd_value(x):
            return (loss.evaluate(FakeDiagram({1: x}))[0],)

        np.testing.assert_allclose(grads[1], fd_loss_grad(fd_value, pts), atol=1e-6)
    value, grads = loss.evaluate(FakeDiagram({1: np.array([[0.0, 3.0], [0.0, 1.0]])}))
    assert value == sign * 1.5
    np.testing.assert_array_equal(grads[1], [[-sign / 2, sign / 2], [0.0, 0.0]])


def test_empty_diagram_distance_at_large_finite_orders():
    # at q = 3000 the unscaled q-th powers underflow to a zero loss and zero
    # partials; divided by the largest diagonal distance they do not
    pts = np.array([[0.0, 0.5], [0.1, 0.4]])
    for q in (50.0, 500.0, 3000.0):
        loss = EmptyDiagramDistanceLoss(dim=1, q=q, sign=-1.0)
        value, grads = loss.evaluate(FakeDiagram({1: pts}))
        assert value == pytest.approx(-fg_distance(pts, np.empty((0, 2)), q=q)[0], rel=1e-12)
        if q == 50.0:
            def fd_value(x):
                return (loss.evaluate(FakeDiagram({1: x}))[0],)

            np.testing.assert_allclose(grads[1], fd_loss_grad(fd_value, pts), atol=1e-6)
    assert value == pytest.approx(-0.2500577689385191, rel=1e-12)
    np.testing.assert_allclose(grads[1][0], [0.5, -0.5], rtol=1e-3)
    np.testing.assert_array_equal(grads[1][1], [0.0, -0.0])


def test_compose_gradient_chain_rule(rng):
    """d/d theta of loss(diagram(theta)) via witnesses matches central FD."""
    X = rng.normal(size=(6, 2))
    fam = VietorisRips(n_points=X.shape[0], max_dim=2)
    losses = [
        TotalPersistenceLoss(dims=(0,)),
        TotalPersistenceLoss(dims=(1,), sign=-1.0),
        DistanceToTargetLoss(1, [[0.3, 0.8]]),
    ]

    def scalar(loss, cloud):
        dgm = build_diagram(fam.filtration(cloud), drop_zero_tol=1e-12)
        return loss.evaluate(dgm)[0]

    for loss in losses:
        dgm = build_diagram(fam.filtration(X), drop_zero_tol=1e-12)
        _, grads = loss.evaluate(dgm)
        lifted = compose_gradient(fam, X, dgm, grads)
        h = 1e-6
        for i in range(X.shape[0]):
            for j in range(2):
                up, dn = X.copy(), X.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (scalar(loss, up) - scalar(loss, dn)) / (2 * h)
                assert lifted[i, j] == pytest.approx(fd, abs=1e-4)


def test_singleton_terms_carry_witnesses(rng):
    X = rng.normal(size=(7, 2))
    fam = VietorisRips(n_points=X.shape[0], max_dim=2)
    dgm = build_diagram(fam.filtration(X), drop_zero_tol=1e-12)
    loss = TotalPersistenceLoss(dims=(0,))
    terms = loss.terms(dgm)
    assert terms
    for t in terms:
        pts = dgm.ordinary(t.dim)
        # the witnesses evaluate back to the diagram coordinates
        f = fam.filtration(X)
        assert f.value(t.birth_simplex) == pytest.approx(pts[t.row, 0])
        assert f.value(t.death_simplex) == pytest.approx(pts[t.row, 1])
        # default target is one gradient step from the current point
        np.testing.assert_allclose(t.target, pts[t.row] - t.partials)


def test_zero_persistence_points_pruned(rng):
    """With the pruning tolerance set, repeated points on the diagonal do
    not contribute to loss values or gradients."""
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    fam = VietorisRips(n_points=3, max_dim=1)
    dgm = build_diagram(fam.filtration(X), drop_zero_tol=1e-12)
    pts = dgm.ordinary(0)
    assert np.all(pts[:, 1] - pts[:, 0] > 1e-12)


def test_matched_partners_row_aligned(rng):
    pts = np.sort(rng.uniform(0, 1, (6, 2)), axis=1)
    target = np.array([[0.1, 0.9], [0.3, 0.5]])
    dist, partners, matching = matched_partners(pts, target)
    assert partners.shape == pts.shape
    matched = dict(matching.matched())
    assert 0 < len(matched) < len(pts)
    for i, (b, d) in enumerate(pts):
        if i in matched:
            np.testing.assert_array_equal(partners[i], target[matched[i]])
        else:
            np.testing.assert_array_equal(partners[i], [0.5 * (b + d)] * 2)
    value, grad, _ = distance_to_target(pts, target)
    assert value == 0.5 * dist**2
    np.testing.assert_array_equal(grad, pts - partners)


@pytest.mark.parametrize("loss", [
    DistanceToTargetLoss(1, [[0.1, 0.9]]),
    DistanceToTargetLoss(0, [[0.0, 0.3], [0.0, 0.05]]),
    SingletonLoss(0, 1, [0.0, 0.5]),
    SingletonLoss(1, 0, [0.2, 1.5]),
], ids=["target_h1", "target_h0", "singleton_h0", "singleton_h1"])
def test_singleton_terms_are_the_diagram_rows_and_evaluate_gradients(loss):
    """Each term's simplices are its row of ``dgm.pairs``, and its partials
    are that row of the gradient ``evaluate`` returns; big-step runs on
    those terms."""
    X = np.array([[1.0, 0.0], [0.0, 1.05], [-1.1, 0.0], [0.0, -0.95], [0.7, 0.7], [1.5, 1.4]])
    fam = VietorisRips(n_points=len(X), max_dim=2)
    dgm = build_diagram(fam.filtration(X), drop_zero_tol=1e-12)
    dim = loss.dims[0]
    _, grads = loss.evaluate(dgm)
    terms = loss.terms(dgm)
    assert terms
    for t in terms:
        assert t.dim == dim
        assert (t.birth_simplex, t.death_simplex) == dgm.pairs[dim][t.row]
        np.testing.assert_array_equal(t.partials, grads[dim][t.row])
    rows = [t.row for t in terms]
    nonzero = np.flatnonzero(np.abs(grads[dim]).sum(axis=1))
    assert set(nonzero) <= set(rows) and len(rows) == len(set(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a target may be clipped at a face value
        value, g, _ = big_step_gradient(fam, X, loss, push_scale=0.1)
    assert value == vanilla_gradient(fam, X, loss)[0]
    assert g.shape == X.shape and np.isfinite(g).all() and np.abs(g).max() > 0
