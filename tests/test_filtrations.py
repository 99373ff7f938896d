"""Filtration families: values, witnesses, gradients, and the cloud format."""
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topo_opt import build_complex, triangulated_torus
from topo_opt.complexes import (
    Filtration,
    _free_ties,
    boundary,
    is_face,
    total_order,
)
from topo_opt.experiments import gen_circle
from topo_opt.filtrations import (
    ConstantWeights,
    DTMWeights,
    FunctionWeights,
    HeightFiltration,
    LowerStar,
    RawValues,
    VietorisRips,
    WeightedRips,
    move_values,
    read_cloud,
    strata_signature,
    write_cloud,
)
from topo_opt.losses import DistanceToTargetLoss, TotalPersistenceLoss
from topo_opt.metrics import bottleneck_distance
from topo_opt.reduction import build_diagram
from topo_opt.schemes import vanilla_gradient


def fd_simplex_value(family, X, simplex, h=1e-6):
    """Central finite differences of a single simplex value."""
    X = np.asarray(X, dtype=float)
    g = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        Xp, Xm = X.copy(), X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        fp = family.filtration(Xp).value(simplex)
        fm = family.filtration(Xm).value(simplex)
        g[idx] = (fp - fm) / (2 * h)
    return g


def sparse_to_dense(grad, X):
    g = np.zeros_like(np.asarray(X, dtype=float))
    for i, v in grad.items():
        g[i] = v
    return g


# -- Vietoris-Rips ----------------------------------------------------------


def test_vr_two_points():
    X = np.array([[0.0, 0.0], [5.0, 0.0]])
    fam = VietorisRips(2, 1)
    f = fam.filtration(X)
    assert f.value((0, 1)) == pytest.approx(2.5)
    assert f.value((0,)) == 0.0


def test_vr_unit_square_values():
    X = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    fam = VietorisRips(4, 2)
    f = fam.filtration(X)
    assert f.value((0, 1)) == pytest.approx(0.5)
    assert f.value((0, 2)) == pytest.approx(np.sqrt(2) / 2)
    assert f.value((0, 1, 2)) == pytest.approx(np.sqrt(2) / 2)


def test_vr_duplicated_point_monotone():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    fam = VietorisRips(3, 2)
    f = fam.filtration(X)
    assert f.value((0, 1)) == 0.0
    Filtration(f.complex, f.values)  # monotonicity revalidated


def test_vr_gradient_closed_form():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    fam = VietorisRips(2, 1)
    g = sparse_to_dense(fam.simplex_gradient(X, (0, 1)), X)
    np.testing.assert_allclose(g[0], [-0.3, -0.4])
    np.testing.assert_allclose(g[1], [0.3, 0.4])


def test_vr_gradient_matches_fd(rng):
    fam = VietorisRips(5, 2)
    for _ in range(10):
        X = rng.normal(size=(5, 2))
        f = fam.filtration(X)
        for s in [(0, 1), (2, 4), (0, 1, 2), (1, 3, 4)]:
            g = sparse_to_dense(fam.simplex_gradient(X, s), X)
            np.testing.assert_allclose(g, fd_simplex_value(fam, X, s), atol=1e-5)


def test_vr_triangle_gradient_equals_diameter_edge(rng):
    X = rng.normal(size=(4, 2))
    fam = VietorisRips(4, 2)
    tri = (0, 1, 2)
    dists = {(i, j): np.linalg.norm(X[i] - X[j]) for i, j in itertools.combinations(tri, 2)}
    diam_edge = max(dists, key=dists.get)
    g_tri = fam.simplex_gradient(X, tri)
    g_edge = fam.simplex_gradient(X, diam_edge)
    assert g_tri.keys() == g_edge.keys()
    for k in g_tri:
        np.testing.assert_allclose(g_tri[k], g_edge[k])


def test_vr_isometry_invariance(rng):
    X = rng.normal(size=(6, 2))
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    fam = VietorisRips(6, 2)
    np.testing.assert_allclose(
        fam.filtration(X).values, fam.filtration(X @ R.T + 3.0).values, atol=1e-12
    )


def _clouds(n):
    """n planar points in [-1, 1]^2, rounded to one decimal half of the time
    so that exact distance ties occur."""
    coords = st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)

    def cloud(coords, rounded):
        X = np.reshape(coords, (n, 2))
        return np.round(X, 1) if rounded else X

    return st.builds(cloud, coords, st.booleans())


def _vr_points(X):
    """Per dimension, the positive-persistence ordinary points (row-sorted)
    and the essential births (sorted) of the VR diagram of X."""
    dgm = build_diagram(VietorisRips(len(X), 2).filtration(X))
    out = {}
    for dim in dgm.dims():
        pts = dgm.ordinary(dim)
        pts = pts[pts[:, 1] > pts[:, 0]]
        out[dim] = (pts[np.lexsort((pts[:, 1], pts[:, 0]))],
                    np.sort(dgm.essential.get(dim, np.empty(0))))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 8).flatmap(
    lambda n: st.tuples(_clouds(n), st.permutations(range(n)))))
def test_vr_diagram_invariant_under_point_permutation(case):
    X, perm = case
    a, b = _vr_points(X), _vr_points(X[list(perm)])
    assert a.keys() == b.keys()
    for dim in a:
        for u, v in zip(a[dim], b[dim]):
            assert u.shape == v.shape and u.tobytes() == v.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 8).flatmap(lambda n: st.tuples(_clouds(n), _clouds(n))))
def test_vr_bottleneck_at_most_largest_displacement(case):
    X, Y = case
    fam = VietorisRips(len(X), 2)
    dx, dy = build_diagram(fam.filtration(X)), build_diagram(fam.filtration(Y))
    bound = np.linalg.norm(X - Y, axis=1).max() + 1e-12
    for dim in (0, 1):
        d, _ = bottleneck_distance(dx.ordinary(dim), dy.ordinary(dim))
        assert d <= bound


# -- weighted Rips ----------------------------------------------------------


def test_weighted_rips_zero_weights_doubles_vr():
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    fam = WeightedRips(2, 1, ConstantWeights(np.zeros(2)))
    f = fam.filtration(X)
    assert f.value((0, 1)) == pytest.approx(1.0)  # = ||x_i - x_j||


def test_weighted_rips_edge_cases():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    fam = WeightedRips(2, 1, ConstantWeights(np.ones(2)))
    assert fam.filtration(X).value((0, 1)) == pytest.approx(4.0)
    X2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    fam2 = WeightedRips(2, 1, ConstantWeights(np.array([10.0, 0.0])))
    assert fam2.filtration(X2).value((0, 1)) == pytest.approx(20.0)


def test_weighted_rips_gradient_matches_fd(rng):
    for _ in range(5):
        X = rng.normal(size=(5, 2)) * 2.0
        w = rng.uniform(0.1, 0.5, size=5)
        fam = WeightedRips(5, 2, ConstantWeights(w))
        for s in [(0, 1), (1, 4), (0, 2, 3)]:
            g = sparse_to_dense(fam.simplex_gradient(X, s), X)
            np.testing.assert_allclose(
                g, fd_simplex_value(fam, X, s), atol=1e-5
            )


def test_subsamples_share_one_complex_per_size(rng):
    X = rng.normal(size=(9, 2))
    for fam in (VietorisRips(9, 2), WeightedRips(9, 2, ConstantWeights(rng.uniform(size=9))),
                WeightedRips(9, 2, DTMWeights(2))):
        a, b, c = fam.subsample([0, 2, 5]), fam.subsample([1, 3, 8]), fam.subsample([4, 6])
        assert type(a) is type(fam) and a.max_dim == fam.max_dim
        assert a.complex is b.complex and len(c.complex) == 3
        fresh = VietorisRips(3, 2).complex
        assert a.complex.simplices == fresh.simplices
        idx = [1, 3, 8]
        if isinstance(fam, WeightedRips):
            w = fam.weights
            if isinstance(w, ConstantWeights):
                w = ConstantWeights(w.w[idx])
            want = WeightedRips(3, 2, w).filtration(X[idx]).values
        else:
            want = VietorisRips(3, 2).filtration(X[idx]).values
        np.testing.assert_array_equal(b.filtration(X[idx]).values, want)


def test_dtm_weights_brute_force(rng):
    X = rng.normal(size=(6, 2))
    k = 2
    w = DTMWeights(k).values(X)
    for i in range(6):
        d = np.sort(np.linalg.norm(X - X[i], axis=1))
        np.testing.assert_allclose(w[i], d[1 : k + 1].mean())


def test_weighted_rips_reads_its_weights_once_per_cloud(rng):
    calls = []

    class CountedDTM(DTMWeights):
        def values(self, X):
            calls.append(len(X))
            return super().values(X)

    X = gen_circle(20, outlier=True, seed=0)
    family = WeightedRips(len(X), 2, CountedDTM(3))
    _, grad, dgm = vanilla_gradient(family, X, TotalPersistenceLoss(dims=(0, 1)))
    assert len(calls) == 1 and sum(map(len, dgm.pairs.values())) > 1
    fresh = WeightedRips(len(X), 2, DTMWeights(3))
    _, want, _ = vanilla_gradient(fresh, X, TotalPersistenceLoss(dims=(0, 1)))
    np.testing.assert_array_equal(grad, want)
    # another cloud, or other weights, are read afresh
    Y = X + rng.normal(scale=0.01, size=X.shape)
    np.testing.assert_array_equal(family.filtration(Y).values, fresh.filtration(Y).values)
    assert len(calls) == 2
    family.weights = ConstantWeights(np.ones(len(X)))
    np.testing.assert_array_equal(
        family.filtration(Y).values,
        WeightedRips(len(X), 2, ConstantWeights(np.ones(len(X)))).filtration(Y).values)
    assert len(calls) == 2


def test_dtm_rejects_large_k():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        WeightedRips(3, 1, DTMWeights(3)).filtration(X)


@pytest.mark.parametrize("n", [3, 6])
def test_vietoris_rips_rejects_a_cloud_of_another_size(rng, n):
    with pytest.raises(ValueError, match=rf"needs 4 points, got an array of shape \({n}, 2\)"):
        VietorisRips(4, 2).filtration(rng.normal(size=(n, 2)))


@pytest.mark.parametrize("n", [3, 6])
def test_weighted_rips_rejects_a_cloud_of_another_size(rng, n):
    family = WeightedRips(4, 2, ConstantWeights(np.zeros(n)))
    with pytest.raises(ValueError, match=rf"needs 4 points, got an array of shape \({n}, 2\)"):
        family.filtration(rng.normal(size=(n, 2)))


@pytest.mark.parametrize("weights", [
    ConstantWeights(np.zeros(3)), ConstantWeights(np.zeros(6)),
    FunctionWeights(lambda X: np.zeros(len(X) + 1), lambda X, i: {})])
def test_weighted_rips_rejects_weights_of_another_size(rng, weights):
    family, X = WeightedRips(4, 2, weights), rng.normal(size=(4, 2))
    shape = rf"\({len(weights.values(X))},\)"
    with pytest.raises(ValueError, match=rf"WeightedRips on 4 points needs 4 weights,"
                                         rf" got weights.values\(X\) of shape {shape}"):
        family.filtration(X)
    with pytest.raises(ValueError, match="needs 4 weights"):
        family.simplex_gradient(X, (0, 1))


@pytest.mark.parametrize("family", [
    VietorisRips(4, 2), WeightedRips(4, 2, ConstantWeights([0.0, 0.5, 0.0, 1.0]))])
def test_rips_simplex_without_a_witness_raises(rng, family):
    X = rng.normal(size=(4, 2))
    X[0, 1] = np.nan
    name = type(family).__name__
    with pytest.raises(ValueError, match=rf"{name}: simplex \(0, 1\) has no witness pair"):
        family.simplex_gradient(X, (0, 1))
    # a NaN never wins, so a simplex with one pair not through point 0 has a witness
    assert set(family.simplex_gradient(X, (0, 1, 2))) >= {1, 2}


def test_weighted_rips_edge_where_a_vertex_term_wins_follows_that_weight():
    """With weight f(x) = ||x||^2, the edge {0, 1} below enters at
    2 f(x_1) = 24.5, above ||x_0 - x_1|| + f(x_0) + f(x_1) = 21.75: its
    gradient is twice the weight gradient of point 1, 4 x_1."""
    weights = FunctionWeights(lambda X: (X * X).sum(axis=1), lambda X, i: {i: 2 * X[i]})
    X = np.array([[3.0, 0.0], [3.5, 0.0], [0.0, 1.0]])
    family = WeightedRips(3, 2, weights)
    assert family.filtration(X).value((0, 1)) == 24.5
    for s in ((0, 1), (0, 1, 2)):
        g = family.simplex_gradient(X, s)
        assert list(g) == [1]
        np.testing.assert_allclose(g[1], 4 * X[1])
        np.testing.assert_allclose(fd_simplex_value(family, X, s), [[0, 0], 4 * X[1], [0, 0]],
                                   atol=1e-6)


@pytest.mark.parametrize("n", [3, 6])
def test_lower_star_rejects_values_of_another_size(n):
    family = LowerStar(build_complex([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(ValueError, match=rf"needs 4 vertex values, got an array of shape \({n},\)"):
        family.filtration(np.arange(n, dtype=float))


@pytest.mark.parametrize("k", [0, -1])
def test_dtm_rejects_fewer_than_one_neighbor(k):
    with pytest.raises(ValueError, match=rf"DTMWeights needs k >= 1 neighbors, got k={k}"):
        DTMWeights(k)


def test_dtm_weighted_rips_gradient_matches_fd(rng):
    for _ in range(5):
        X = rng.normal(size=(5, 2)) * 2.0
        fam = WeightedRips(5, 1, DTMWeights(2))
        for s in [(0, 1), (2, 4)]:
            g = sparse_to_dense(fam.simplex_gradient(X, s), X)
            np.testing.assert_allclose(
                g, fd_simplex_value(fam, X, s), atol=1e-4
            )


def test_function_weighted_rips_loss_gradient_matches_fd(rng):
    """The chain rule through a user weight function (here f(x) = |x|^2 / 10
    + x_0 / 20), checked as acceptance 05 checks DTM weights: directional
    finite differences of the loss at points whose total order is constant
    across the stencil."""
    weights = FunctionWeights(
        lambda X: 0.1 * (X * X).sum(axis=1) + 0.05 * X[:, 0],
        lambda X, i: {i: 0.2 * X[i] + np.array([0.05, 0.0])})
    fam = WeightedRips(5, 2, weights)
    h = 1e-6
    for loss in (TotalPersistenceLoss(dims=(0, 1)),
                 DistanceToTargetLoss(0, [[0.1, 0.6], [0.3, 1.2]])):
        accepted = attempts = 0
        while accepted < 30 and attempts < 300:
            attempts += 1
            theta = rng.normal(size=(5, 2))
            u = rng.normal(size=theta.shape)
            u /= np.linalg.norm(u)
            sp = strata_signature(fam, theta + h * u)
            sm = strata_signature(fam, theta - h * u)
            if sp.order != sm.order or sp.tied or sm.tied:
                continue
            fd = (vanilla_gradient(fam, theta + h * u, loss)[0]
                  - vanilla_gradient(fam, theta - h * u, loss)[0]) / (2 * h)
            an = float((vanilla_gradient(fam, theta, loss)[1] * u).sum())
            assert abs(fd - an) <= 1e-4 * max(1.0, abs(an))
            accepted += 1
        assert accepted == 30


# -- lower star / height / raw values ---------------------------------------


def test_lower_star_path():
    cx = build_complex([[0, 1], [1, 2]])
    fam = LowerStar(cx)
    f = fam.filtration(np.array([0.0, 2.0, 1.0]))
    assert f.value((0, 1)) == 2.0
    assert f.value((1, 2)) == 2.0


def test_lower_star_gradient_is_witness_indicator():
    cx = build_complex([[0, 1]])
    fam = LowerStar(cx)
    g = fam.simplex_gradient(np.array([0.0, 2.0]), (0, 1))
    assert g == {1: 1.0}
    # tie -> smallest vertex id wins
    g_tie = fam.simplex_gradient(np.array([2.0, 2.0]), (0, 1))
    assert g_tie == {0: 1.0}


def lower_star_families():
    """A lower-star family and its height twin on one complex: heights
    along theta = (1, 0) are the positions' first coordinates."""
    cx = build_complex([[0, 1, 2], [1, 2, 3]])
    return LowerStar(cx), HeightFiltration(cx, np.zeros((4, 2)))


def height_witness(height, f, simplex):
    height.positions[:, 0] = f
    return height.witness(np.array([1.0, 0.0]), simplex)


@pytest.mark.parametrize("f,simplex,want", [
    ([1.0, np.nan, 0.5, 0.2], (0, 1), 0),  # a NaN never wins
    ([np.nan, 1.0, 0.5, 0.2], (0, 1, 2), 1),
    ([0.5, 0.2, np.nan, 0.5], (1, 2, 3), 3),
    ([-0.0, 0.0, 0.0, -0.0], (0, 1), 0),  # signed zeros tie: the first wins
    ([0.0, -0.0, 1.0, 1.0], (0, 1), 0),
    ([1.0, 2.0, 2.0, 2.0], (1, 2, 3), 1),  # ties: the smallest vertex id
    ([-np.inf, -np.inf, 0.0, 0.0], (0, 1), 0),
    ([np.nan, -np.inf, 0.0, 0.0], (0, 1), 1),
    ([0.0, np.inf, np.inf, 0.0], (0, 1, 2), 1),
])
def test_lower_star_witness_is_the_first_largest_non_nan_vertex(f, simplex, want):
    lower, height = lower_star_families()
    assert lower.witness(np.array(f), simplex) == want
    assert lower.simplex_gradient(np.array(f), simplex) == {want: 1.0}
    assert height_witness(height, f, simplex) == want


def test_lower_star_simplex_of_nan_vertices_has_no_witness():
    lower, height = lower_star_families()
    f = [np.nan, np.nan, 0.5, 0.2]
    with pytest.raises(ValueError, match=r"LowerStar: simplex \(0, 1\) has no witness vertex"):
        lower.witness(np.array(f), (0, 1))
    with pytest.raises(ValueError,
                       match=r"HeightFiltration: simplex \(0, 1\) has no witness vertex"):
        height_witness(height, f, (0, 1))
    assert lower.witness(np.array(f), (0, 1, 2)) == 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, -np.inf, np.inf]),
                min_size=4, max_size=4))
def test_lower_star_gradients_on_non_nan_values_are_max_then_min(f):
    """On values without NaN the witness is the smallest vertex id among
    the maximizers, and the height family agrees: with heights along
    theta = (1, 0) and vertex v at height f[v] and ordinate v, the gradient
    (I - theta theta^T) x_w at a finite witness is (0, w)."""
    lower, height = lower_star_families()
    f = np.array(f)
    height.positions[:] = np.column_stack([f, np.arange(4.0)])
    for s in lower.complex.simplices:
        best = max(f[v] for v in s)
        want = min(v for v in s if f[v] == best)
        assert lower.simplex_gradient(f, s) == {want: 1.0}
        assert height.witness(np.array([1.0, 0.0]), s) == want
        if np.isfinite(best):
            assert height.simplex_gradient(np.array([1.0, 0.0]), s) == {0: 0.0, 1: want}


def lower_star_by_loop(cx, f):
    """Per simplex, max() over the values of its vertices, or the first
    NaN among them."""
    vindex = {s[0]: i for i, s in enumerate(cx.skeleton(0))}
    out = []
    for s in cx.simplices:
        xs = [f[vindex[v]] for v in s]
        nans = [x for x in xs if x != x]
        out.append(nans[0] if nans else max(xs))
    return np.array(out)


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=4), min_size=1, max_size=8),
       st.data())
def test_lower_star_values_match_the_loop_bit_for_bit(sims, data):
    cx = build_complex(sims)
    n = cx.n_vertices()
    # few distinct values, signed zeros among them: ties are the hard case
    values = st.sampled_from([-0.0, 0.0, 1.0, -2.5]) | finite
    f = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    got = LowerStar(cx).filtration(f).values
    assert got.tobytes() == lower_star_by_loop(cx, f).tobytes()


def test_lower_star_and_height_match_the_loop_on_the_torus(rng):
    cx = triangulated_torus()
    for f in (rng.normal(size=9), rng.integers(-1, 2, 9) * 0.0, rng.integers(0, 3, 9) * 1.0):
        assert LowerStar(cx).filtration(f).values.tobytes() == lower_star_by_loop(cx, f).tobytes()
    pos = rng.normal(size=(9, 2))
    pos[0] = 0.0  # height -0.0 under a direction with negative entries
    theta = np.array([-0.6, -0.8])
    got = HeightFiltration(cx, pos).filtration(theta).values
    assert got.tobytes() == lower_star_by_loop(cx, pos @ theta).tobytes()


def test_height_filtration_triangle():
    cx = build_complex([[0, 1, 2]])
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    fam = HeightFiltration(cx, pts)
    f = fam.filtration(np.array([0.0, 1.0]))
    assert f.value((0,)) == 0.0
    assert f.value((1,)) == 0.0
    assert f.value((2,)) == 1.0
    assert f.value((0, 1, 2)) == 1.0


def test_height_gradient_tangent_projection(rng):
    cx = build_complex([[0, 1, 2]])
    pts = rng.normal(size=(3, 2))
    fam = HeightFiltration(cx, pts)
    theta = rng.normal(size=2)
    theta /= np.linalg.norm(theta)
    g = sparse_to_dense(fam.simplex_gradient(theta, (0, 1, 2)), theta)
    w = int(np.argmax(pts @ theta))
    np.testing.assert_allclose(g, (np.eye(2) - np.outer(theta, theta)) @ pts[w])


def test_height_normalizes_with_warning():
    cx = build_complex([[0]])
    fam = HeightFiltration(cx, np.array([[1.0, 0.0]]))
    with pytest.warns(UserWarning):
        f = fam.filtration(np.array([2.0, 0.0]))
    assert f.value((0,)) == pytest.approx(1.0)


@pytest.mark.parametrize("theta", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]])
def test_height_rejects_direction_without_unit_vector(theta):
    cx = build_complex([[0, 1], [1, 2], [2, 3]])
    fam = HeightFiltration(cx, np.arange(8.0).reshape(4, 2))
    with pytest.raises(ValueError, match="height direction"):
        fam.filtration(np.array(theta))
    with pytest.raises(ValueError, match="height direction"):
        fam.simplex_gradient(np.array(theta), (0, 1))


def test_height_rejects_a_direction_of_another_dimension():
    fam = HeightFiltration(build_complex([[0, 1], [1, 2], [2, 3]]), np.arange(8.0).reshape(4, 2))
    match = r"HeightFiltration on 2-D positions needs a direction of 2 coordinates, got theta of shape \(3,\)"
    with pytest.raises(ValueError, match=match):
        fam.filtration(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=match):
        fam.simplex_gradient(np.array([1.0, 0.0, 0.0]), (0, 1))


def test_height_rejects_positions_of_another_count():
    with pytest.raises(ValueError, match=r"HeightFiltration on 4 vertices needs 4 positions,"
                                         r" got positions of shape \(3, 2\)"):
        HeightFiltration(build_complex([[0, 1], [1, 2], [2, 3]]), np.zeros((3, 2)))


def test_raw_values_identity(rng):
    cx = build_complex([[0, 1, 2]])
    fam = RawValues(cx)
    base = fam.filtration(np.zeros(len(cx))).values
    theta = np.sort(rng.uniform(size=len(cx)))  # sorted by (dim, lex) order is monotone here
    f = fam.filtration(theta)
    assert np.all(f.values == theta) or np.all(f.values == base + theta)


def test_move_values_clamps_faces_and_cofaces():
    cx = build_complex([[0, 1, 2]])
    vals = np.array([max(s) for s in cx.simplices], dtype=float)
    f = Filtration(cx, vals)
    # push the triangle below its faces: faces must come down with it
    new = move_values(cx, f.values, {(0, 1, 2): 0.5})
    f2 = Filtration(cx, new)
    assert f2.value((0, 1, 2)) == 0.5
    for face in boundary((0, 1, 2)):
        assert f2.value(face) <= 0.5
    # push a vertex above its cofaces: cofaces must come up
    new2 = move_values(cx, f.values, {(0,): 9.0})
    f3 = Filtration(cx, new2)
    assert f3.value((0,)) == 9.0
    assert f3.value((0, 1)) >= 9.0


def test_strata_signature_detects_tie():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    fam = VietorisRips(4, 2)
    sig = strata_signature(fam, square)
    assert sig.tied  # the two diagonals have exactly equal length
    generic = square + np.random.default_rng(1).normal(scale=0.01, size=square.shape)
    assert not strata_signature(fam, generic).tied


def test_strata_signature_locally_constant(rng):
    X = rng.normal(size=(5, 2))
    fam = VietorisRips(5, 2)
    sig = strata_signature(fam, X)
    assert strata_signature(fam, X + 1e-9 * rng.normal(size=X.shape)) == sig


def _tied_by_definition(family, X) -> bool:
    """Some two simplices share a value, neither is a face of the other, and
    their simplex gradients differ."""
    filt = family.filtration(X)
    simplices = filt.complex.simplices
    grads = {}

    def grad(s):
        if s not in grads:
            grads[s] = family.simplex_gradient(X, s)
        return grads[s]

    for (a, sa), (b, sb) in itertools.combinations(enumerate(simplices), 2):
        if filt.values[a] != filt.values[b] or is_face(sa, sb) or is_face(sb, sa):
            continue
        ga, gb = grad(sa), grad(sb)
        if ga.keys() != gb.keys() or not all(
                np.array_equal(ga[k], gb[k]) or np.allclose(ga[k], gb[k]) for k in ga):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 7).flatmap(
    lambda n: st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)),
    st.booleans(), st.booleans())
def test_strata_signature_tied_matches_all_pairs_definition(coords, rounded, dtm):
    # one decimal makes distances (and DTM weights) tie exactly
    X = np.reshape(coords, (-1, 2))
    if rounded:
        X = np.round(X, 1)
    n = len(X)
    fam = WeightedRips(n, 2, DTMWeights(2)) if dtm else VietorisRips(n, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert strata_signature(fam, X).tied == _tied_by_definition(fam, X)


def test_cloud_io_roundtrip(tmp_path, rng):
    X = rng.normal(size=(7, 3))
    path = tmp_path / "cloud.csv"
    write_cloud(path, X)
    np.testing.assert_allclose(read_cloud(path), X)
    header = open(path).readline().strip()
    assert header == "x0,x1,x2"


# -- integer order keys -------------------------------------------------------


def clique_by_loop(cx, M, vertex_values):
    """Per simplex, np.maximum folded over M at its vertex pairs from -inf,
    or the vertex value: the float values of a Rips-type filtration."""
    return np.array([
        vertex_values[s[0]] if len(s) == 1 else functools.reduce(
            np.maximum, (M[i, j] for i, j in itertools.combinations(s, 2)), -np.inf)
        for s in cx.simplices])


def assert_keys_match_the_values(f):
    """The family's ranks order the simplices as a stable float argsort of
    the values does, and tie exactly where the values tie."""
    assert f.rank is not None and f.rank.dtype in (np.uint16, np.uint32)
    plain = Filtration(f.complex, f.values, check=False)
    order = f.order
    assert np.array_equal(order, np.argsort(f.values, kind="stable"))
    assert np.array_equal(order, plain.order)
    r, v = f.rank[order], f.values[order]
    assert (r[1:] >= r[:-1]).all()
    nan = np.isnan(v)
    assert np.array_equal(r[1:] == r[:-1], (v[1:] == v[:-1]) | (nan[1:] & nan[:-1]))
    assert list(_free_ties(f)) == list(_free_ties(plain))
    a, b = total_order(f), total_order(plain)
    assert a == b and a.tied == b.tied


def _tied_clouds(n):
    # one decimal: many distances tie; now and then a NaN coordinate
    coord = st.floats(-1.0, 1.0).map(lambda x: round(x, 1)) | st.just(np.nan)
    return st.lists(coord, min_size=2 * n, max_size=2 * n).map(
        lambda c: np.reshape(c, (-1, 2)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(_tied_clouds), st.sampled_from([1, 2, 3]))
def test_vr_ranks_order_like_the_values_and_give_their_bytes(X, max_dim):
    n = len(X)
    with np.errstate(invalid="ignore"):
        f = VietorisRips(n, max_dim).filtration(X)
        diff = X[:, None, :] - X[None, :, :]
        want = clique_by_loop(f.complex, np.sqrt((diff * diff).sum(axis=-1)) / 2.0,
                              np.zeros(n))
    assert f.values.tobytes() == want.tobytes()
    assert_keys_match_the_values(f)


signed = st.sampled_from([-0.0, 0.0, 0.5, -1.5, np.nan]) | finite


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    _tied_clouds(n), st.lists(signed, min_size=n, max_size=n))))
def test_weighted_rips_ranks_order_like_the_values_and_keep_signed_zeros(case):
    X, w = case
    w = np.array(w)
    f = WeightedRips(len(X), 2, ConstantWeights(w)).filtration(X)
    # the docstring's edge value max(2 w_i, 2 w_j, ||x_i - x_j|| + w_i + w_j),
    # entry by entry, its max folded left to right
    M = np.empty((len(X), len(X)))
    with np.errstate(invalid="ignore"):
        for i, j in itertools.product(range(len(X)), repeat=2):
            d = X[i] - X[j]
            M[i, j] = functools.reduce(
                np.maximum, [2 * w[i], 2 * w[j], np.sqrt((d * d).sum()) + w[i] + w[j]])
    assert f.values.tobytes() == clique_by_loop(f.complex, M, 2 * w).tobytes()
    assert_keys_match_the_values(f)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=4), min_size=1, max_size=8),
       st.data())
def test_lower_star_ranks_order_like_the_values(sims, data):
    cx = build_complex(sims)
    n = cx.n_vertices()
    f = np.array(data.draw(st.lists(signed, min_size=n, max_size=n)))
    filt = LowerStar(cx).filtration(f)
    assert filt.values.tobytes() == lower_star_by_loop(cx, f).tobytes()
    assert_keys_match_the_values(filt)


def test_vr_ranks_widen_to_32_bits_above_65536_distinct_values():
    # 363 points: 65,703 edges, each at its own distance, plus the vertices at 0
    X = np.random.default_rng(0).normal(size=(363, 2))
    f = VietorisRips(363, 1).filtration(X)
    assert f.rank.dtype == np.uint32 and len(np.unique(f.values)) > 1 << 16
    diff = X[:, None, :] - X[None, :, :]
    M = np.sqrt((diff * diff).sum(axis=-1)) / 2.0
    assert f.values.tobytes() == np.concatenate([np.zeros(363), M[np.triu_indices(363, 1)]]).tobytes()
    assert_keys_match_the_values(f)


def test_raw_values_carry_no_rank():
    cx = triangulated_torus()
    f = RawValues(cx).filtration(LowerStar(cx).filtration(np.arange(9.0)).values)
    assert f.rank is None
    assert np.array_equal(f.order, np.argsort(f.values, kind="stable"))
