"""Gradient schemes: min-norm point, strata sampling, moving sets,
big-step and continuation updates, kernel interpolation."""
import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topo_opt.complexes
import topo_opt.filtrations
import topo_opt.schemes
from topo_opt import complete_complex
from topo_opt.complexes import Filtration
from topo_opt.experiments import circle_loss, gen_circle
from topo_opt.filtrations import RawValues, VietorisRips
from topo_opt.losses import DiagramLoss, DistanceToTargetLoss, TotalPersistenceLoss
from topo_opt.optim import goldstein_check
from topo_opt.reduction import (
    ReducedDecomposition,
    betti_numbers,
    build_diagram,
    persistence_pairs,
    reduce,
)
from topo_opt.schemes import (
    StratifiedConfig,
    _clip_target,
    big_step_gradient,
    continuation_step,
    diffeo_interpolate,
    distributed_gradient,
    min_norm_point,
    moving_set,
    moving_set_fast,
    moving_set_naive,
    sample_strata,
    stratified_gradient,
    vanilla_gradient,
)
from topo_opt.filtrations import strata_signature
from conftest import random_filtration


# ---------------------------------------------------------------------------
# min-norm point


def test_min_norm_opposite_vectors():
    x = min_norm_point([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-9)


def test_min_norm_orthogonal_vectors():
    x = min_norm_point([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-9)


def test_min_norm_single_vector():
    x = min_norm_point([np.array([0.3, -0.4])])
    np.testing.assert_allclose(x, [0.3, -0.4])


def test_min_norm_empty_raises():
    with pytest.raises(ValueError):
        min_norm_point([])


def test_min_norm_wolfe_certificate(rng):
    """<x*, p_i - x*> >= -tol for every input vector certifies optimality."""
    for _ in range(50):
        P = rng.normal(size=(int(rng.integers(1, 8)), 4))
        x = min_norm_point(list(P))
        assert np.all(P @ x - x @ x >= -1e-6)
        # never longer than the shortest input vector
        assert np.linalg.norm(x) <= np.linalg.norm(P, axis=1).min() + 1e-9


# ---------------------------------------------------------------------------
# strata sampling and stratified descent


def test_sample_strata_distinct_signatures(rng):
    X = rng.normal(size=(5, 2))
    fam = VietorisRips(n_points=5, max_dim=1)
    pts = sample_strata(fam, X, eps=0.5, m=6, rng=rng)
    np.testing.assert_array_equal(pts[0], X)
    sigs = {strata_signature(fam, p) for p in pts}
    assert len(sigs) == len(pts)
    for p in pts:
        assert np.linalg.norm(p - X) <= 0.5 + 1e-12


@pytest.mark.parametrize("eps", [0.0, -0.5, float("nan"), float("inf")])
def test_sample_strata_rejects_a_radius_it_cannot_use(rng, eps):
    # a NaN radius would return an all-NaN cloud, a negative one the
    # mirrored ball, and an infinite one fail later in the SVD of the
    # min-norm point
    X = rng.normal(size=(5, 2))
    fam = VietorisRips(n_points=5, max_dim=1)
    with pytest.raises(ValueError, match=r"sample_strata needs a radius 0 < eps < inf, got eps="):
        sample_strata(fam, X, eps=eps, m=3, rng=rng)
    with pytest.raises(ValueError, match="eps="):
        goldstein_check(fam, X, TotalPersistenceLoss(dims=(0,)), eps=eps, m=3)


@pytest.mark.parametrize("m", [-1, 2.0, 1.5, "3"])
def test_sample_strata_rejects_a_count_it_cannot_use(rng, m):
    X = rng.normal(size=(5, 2))
    fam = VietorisRips(n_points=5, max_dim=1)
    with pytest.raises(ValueError, match=r"sample_strata needs an integer count m >= 0, got m="):
        sample_strata(fam, X, eps=0.5, m=m, rng=rng)
    with pytest.raises(ValueError, match="m="):
        goldstein_check(fam, X, TotalPersistenceLoss(dims=(0,)), eps=0.5, m=m)


def test_sample_strata_with_no_count_returns_theta_alone(rng):
    X = rng.normal(size=(5, 2))
    pts = sample_strata(VietorisRips(n_points=5, max_dim=1), X, eps=0.5, m=np.int64(0), rng=rng)
    assert len(pts) == 1
    np.testing.assert_array_equal(pts[0], X)


def test_strata_are_told_apart_without_classifying_ties(rng, monkeypatch):
    """Sampling strata compares the filtrations' orders only: nothing on
    the way classifies a tie or walks for one."""
    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return refused

    for module in (topo_opt.filtrations, topo_opt.schemes):
        monkeypatch.setattr(module, "strata_signature", refuse("strata_signature"),
                            raising=False)
    for module in (topo_opt.complexes, topo_opt.schemes):
        monkeypatch.setattr(module, "total_order", refuse("total_order"), raising=False)
    X = np.round(rng.normal(size=(6, 2)), 1)
    fam = VietorisRips(n_points=6, max_dim=1)
    loss = TotalPersistenceLoss(dims=(0,))
    assert len(sample_strata(fam, X, eps=0.5, m=4, rng=rng)) > 1
    stratified_gradient(fam, X, loss, StratifiedConfig(m=3))
    goldstein_check(fam, X, loss, eps=0.5, m=3)


@pytest.mark.parametrize("gap", [0.0, 0.1])
def test_strata_sampling_on_raw_values_rejects_non_monotone_draws(gap):
    """Raw values close to a face/coface tie leave the filtration space for
    much of the eps-ball (all of it at gap 0, lower-star values); such draws
    are rejected, not raised, and only monotone points come back."""
    cx = complete_complex(6, 2)
    fam = RawValues(cx)
    heights = np.array([0.0, 0.4, 0.2, 0.9, 0.6, 0.3])
    theta = np.array([heights[list(s)].max() + gap * (len(s) - 1) for s in cx.simplices])
    loss = TotalPersistenceLoss(dims=(0,))
    sizes = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = sample_strata(fam, theta, eps=0.3, m=4, rng=rng)
        sizes.append(len(pts))
        for p in pts:
            fam.filtration(p)  # every accepted point is monotone
        stratified_gradient(fam, theta, loss, StratifiedConfig(eps=0.3, m=4), rng)
        goldstein_check(fam, theta, loss, eps=0.3, m=4, rng=rng)
    assert max(sizes) <= 5
    if gap > 0:
        assert max(sizes) > 1


def test_stratified_gradient_decreases_loss(rng):
    X = rng.normal(size=(6, 2))
    fam = VietorisRips(n_points=6, max_dim=1)
    loss = TotalPersistenceLoss(dims=(0,))
    cfg = StratifiedConfig(eps=1e-2, m=3, seed=1)
    g, alpha = stratified_gradient(fam, X, loss, cfg)
    v0 = vanilla_gradient(fam, X, loss)[0]
    if alpha > 0:
        v1 = vanilla_gradient(fam, X - alpha * g, loss)[0]
        assert v1 < v0


def test_stratified_gradient_rejects_non_finite_gradient():
    class NanGradientLoss(DiagramLoss):
        dims = (0,)

        def evaluate(self, dgm):
            return 0.0, {0: np.full_like(dgm.ordinary(0), np.nan)}

    X = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 1.2], [-0.8, 0.6], [0.2, -0.9]])
    fam = VietorisRips(n_points=5, max_dim=1)
    with pytest.raises(ValueError, match="non-finite"):
        stratified_gradient(fam, X, NanGradientLoss(), StratifiedConfig(m=2))


@pytest.mark.parametrize("name,value", [
    ("eps", 0.0), ("eps", -1e-2), ("beta", 0.0), ("beta", 1.0), ("beta", 1.5),
    ("C", 0.0), ("C", -1.0), ("shrink", 0.0), ("shrink", 1.0), ("eta", 0.0),
    ("eps", float("nan")), ("eps", float("inf")), ("m", -1), ("m", 2.5),
])
def test_stratified_config_rejects_out_of_range(name, value):
    # beta = 1 would make the eps-shrink bound zero (a false stationarity)
    # and shrink = 1 would never shrink eps (an endless loop)
    with pytest.raises(ValueError, match=rf"StratifiedConfig\.{name} "):
        StratifiedConfig(**{name: value})


# ---------------------------------------------------------------------------
# moving sets


def finite_positions(dec):
    return [q for q in range(len(dec.simplices)) if dec.partner(q) is not None]


def test_moving_set_essential_raises(rng):
    f = random_filtration(rng)
    dec = reduce(f)
    essential = [
        q for q in range(len(dec.simplices)) if dec.partner(q) is None
    ]
    tau = dec.simplices[essential[0]]
    with pytest.raises(ValueError):
        moving_set_fast(dec, tau, dec.values[essential[0]] + 1.0)
    with pytest.raises(ValueError):
        moving_set_naive(dec, tau, dec.values[essential[0]] + 1.0)


def test_moving_set_clips_at_coface_with_warning():
    # filled triangle: pushing an edge above the triangle value must clip
    from topo_opt import build_complex

    cx = build_complex([(0, 1, 2)])
    vals = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    order = {s: v for s, v in zip(cx.simplices, vals)}
    f = Filtration(cx, vals)
    dec = reduce(f)
    edge = next(s for s in cx.simplices if len(s) == 2)
    with pytest.warns(UserWarning, match="clipped at coface"):
        X = moving_set_fast(dec, edge, 100.0)
    assert edge in X
    # and pulling the triangle below its latest edge clips at that edge
    with pytest.warns(UserWarning, match="clipped at face value 3.0"):
        assert moving_set_naive(dec, (0, 1, 2), -100.0) == {(0, 1, 2)}


@pytest.mark.parametrize("moving_set_variant", [moving_set_naive, moving_set_fast])
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_moving_set_rejects_a_non_finite_target(moving_set_variant, t):
    X = gen_circle(8)
    dec = reduce(VietorisRips(len(X), 2).filtration(X))
    tau = next(s for q, s in enumerate(dec.simplices)
               if len(s) == 2 and dec.partner(q) is not None)
    with pytest.raises(ValueError, match=f"target t={t} "):
        moving_set_variant(dec, tau, t)


def test_moving_set_members_same_dimension(rng):
    for _ in range(20):
        f = random_filtration(rng, n_vertices=5)
        dec = reduce(f)
        for q in finite_positions(dec):
            tau = dec.simplices[q]
            t = float(dec.values[q] + 0.5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                X = moving_set_fast(dec, tau, t)
            assert tau in X
            assert all(len(s) == len(tau) for s in X)


def test_moving_set_fast_matches_naive(rng):
    checked = 0
    for _ in range(40):
        f = random_filtration(rng, n_vertices=6)
        dec = reduce(f)
        for q in finite_positions(dec):
            tau = dec.simplices[q]
            for t in (float(dec.values[q] - 1.5), float(dec.values[q] + 1.5)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fast = moving_set_fast(dec, tau, t)
                    naive = moving_set_naive(dec, tau, t)
                assert fast == naive
                checked += 1
    assert checked > 100


def test_moving_set_variant_dispatch(rng):
    f = random_filtration(rng, n_vertices=4)
    dec = reduce(f)
    q = finite_positions(dec)[0]
    tau = dec.simplices[q]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert moving_set(dec, tau, 0.0, "fast") == moving_set(
            dec, tau, 0.0, "naive"
        )
    with pytest.raises(ValueError):
        moving_set(dec, tau, 0.0, "bogus")


def oracle_moving_set(dec, tau, t):
    """The moving-set walk with every crossing decided from scratch: the
    permuted order is re-paired by ``persistence_pairs``, and a candidate
    joins when tau loses its partner.  Reads only the decomposition's order
    and values."""
    cx = dec.complex
    tau = tuple(tau)
    p = len(tau) - 1
    seq = [s for s in dec.simplices if len(s) == p + 1]

    def partner_of_tau(order_p):
        # the pairing depends only on the order within each dimension, so
        # sort by dimension first; the values are the ranks of that order
        rank = {s: k for k, s in enumerate(order_p)}
        key = lambda s: (len(s), rank.get(s, dec.position(s)))
        vals = np.empty(len(cx))
        for r, s in enumerate(sorted(dec.simplices, key=key)):
            vals[cx.index[s]] = r
        pairing = persistence_pairs(Filtration(cx, vals))
        for b, d in pairing.pairs.get(p - 1, []) + pairing.pairs.get(p, []):
            if tau in (b, d):
                return d if b == tau else b
        return None

    sigma = partner_of_tau(seq)
    if sigma is None:
        raise ValueError("essential")
    v0 = float(dec.values[dec.position(tau)])
    t = _clip_target(dec, tau, t)
    up = t > v0
    lo = hi = seq.index(tau)
    X = {tau}
    while True:
        q = hi + 1 if up else lo - 1
        if not 0 <= q < len(seq):
            break
        s = seq[q]
        v = float(dec.values[dec.position(s)])
        if not (v0 < v < t if up else t < v < v0):
            break
        block = seq[lo:hi + 1]
        crossed = (seq[:lo] + [s] + block + seq[q + 1:] if up
                   else seq[:q] + block + [s] + seq[hi + 1:])
        if partner_of_tau(crossed) == sigma:
            seq = crossed
            lo, hi = (lo + 1, hi + 1) if up else (lo - 1, hi - 1)
        else:
            X.add(s)
            lo, hi = (lo, hi + 1) if up else (lo - 1, hi)
    return X


def check_against_oracle(dec, rng):
    """Query every finite simplex once up and once down; returns the cases
    (death?, up?) whose set has more than one member."""
    grown = set()
    for q in finite_positions(dec):
        tau = dec.simplices[q]
        for sign in (1.0, -1.0):
            t = float(dec.values[q] + sign * rng.uniform(0.05, 1.5))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = moving_set_naive(dec, tau, t)
                want = oracle_moving_set(dec, tau, t)
            assert got == want, (tau, t)
            if len(got) > 1:
                grown.add((dec.is_death(q), sign > 0))
    return grown


def seeded(f):
    """The decomposition big-step reads: seeded from the pairing of
    ``persistence_pairs``, its columns of D reduced on demand."""
    return ReducedDecomposition._from_pairing(f, persistence_pairs(f))


# both forms of the decomposition: reduced eagerly, and seeded from a pairing
DECOMPOSITIONS = (reduce, seeded)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 7))
def test_moving_set_naive_matches_repairing_oracle(seed, n_vertices):
    f = random_filtration(np.random.default_rng(seed), n_vertices=n_vertices)
    for decompose in DECOMPOSITIONS:
        check_against_oracle(decompose(f), np.random.default_rng(seed))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 8))
def test_moving_set_naive_matches_repairing_oracle_on_tied_clouds(seed, n_points):
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(0.0, 1.0, size=(n_points, 2)), 1)
    filt = VietorisRips(n_points=n_points, max_dim=2).filtration(X)
    for decompose in DECOMPOSITIONS:
        check_against_oracle(decompose(filt), np.random.default_rng(seed))


def test_oracle_comparison_sees_every_case_grow():
    """The oracle tests are not vacuous: on both decompositions, sets with
    more than one member occur for births and deaths pushed both ways."""
    for decompose in DECOMPOSITIONS:
        rng = np.random.default_rng(5)
        grown = set()
        for _ in range(10):
            grown |= check_against_oracle(decompose(random_filtration(rng)), rng)
        assert grown == {(d, u) for d in (False, True) for u in (False, True)}, decompose


def assert_seeded_queries_match_the_full_reduction(f):
    """The seeded decomposition answers partner and is_death like ``reduce``
    without reducing a column; after a naive moving set of every finite
    simplex, pushed both ways, each column it filled is a death column and
    equals the eager R there."""
    eager, dec = reduce(f), seeded(f)
    n = len(dec.order)
    assert dec.order.tobytes() == eager.order.tobytes()
    assert dec.pivot == eager.pivot
    for q in range(n):
        assert dec.partner(q) == eager.partner(q), q
        assert dec.is_death(q) == eager.is_death(q) == bool(eager.R[q]), q
    assert dec.R == [None] * n
    for q in finite_positions(dec):
        for t in (float(dec.values[q] - 0.5), float(dec.values[q] + 0.5)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                moving_set_naive(dec, dec.simplices[q], t)
    for q, col in enumerate(dec.R):
        if col is not None:
            assert dec.is_death(q) and col == eager.R[q], q


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7), st.booleans())
def test_seeded_decomposition_answers_like_the_full_reduction(seed, n_vertices, zero):
    f = random_filtration(np.random.default_rng(seed), n_vertices=n_vertices)
    if zero:
        f = Filtration(f.complex, np.zeros(len(f.complex)))
    assert_seeded_queries_match_the_full_reduction(f)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)))
def test_seeded_decomposition_answers_like_the_full_reduction_on_tied_vr(coords):
    X = np.round(np.reshape(coords, (-1, 2)), 1)
    assert_seeded_queries_match_the_full_reduction(VietorisRips(len(X), 2).filtration(X))


def query_every_finite_simplex(dec):
    """Naive and fast moving sets of every finite simplex, pushed up and down."""
    for q in finite_positions(dec):
        for t in (float(dec.values[q] - 1.0), float(dec.values[q] + 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                moving_set_naive(dec, dec.simplices[q], t)
                moving_set_fast(dec, dec.simplices[q], t)


def test_moving_set_caches_keep_no_cycle(rng):
    """A decomposition whose paired matrices and bases are built is freed by
    reference counting alone: neither matrix refers back to it."""
    dec = reduce(random_filtration(rng))
    gc.disable()
    try:
        query_every_finite_simplex(dec)
        for mat in (dec.D, dec.anti_D):
            assert "basis" in vars(mat)
        assert any(col is not None for col in dec.anti_D.columns)
        ref = weakref.ref(dec)
        del dec
        assert ref() is None
    finally:
        gc.enable()


def test_moving_set_queries_leave_the_decomposition_unchanged(rng):
    # D's reduced columns are R's own list, so a query that wrote a reduced
    # column there would change R; a seeded decomposition may only fill in
    # the columns it left None, with the values of the full reduction
    for _ in range(10):
        f = random_filtration(rng, n_vertices=6)
        eager = reduce(f)
        for decompose in DECOMPOSITIONS:
            dec = decompose(f)
            R = list(dec.R)
            pivot, simplices, values = dict(dec.pivot), list(dec.simplices), dec.values.copy()
            query_every_finite_simplex(dec)
            assert [r if r is not None else new for r, new in zip(R, dec.R)] == dec.R
            assert all(new in (None, full) for new, full in zip(dec.R, eager.R))
            assert dec.pivot == pivot
            assert dec.simplices == simplices
            assert dec.values.tobytes() == values.tobytes()


def test_naive_big_step_on_the_circle_builds_no_basis(monkeypatch):
    def without_basis(mat):
        raise AssertionError("a basis V was built")

    sizes = []
    naive = topo_opt.schemes.moving_set_naive

    def counted(*args):
        members = naive(*args)
        sizes.append(len(members))
        return members

    monkeypatch.setattr(topo_opt.reduction._PairedMatrix, "basis", property(without_basis))
    monkeypatch.setattr(topo_opt.schemes, "moving_set_naive", counted)
    X = gen_circle(32, outlier=True, seed=0)
    loss, _ = circle_loss()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        big_step_gradient(VietorisRips(len(X), max_dim=2), X, loss,
                          push_scale=0.128)
    assert sizes and max(sizes) > 1


def test_big_step_on_the_circle_runs_no_full_reduction(monkeypatch):
    """One big step pairs by cohomology and reduces only the death columns
    of D that its moving sets meet: no eager ``reduce``, and the filled
    columns of its decomposition are death columns, far fewer than the
    6,017 simplices."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("big-step ran the full homology reduction")

    made = []
    from_pairing = ReducedDecomposition._from_pairing.__func__

    def kept(cls, *args):
        made.append(from_pairing(cls, *args))
        return made[-1]

    monkeypatch.setattr(ReducedDecomposition, "__init__", refuse)
    monkeypatch.setattr(ReducedDecomposition, "_from_pairing", classmethod(kept))
    X = gen_circle(32, outlier=True, seed=0)
    loss, _ = circle_loss()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        big_step_gradient(VietorisRips(len(X), max_dim=2), X, loss, push_scale=0.128)
    [dec] = made
    filled = [q for q, col in enumerate(dec.R) if col is not None]
    assert filled and all(dec.is_death(q) for q in filled)
    assert len(filled) <= len(dec.pivot) < len(dec.R)


# ---------------------------------------------------------------------------
# big-step gradient


def test_big_step_tiny_push_equals_vanilla(rng):
    """With an infinitesimal push every moving set is a singleton, so the
    big-step gradient degenerates to the vanilla one."""
    X = rng.normal(size=(6, 2))
    fam = VietorisRips(n_points=6, max_dim=2)
    loss = TotalPersistenceLoss(dims=(0,))
    v0, g0, _ = vanilla_gradient(fam, X, loss)
    v1, g1, _ = big_step_gradient(fam, X, loss, push_scale=1e-9)
    assert v1 == pytest.approx(v0)
    np.testing.assert_allclose(g1, g0, atol=1e-12)


@pytest.mark.parametrize("death_only", [False, True])
def test_big_step_without_a_push_is_the_vanilla_gradient(monkeypatch, death_only):
    """At push_scale = 0 every target is the point itself, so each simplex
    keeps its own partial and no moving set is walked; with death_only the
    birth partials are zero and are skipped."""
    def refuse(*args):
        raise AssertionError("a moving set was walked")

    monkeypatch.setattr(topo_opt.schemes, "moving_set", refuse)
    X = gen_circle(12, outlier=True, seed=0)
    fam = VietorisRips(len(X), max_dim=2)
    loss = TotalPersistenceLoss(dims=(1,), death_only=death_only)
    v0, g0, dgm = vanilla_gradient(fam, X, loss)
    v1, g1, _ = big_step_gradient(fam, X, loss, push_scale=0.0)
    assert len(dgm.ordinary(1)) and np.abs(g0).max() > 0
    assert v1 == v0
    np.testing.assert_allclose(g1, g0, rtol=0, atol=1e-12)


def test_big_step_decreases_loss(rng):
    X = rng.normal(size=(8, 2))
    fam = VietorisRips(n_points=8, max_dim=1)
    loss = TotalPersistenceLoss(dims=(0,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v0, g, _ = big_step_gradient(fam, X, loss, push_scale=0.1)
        v1 = vanilla_gradient(fam, X - 0.05 * g, loss)[0]
    assert v1 < v0


# ---------------------------------------------------------------------------
# continuation


def test_continuation_fixed_point(rng):
    X = rng.normal(size=(6, 2))
    fam = VietorisRips(n_points=6, max_dim=1)
    dgm = build_diagram(fam.filtration(X), drop_zero_tol=1e-12)
    theta, _ = continuation_step(fam, X, {0: dgm.ordinary(0)})
    np.testing.assert_allclose(theta, X, atol=1e-8)


def test_continuation_moves_toward_target(rng):
    X = rng.normal(size=(8, 2))
    fam = VietorisRips(n_points=8, max_dim=1)
    dgm = build_diagram(fam.filtration(X), drop_zero_tol=1e-12)
    target = dgm.ordinary(0) * 0.9  # shrink every bar slightly
    loss = DistanceToTargetLoss(0, target)
    v0 = loss.evaluate(dgm)[0]
    theta, _ = continuation_step(fam, X, {0: target}, gamma=0.5)
    dgm1 = build_diagram(fam.filtration(theta), drop_zero_tol=1e-12)
    assert loss.evaluate(dgm1)[0] < v0


def test_pairing_only_callers_build_no_decomposition(monkeypatch, rng):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a pairing-only caller reduced the boundary matrix")

    monkeypatch.setattr(ReducedDecomposition, "__init__", refuse)
    f = random_filtration(rng)
    with pytest.raises(AssertionError):
        reduce(f)
    build_diagram(f)
    betti_numbers(f)
    X = rng.normal(size=(7, 2))
    value, g, _ = vanilla_gradient(VietorisRips(7, max_dim=2), X,
                                   TotalPersistenceLoss(dims=(0, 1)))
    assert np.isfinite(value) and np.isfinite(g).all()


# ---------------------------------------------------------------------------
# distributed gradient


def test_distributed_full_subsample_is_vanilla(rng):
    X = rng.normal(size=(6, 2))
    fam = VietorisRips(n_points=6, max_dim=1)
    loss = TotalPersistenceLoss(dims=(0,))
    g = distributed_gradient(fam, X, loss, n_sub=1, s=6, rng=rng)
    _, g0, _ = vanilla_gradient(fam, X, loss)
    np.testing.assert_allclose(g, g0)


def test_distributed_oversized_subsample_raises(rng):
    fam = VietorisRips(n_points=4, max_dim=1)
    with pytest.raises(ValueError):
        distributed_gradient(
            fam, rng.normal(size=(4, 2)), TotalPersistenceLoss(), 1, 10, rng
        )


@pytest.mark.parametrize("n_sub, s", [(0, 2), (1, 0), (-1, 2), (2, -1)])
def test_distributed_rejects_empty_subsampling(rng, n_sub, s):
    fam = VietorisRips(n_points=4, max_dim=1)
    with pytest.raises(ValueError, match="n_sub"):
        distributed_gradient(
            fam, rng.normal(size=(4, 2)), TotalPersistenceLoss(), n_sub, s, rng
        )


def test_distributed_scatters_to_chosen_indices(rng):
    X = rng.normal(size=(10, 2))
    fam = VietorisRips(n_points=10, max_dim=1)
    loss = TotalPersistenceLoss(dims=(0,))
    g = distributed_gradient(fam, X, loss, n_sub=3, s=4, rng=rng)
    assert g.shape == X.shape
    assert np.isfinite(g).all()


# ---------------------------------------------------------------------------
# kernel interpolation


def test_diffeo_interpolates_exactly(rng):
    for _ in range(20):
        X = rng.normal(size=(12, 2))
        grad = np.zeros_like(X)
        support = rng.choice(12, size=5, replace=False)
        grad[support] = rng.normal(size=(5, 2))
        field = diffeo_interpolate(X, grad, sigma=0.7)
        resid = np.abs(field(X[support]) - grad[support]).max()
        assert resid <= 1e-8


def test_diffeo_smooth_directions(rng):
    X = rng.normal(size=(8, 2))
    grad = np.zeros_like(X)
    grad[0] = [1.0, 0.0]
    field = diffeo_interpolate(X, grad, sigma=1.0)
    # nearby points move in nearly the same direction as the support point
    probe = X[0] + np.array([1e-3, 1e-3])
    v = field(probe)[0]
    assert v @ grad[0] > 0
    assert np.linalg.norm(v - grad[0]) < 1e-2


def test_diffeo_singular_kernel_falls_back_with_warning():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    grad = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.warns(UserWarning, match="singular kernel"):
        field = diffeo_interpolate(X, grad, sigma=0.5, ridge=0.0)
    assert np.isfinite(field(X)).all()


@pytest.mark.parametrize("X_shape, grad_shape", [((9,), (9,)), ((4, 2), (4,)),
                                                  ((4, 2), (4, 3))])
def test_diffeo_rejects_gradients_that_are_not_point_clouds(X_shape, grad_shape):
    with pytest.raises(ValueError, match=r"shape \(n, d\)"):
        diffeo_interpolate(np.ones(X_shape), np.ones(grad_shape), sigma=0.5)


@pytest.mark.parametrize("sigma", [0.0, -0.05, np.nan])
def test_diffeo_rejects_a_bandwidth_that_is_not_finite_and_positive(rng, sigma):
    X = rng.normal(size=(4, 2))
    with pytest.raises(ValueError, match="finite positive sigma"):
        diffeo_interpolate(X, np.ones_like(X), sigma=sigma)


def test_diffeo_rejects_a_gradient_row_that_is_not_finite(rng):
    # nan > 0 is False, so a norm test alone would drop the row from the support
    X = rng.normal(size=(5, 2))
    grad = np.zeros_like(X)
    grad[0] = (1.0, 0.0)
    grad[3] = (np.nan, 0.0)
    with pytest.raises(ValueError, match="finite grad; row 3"):
        diffeo_interpolate(X, grad, sigma=0.5)


def test_diffeo_rejects_a_point_that_is_not_finite(rng):
    X = rng.normal(size=(5, 2))
    X[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite X; row 2"):
        diffeo_interpolate(X, np.ones_like(X), sigma=0.5)


def test_diffeo_empty_gradient(rng):
    X = rng.normal(size=(4, 2))
    field = diffeo_interpolate(X, np.zeros_like(X), sigma=0.5)
    np.testing.assert_allclose(field(X), 0.0)
