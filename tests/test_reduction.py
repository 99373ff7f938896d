"""Reduction invariants, the pairing oracle, the paired matrices behind the
moving sets, diagram IO."""
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topo_opt import build_complex, triangulated_torus
from topo_opt.complexes import Filtration, boundary, complete_complex, total_order
from topo_opt.experiments import gen_circle
from topo_opt.filtrations import (
    ConstantWeights,
    HeightFiltration,
    LowerStar,
    RawValues,
    VietorisRips,
    WeightedRips,
)
from topo_opt.losses import TotalPersistenceLoss
from topo_opt.reduction import (
    PersistenceDiagram,
    ReducedDecomposition,
    _elder_merges,
    betti_numbers,
    build_diagram,
    persistence_pairs,
    read_diagram,
    reduce,
    write_diagram,
)
from conftest import random_filtration, sublevel_betti


def rows_of(col):
    """The set bits of a bitset column."""
    return [i for i in range(col.bit_length()) if col >> i & 1]


def dense(cols, n):
    M = np.zeros((n, n), dtype=int)
    for j, col in enumerate(cols):
        for i in rows_of(col):
            M[i, j] = 1
    return M


def check_decomposition(dec):
    """R = D.V with V the basis of the D form, V upper-triangular
    unit-diagonal, U = V^-1, R reduced; the pivots are R's lowest ones, and
    partner is an involution on the paired positions that is None exactly on
    the essential ones."""
    n = len(dec.simplices)
    D = np.zeros((n, n), dtype=int)
    for j, s in enumerate(dec.simplices):
        for f in boundary(s):
            D[dec.position(f), j] = 1
    R = dense(dec.R, n)
    Vcols, Urows = dec.D.basis
    V = dense(Vcols, n)
    assert ((D @ V) % 2 == R).all()
    assert (np.tril(V, -1) == 0).all()
    assert (np.diag(V) == 1).all()
    U = np.zeros((n, n), dtype=int)
    for i, row in enumerate(Urows):
        for j in rows_of(row):
            U[i, j] = 1
    assert ((V @ U) % 2 == np.eye(n, dtype=int)).all()
    assert ((U @ V) % 2 == np.eye(n, dtype=int)).all()
    lows = [c.bit_length() - 1 for c in dec.R if c]
    assert len(lows) == len(set(lows))
    assert dec.pivot == {c.bit_length() - 1: j for j, c in enumerate(dec.R) if c}
    paired = set(dec.pivot) | set(dec.pivot.values())
    for i in range(n):
        if i in paired:
            assert dec.partner(dec.partner(i)) == i
        else:
            assert dec.partner(i) is None


def test_single_vertex():
    cx = build_complex([[0]])
    dec = reduce(Filtration(cx, np.zeros(1)))
    assert dec.partner(0) is None
    pairing = dec.pairing()
    assert pairing.unpaired[0] == [(0,)]


def test_filled_triangle_zero_values():
    cx = build_complex([[0, 1, 2]])
    f = Filtration(cx, np.zeros(len(cx)))
    pairing = persistence_pairs(f)
    assert len(pairing.pairs[0]) == 2
    assert len(pairing.pairs[1]) == 1
    assert pairing.unpaired[0] == [(0,)]


def test_decomposition_invariants_random(rng):
    for _ in range(20):
        f = random_filtration(rng)
        check_decomposition(reduce(f))


def assert_matches_sublevel_rank_oracle(f, pairing):
    """Betti numbers at every threshold derived from the pairing must match
    an independent F2-rank computation on the sublevel complex."""
    for t in np.unique(f.values):
        expected = sublevel_betti(f, t)
        for p, beta in expected.items():
            got = sum(
                1
                for b, d in pairing.pairs.get(p, [])
                if f.value(b) <= t < f.value(d)
            )
            got += sum(
                1 for b in pairing.unpaired.get(p, []) if f.value(b) <= t
            )
            assert got == beta, (p, t)


def test_pairing_matches_sublevel_rank_oracle(rng):
    for _ in range(25):
        f = random_filtration(rng, n_vertices=5)
        assert_matches_sublevel_rank_oracle(f, reduce(f).pairing())


def test_persistence_pairs_matches_sublevel_rank_oracle(rng):
    for _ in range(25):
        f = random_filtration(rng, n_vertices=5)
        assert_matches_sublevel_rank_oracle(f, persistence_pairs(f))


def assert_same_pairing(f):
    """The cohomology pairing equals the boundary-matrix reduction's, in
    list order and dimension order too, and that order is the documented
    one: pairs by birth position, unpaired simplices in filtration order,
    dimensions in order of first appearance."""
    dec = reduce(f)
    got, want = persistence_pairs(f), dec.pairing()
    assert got.pairs == want.pairs
    assert got.unpaired == want.unpaired
    assert list(got.pairs) == list(want.pairs)
    assert list(got.unpaired) == list(want.unpaired)
    at = dec.position
    assert ([(p, [(at(b), at(d)) for b, d in ps]) for p, ps in got.pairs.items()]
            == by_dim(dec, sorted(dec.pivot.items()), birth=lambda pair: pair[0]))
    paired = set(dec.pivot) | set(dec.pivot.values())
    assert ([(p, list(map(at, us))) for p, us in got.unpaired.items()]
            == by_dim(dec, [q for q in range(len(dec.simplices)) if q not in paired]))


def by_dim(dec, items, birth=lambda q: q):
    """Items grouped by the dimension of the simplex at their birth
    position, as (dimension, items) in order of first appearance, each
    group in the given order."""
    out = {}
    for x in items:
        out.setdefault(len(dec.simplices[birth(x)]) - 1, []).append(x)
    return list(out.items())


def assert_diagram_reads_the_pairing(f, drop_zero_tol):
    """build_diagram's rows are the filtration values of the pairing's
    simplices, one by one, with the zero-persistence filter applied."""
    pairing = persistence_pairs(f)
    dgm = build_diagram(f, pairing, drop_zero_tol=drop_zero_tol)
    assert list(dgm.points) == list(pairing.pairs)
    for dim, plist in pairing.pairs.items():
        rows = [(f.value(b), f.value(d)) for b, d in plist]
        keep = [k for k, (bv, dv) in enumerate(rows)
                if drop_zero_tol <= 0.0 or dv - bv > drop_zero_tol]
        assert dgm.pairs[dim] == [plist[k] for k in keep]
        want = np.asarray([rows[k] for k in keep], dtype=float).reshape(len(keep), 2)
        assert dgm.points[dim].tobytes() == want.tobytes()
        assert dgm.points[dim].shape == want.shape
    for dim, slist in pairing.unpaired.items():
        assert dgm.essential_simplices[dim] == slist
        assert dgm.essential[dim].tobytes() == np.asarray([f.value(s) for s in slist]).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.booleans())
def test_persistence_pairs_equals_reduction_on_random_filtrations(seed, n_vertices, zero):
    f = random_filtration(np.random.default_rng(seed), n_vertices=n_vertices)
    if zero:
        f = Filtration(f.complex, np.zeros(len(f)))
    assert_same_pairing(f)


def test_persistence_pairs_equals_reduction_on_zero_torus():
    cx = triangulated_torus()
    assert_same_pairing(Filtration(cx, np.zeros(len(cx))))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)),
    st.sampled_from([1, 2, 3]))
def test_persistence_pairs_equals_reduction_on_tied_vr(coords, max_dim):
    # one decimal: many edges and triangles tie; max_dim=3 makes clearing
    # skip triangle columns as well as edge columns
    X = np.round(np.reshape(coords, (-1, 2)), 1)
    f = VietorisRips(len(X), max_dim).filtration(X)
    assert_same_pairing(f)
    for tol in (0.0, 1e-12, 0.1):
        assert_diagram_reads_the_pairing(f, tol)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=2 * n, max_size=2 * n)),
    st.sampled_from([1, 2, 3]))
def test_persistence_pairs_equals_reduction_on_integer_grids(coords, max_dim):
    # points on a 4 x 4 grid, repeats allowed: most values tie, so most
    # columns are not apparent pairs and go through the column reducer
    X = np.reshape(coords, (-1, 2)).astype(float)
    f = VietorisRips(len(X), max_dim).filtration(X)
    assert_same_pairing(f)
    for tol in (0.0, 1e-12, 0.5):
        assert_diagram_reads_the_pairing(f, tol)


@pytest.mark.parametrize("seed", [0, 6, 7, 9])
def test_persistence_pairs_equals_reduction_on_circle_subsamples(seed):
    # 50 of 2000 circle points, as a distributed or diffeo step draws them:
    # 20,875 simplices, and one edge cocolumn takes 98 to 145 additions at
    # these seeds, far more than on the small clouds above
    X = gen_circle(2000, outlier=False, seed=0)
    idx = np.sort(np.random.default_rng(seed).choice(len(X), 50, replace=False))
    f = VietorisRips(len(X), max_dim=2).subsample(idx).filtration(X[idx])
    assert_same_pairing(f)
    got, want = persistence_pairs(f), reduce(f).pairing()
    for tol in (0.0, 1e-12):
        a, b = build_diagram(f, got, tol), build_diagram(f, want, tol)
        assert list(a.points) == list(b.points) and a.pairs == b.pairs
        for dim in a.points:
            assert a.points[dim].tobytes() == b.points[dim].tobytes()
        for dim in a.essential:
            assert a.essential[dim].tobytes() == b.essential[dim].tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.integers(0, 11), min_size=1, max_size=3), min_size=1, max_size=12),
       st.data())
def test_union_find_h0_equals_reduction_on_general_complexes(sims, data):
    # isolated vertices, several components and lower-star values from a
    # small set, so that many vertices and edges tie
    cx = build_complex(sims)
    n = cx.n_vertices()
    f = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n))
    assert_same_pairing(LowerStar(cx).filtration(np.array(f)))


@pytest.mark.parametrize("sims", [[(0,)], [(3,), (1,), (7,)], [(0, 1)],
                                  [(0, 1), (1, 2), (0, 2), (4, 5), (6,)]])
@pytest.mark.parametrize("zero", [False, True])
def test_union_find_h0_equals_reduction_on_vertex_and_edge_complexes(sims, zero):
    cx = build_complex(sims)
    values = np.zeros(cx.n_vertices()) if zero else np.arange(cx.n_vertices(), 0.0, -1.0)
    assert_same_pairing(LowerStar(cx).filtration(values))


def test_union_find_pairs_the_younger_root_and_stops_at_the_last_merge():
    # vertices 0..3 at positions 3, 0, 2, 1; edges in filtration order
    # (10: 0-1), (11: 2-3), (12: 0-2) merge all four, and the walk must not
    # read the edge after the last merge
    def edges():
        yield from [(10, 0, 1), (11, 2, 3), (12, 0, 2)]
        raise AssertionError("walked past the last merge")

    assert _elder_merges([3, 0, 2, 1], edges()) == [(0, 10), (2, 11), (3, 12)]


class RefusingIndex(dict):
    def __getitem__(self, key):
        raise AssertionError(f"complex.index looked up {key}")

    get = __contains__ = __getitem__


def test_pairing_and_diagram_never_look_up_the_complex_index(rng):
    from topo_opt.schemes import vanilla_gradient

    X = rng.normal(size=(9, 2))
    fam = VietorisRips(len(X), 2)
    loss = TotalPersistenceLoss(dims=(0, 1))
    value, g, dgm = vanilla_gradient(fam, X, loss)
    f = fam.filtration(X)
    want = build_diagram(f)
    fam.complex.index = RefusingIndex(fam.complex.index)
    value2, g2, dgm2 = vanilla_gradient(fam, X, loss)
    got = build_diagram(f)
    assert value2 == value
    np.testing.assert_array_equal(g2, g)
    for dim in want.points:
        assert got.points[dim].tobytes() == want.points[dim].tobytes()
        assert got.pairs[dim] == want.pairs[dim]
    assert got.essential_simplices == want.essential_simplices


def test_vanilla_step_and_set_up_never_build_the_simplex_list_or_index(rng):
    from topo_opt.complexes import total_order
    from topo_opt.schemes import vanilla_gradient

    X = rng.normal(size=(33, 2))
    fam = VietorisRips(len(X), 2)
    loss = TotalPersistenceLoss(dims=(0, 1))
    sig = total_order(fam.filtration(X))
    value, g, dgm = vanilla_gradient(fam, X, loss)
    assert not {"simplices", "index"} & vars(fam.complex).keys()
    # the same set-up and step once the list and the lookup exist
    assert len(fam.complex.simplices) == len(fam.complex.index) == len(fam.complex)
    sig2 = total_order(fam.filtration(X))
    value2, g2, dgm2 = vanilla_gradient(fam, X, loss)
    assert (sig2, sig2.tied) == (sig, sig.tied)
    assert value2 == value
    np.testing.assert_array_equal(g2, g)
    assert dgm2.pairs == dgm.pairs


def test_reduce_never_builds_the_simplex_list_or_index(rng):
    X = rng.normal(size=(12, 2))
    fam = VietorisRips(len(X), 2)
    dec = reduce(fam.filtration(X))
    assert not {"simplices", "index"} & vars(fam.complex).keys()
    assert "simplices" not in vars(dec)
    assert dec.pairing().pairs == persistence_pairs(fam.filtration(X)).pairs


def test_vanilla_and_big_step_never_build_the_essentials(rng):
    from topo_opt.experiments import circle_loss
    from topo_opt.schemes import big_step_gradient, vanilla_gradient

    X = rng.normal(size=(33, 2))
    loss = circle_loss()[0]
    for step in (vanilla_gradient, partial(big_step_gradient, push_scale=0.128)):
        dgm = step(VietorisRips(len(X), 2), X, loss)[2]
        assert "essential" not in vars(dgm.pairing)
        assert "essential" not in vars(dgm)
        assert dgm.points[1].size


def eager_essential(pairing):
    """The unpaired positions listed eagerly, the reference for the lazy
    list: per block, the positions with no partner, sorted by filtration
    position; dimensions in order of their first unpaired simplex."""
    rank = np.empty_like(pairing.order)
    rank[pairing.order] = np.arange(len(pairing.order))
    out = {}
    for p, (start, ids) in enumerate(pairing.complex.blocks()):
        us = start + np.flatnonzero(pairing.partner[start:start + len(ids)] < 0)
        if len(us):
            out[p] = us[np.argsort(rank[us])]
    return dict(sorted(out.items(), key=lambda kv: rank[kv[1][0]]))


def assert_lazy_essentials_are_the_eager_ones(f):
    for pairing in (persistence_pairs(f), reduce(f).pairing()):
        counts, dims = pairing._unpaired_counts(), pairing.dims()
        assert "essential" not in vars(pairing)
        want = eager_essential(pairing)
        got = pairing.essential
        assert list(got) == list(want)
        for p in want:
            assert got[p].dtype == want[p].dtype
            assert got[p].tobytes() == want[p].tobytes()
        assert pairing._unpaired_counts() == counts == [
            len(want.get(p, ())) for p in range(f.complex.dim + 1)]
        assert pairing.dims() == dims == sorted(set(pairing.births) | set(want))
        dgm = build_diagram(f, pairing)
        assert list(dgm.essential) == list(want)
        for p in want:
            assert dgm.essential[p].tobytes() == f.values[want[p]].tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)),
    st.sampled_from([1, 2, 3]))
def test_lazy_essentials_equal_the_eager_ones_on_tied_vr(coords, max_dim):
    X = np.round(np.reshape(coords, (-1, 2)), 1)
    assert_lazy_essentials_are_the_eager_ones(VietorisRips(len(X), max_dim).filtration(X))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.booleans())
def test_lazy_essentials_equal_the_eager_ones_on_random_filtrations(seed, n_vertices, zero):
    f = random_filtration(np.random.default_rng(seed), n_vertices=n_vertices)
    if zero:
        f = Filtration(f.complex, np.zeros(len(f)))
    assert_lazy_essentials_are_the_eager_ones(f)


def test_essential_dimensions_come_in_order_of_their_first_unpaired_simplex():
    # a hollow tetrahedron at 0 leaves a triangle unpaired before the
    # triangle 4-5-6's boundary, at 1, leaves an edge unpaired
    cx = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5), (5, 6), (4, 6), (3, 4)])
    f = LowerStar(cx).filtration(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]))
    assert_lazy_essentials_are_the_eager_ones(f)
    assert list(persistence_pairs(f).essential) == list(reduce(f).pairing().essential) == [0, 2, 1]
    assert persistence_pairs(f).dims() == [0, 1, 2]
    assert betti_numbers(f) == {0: 1, 1: 1, 2: 1}


def test_lazy_diagram_writes_the_eager_bytes(tmp_path):
    X = gen_circle(32, outlier=True, seed=0)
    f = VietorisRips(len(X), 2).filtration(X)
    lazy = build_diagram(f, drop_zero_tol=1e-12)
    eager = PersistenceDiagram(lazy.points, {p: f.values[us] for p, us in
                                             eager_essential(lazy.pairing).items()})
    write_diagram(tmp_path / "lazy.csv", lazy)
    write_diagram(tmp_path / "eager.csv", eager)
    assert (tmp_path / "lazy.csv").read_bytes() == (tmp_path / "eager.csv").read_bytes()


def nan_cases():
    X = np.random.default_rng(0).normal(size=(6, 2))
    X[2, 1] = np.nan
    cx = triangulated_torus()
    f = np.arange(9.0)
    f[4] = np.nan
    P = np.random.default_rng(0).normal(size=(9, 3))
    P[4, 0] = np.nan  # a NaN direction is refused by the family itself
    return {
        "vietoris_rips": (VietorisRips(6, 2), X),
        "weighted_rips": (WeightedRips(6, 2, ConstantWeights(np.array([0, 0, np.nan, 0, 0, 0.]))),
                          np.nan_to_num(X)),
        "lower_star": (LowerStar(cx), f),
        "height": (HeightFiltration(cx, P), np.array([1.0, 0.0, 0.0])),
    }


@pytest.mark.parametrize("name", list(nan_cases()))
def test_a_nan_filtration_value_fails_in_the_pairing(name):
    from topo_opt.schemes import big_step_gradient, vanilla_gradient

    family, theta = nan_cases()[name]
    with np.errstate(invalid="ignore"):
        f = family.filtration(theta)
    last = int(np.argsort(f.values, kind="stable")[-1])
    assert np.isnan(f.values[last])
    message = f"simplex {f.complex.simplex(last)} is NaN"
    loss = TotalPersistenceLoss(dims=(0, 1))
    with np.errstate(invalid="ignore"):
        for run in (lambda: build_diagram(f), lambda: reduce(f),
                    lambda: vanilla_gradient(family, theta, loss)):
            with pytest.raises(ValueError, match=re.escape(message)):
                run()
        # big-step refuses it in its pairing, before any decomposition
        with pytest.raises(ValueError, match=re.escape(message)) as raised:
            big_step_gradient(family, theta, loss)
    assert "persistence_pairs" in {entry.name for entry in raised.traceback}
    assert not {"simplices", "index"} & vars(f.complex).keys()


def test_pairing_invariant_under_monotone_rescaling(rng):
    f = random_filtration(rng)
    g = Filtration(f.complex, 3.0 * f.values + 1.0)
    assert persistence_pairs(f).pairs == persistence_pairs(g).pairs


def test_path_lower_star_pairs():
    cx = build_complex([[0, 1], [1, 2]])
    vert_vals = {0: 0.0, 1: 2.0, 2: 1.0}
    values = np.array(
        [max(vert_vals[v] for v in s) for s in cx.simplices]
    )
    f = Filtration(cx, values)
    dgm = build_diagram(f)
    pts = sorted(map(tuple, dgm.ordinary(0)))
    assert pts == [(1.0, 2.0), (2.0, 2.0)]
    np.testing.assert_allclose(dgm.essential[0], [0.0])


def test_torus_betti():
    cx = triangulated_torus()
    f = Filtration(cx, np.zeros(len(cx)))
    betti = betti_numbers(f)
    assert (betti.get(0), betti.get(1), betti.get(2)) == (1, 2, 1)
    assert [build_diagram(f).betti(p) for p in range(4)] == [1, 2, 1, 0]


def test_decomposition_keeps_its_filtration_complex(rng):
    f = random_filtration(rng)
    assert reduce(f).complex is f.complex


def test_every_consumer_reads_the_filtration_order(rng, monkeypatch):
    """The order and its inverse are computed once per filtration: the
    pairing, both forms of the decomposition and the signature read those
    read-only arrays.  Once the order is built, the pairing sorts each block
    of coboundary columns once and the reduction sorts nothing."""
    sorted_sizes, unpatched = [], np.argsort

    def argsort(a, *args, **kwargs):
        sorted_sizes.append(np.size(a))
        return unpatched(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", argsort)
    cx = complete_complex(7, 2)
    lower_star = LowerStar(cx).filtration(np.round(rng.uniform(size=7), 1))
    for f in (VietorisRips(7, 2).filtration(np.round(rng.normal(size=(7, 2)), 1)),
              lower_star, RawValues(cx).filtration(lower_star.values)):
        assert np.array_equal(f.inverse_order[f.order], np.arange(len(f)))
        persistence_pairs(f)  # the complex builds its coboundary arrays
        sorted_sizes.clear()
        pairing, dec = persistence_pairs(f), reduce(f)
        # each block with coboundary columns sorted once, the order never
        assert sorted_sizes == [len(ids) for _, ids in f.complex.blocks()[1:-1]]
        from_pairing = ReducedDecomposition._from_pairing(f, pairing)
        for held in (pairing, dec, from_pairing):
            assert held.order is f.order and held.inverse_order is f.inverse_order
        assert np.array_equal(total_order(f).indices(), f.order)
        for array in (f.order, f.inverse_order):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]


def test_raw_values_keep_no_view_of_the_parameter():
    cx = complete_complex(6, 2)
    theta = LowerStar(cx).filtration(np.array([0.0, 0.4, 0.2, 0.9, 0.6, 0.3])).values.copy()
    f = RawValues(cx).filtration(theta)
    values, order, pairs = f.values.copy(), f.order.copy(), persistence_pairs(f).pairs
    theta[0] += 1.0
    assert np.array_equal(f.values, values) and np.array_equal(f.order, order)
    assert persistence_pairs(f).pairs == pairs


def test_anti_D_basis_inverts_antitransposed_boundary(rng):
    f = random_filtration(rng)
    dec = reduce(f)
    n = len(dec.simplices)
    D = np.zeros((n, n), dtype=int)
    for j, s in enumerate(dec.simplices):
        for face in boundary(s):
            D[dec.position(face), j] = 1
    Dp = D[::-1, ::-1].T
    Vp, Up = dec.anti_D.basis
    Vm = dense(Vp, n)
    Rp = (Dp @ Vm) % 2
    lows = [max(c) for c in (set(np.flatnonzero(Rp[:, j])) for j in range(n)) if c]
    assert len(lows) == len(set(lows))
    Um = np.zeros((n, n), dtype=int)
    for i, row in enumerate(Up):
        for j in rows_of(row):
            Um[i, j] = 1
    assert ((Vm @ Um) % 2 == np.eye(n, dtype=int)).all()


def assert_reduced_columns_match_a_full_reduction(dec):
    """For both paired matrices, the raw columns are those of D and of its
    anti-transpose built from the simplex tuples, and column c reduced
    against the columns before it, asked for in an order that makes the
    on-demand reducer reach back, equals column c of a full left-to-right
    reduction of the raw columns."""
    n = len(dec.simplices)
    faces = [{dec.position(f) for f in boundary(s)} for s in dec.simplices]
    cofaces = [set() for _ in range(n)]
    for q, rows in enumerate(faces):
        for r in rows:
            cofaces[r].add(q)
    for mat in (dec.D, dec.anti_D):
        assert all(mat.index(mat.index(q)) == q for q in range(n))
        for q in range(n):
            want = {mat.index(r) for r in (cofaces if mat.flip else faces)[q]}
            assert set(rows_of(mat.raw(mat.index(q)))) == want, (mat.flip, q)
        full, pivot = [], {}
        for j in range(n):  # a plain left-to-right reduction, the reference
            col = mat.raw(j)
            while col and col.bit_length() - 1 in pivot:
                col ^= full[pivot[col.bit_length() - 1]]
            if col:
                pivot[col.bit_length() - 1] = j
            full.append(col)
        assert pivot == mat.pivot
        for c in reversed(range(n)):
            assert mat.reduce_prefix(mat.raw(c), c, {}) == full[c], (mat.flip, c)


def traced_peak(fn):
    """(bytes still held after fn returns, tracemalloc peak during fn)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_reduce_holds_no_whole_raw_matrix():
    """At 61 points (37,881 simplices) the raw triangle columns, up to
    37,881 bits each, would take about 97 MiB if all were built before the
    reduction; fed column by column, the reduction peaks near its own
    result, about 10 MiB."""
    X = gen_circle(60, outlier=True, seed=0)
    filt = VietorisRips(len(X), 2).filtration(X)
    _, peak = traced_peak(lambda: reduce(filt))
    assert peak < 30 * 2**20, f"reduce peaked at {peak / 2**20:.1f} MiB"


def test_coboundary_writes_its_faces_into_the_arrays_it_keeps():
    """At 61 points the edge coboundary and the triangle facets keep about
    1.7 MiB; built from full-size copies of the faces, codes and owners,
    the peak would be 2.5 times that."""
    cx = complete_complex(61, 2)
    kept, peak = traced_peak(lambda: cx.coboundary(1))
    assert peak < 1.5 * kept, (f"coboundary(1) peaked at {peak / 2**20:.2f} MiB,"
                               f" keeping {kept / 2**20:.2f}")


def test_persistence_pairs_holds_no_copy_of_the_coboundary():
    """At 61 points (37,881 simplices) the pairing reads the coboundary
    through the filtration's inverse order, column by column; a copy of its
    entries, or masks over the whole order, would take the peak past 3 MiB."""
    X = gen_circle(60, outlier=True, seed=0)
    filt = VietorisRips(len(X), 2).filtration(X)
    persistence_pairs(filt)  # the complex builds and keeps its index arrays
    _, peak = traced_peak(lambda: persistence_pairs(filt))
    assert peak < 2.5 * 2**20, f"persistence_pairs peaked at {peak / 2**20:.2f} MiB"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_paired_matrices_reduce_like_a_full_reduction(seed, n_vertices):
    f = random_filtration(np.random.default_rng(seed), n_vertices=n_vertices)
    assert_reduced_columns_match_a_full_reduction(reduce(f))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)))
def test_paired_matrices_reduce_like_a_full_reduction_on_tied_vr(coords):
    X = np.round(np.reshape(coords, (-1, 2)), 1)
    assert_reduced_columns_match_a_full_reduction(
        reduce(VietorisRips(len(X), 2).filtration(X)))


def test_diagram_io_roundtrip(tmp_path, rng):
    f = random_filtration(rng)
    dgm = build_diagram(f)
    path = tmp_path / "diagram.csv"
    write_diagram(path, dgm)
    dgm2 = read_diagram(path)
    for dim in dgm.dims():
        np.testing.assert_array_equal(dgm.ordinary(dim), dgm2.ordinary(dim))
        np.testing.assert_array_equal(
            dgm.essential.get(dim, np.empty(0)),
            dgm2.essential.get(dim, np.empty(0)),
        )


def test_build_diagram_drops_zero_persistence(rng):
    cx = build_complex([[0, 1]])
    f = Filtration(cx, np.zeros(3))
    dgm = build_diagram(f, drop_zero_tol=1e-12)
    assert dgm.ordinary(0).size == 0
    full = build_diagram(f, drop_zero_tol=0.0)
    assert len(full.ordinary(0)) == 1
