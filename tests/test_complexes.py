"""Complex construction, boundaries, orders, and the text format."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topo_opt import build_complex, complete_complex, triangulated_torus
from topo_opt.complexes import (
    Filtration,
    NotMonotoneError,
    OrderingSignature,
    _free_ties,
    boundary,
    is_face,
    read_complex,
    total_order,
    write_complex,
)
from topo_opt.filtrations import LowerStar, VietorisRips
from conftest import random_filtration


def test_build_complex_triangle_closure():
    cx = build_complex([[0, 1, 2]])
    assert len(cx) == 7
    dims = sorted(len(s) - 1 for s in cx.simplices)
    assert dims == [0, 0, 0, 1, 1, 1, 2]


def test_build_complex_isolated_vertices():
    cx = build_complex([[0], [1]])
    assert sorted(cx.simplices) == [(0,), (1,)]


def test_build_complex_rejects_empty_simplex():
    with pytest.raises(ValueError):
        build_complex([[]])


def test_torus_counts():
    cx = triangulated_torus()
    by_dim = {}
    for s in cx.simplices:
        by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
    assert by_dim == {0: 9, 1: 27, 2: 18}
    assert len(cx) == 54


def test_boundary_edge_and_triangle():
    assert boundary((0, 1)) == [(1,), (0,)] or set(boundary((0, 1))) == {(0,), (1,)}
    assert set(boundary((0, 1, 2))) == {(1, 2), (0, 2), (0, 1)}
    assert boundary((3,)) == []


def test_boundary_of_boundary_vanishes():
    # chain over F2: every codim-2 face appears an even number of times
    for simplex in [(0, 1, 2), (0, 1, 2, 3), (2, 5, 7, 9)]:
        counts = {}
        for f in boundary(simplex):
            for g in boundary(f):
                counts[g] = counts.get(g, 0) + 1
        assert all(c % 2 == 0 for c in counts.values())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=8))
def test_closure_idempotent(sims):
    cx = build_complex(sims)
    cx2 = build_complex(cx.simplices)
    assert cx.simplices == cx2.simplices


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=8))
def test_dim_skeleton_and_blocks_match_a_scan(sims):
    cx = build_complex(sims)
    assert cx.dim == max(len(s) for s in cx.simplices) - 1
    for p in range(-1, cx.dim + 2):
        assert cx.skeleton(p) == [s for s in cx.simplices if len(s) == p + 1]
    blocks = cx.blocks()
    assert len(blocks) == cx.dim + 1
    for p, (start, ids) in enumerate(blocks):
        rows = [i for i, s in enumerate(cx.simplices) if len(s) == p + 1]
        assert rows == list(range(start, start + len(ids)))
        assert ids.shape == (len(rows), p + 1)
        assert [tuple(int(v) for v in r) for r in ids] == [cx.simplices[i] for i in rows]
    assert cx.blocks() is blocks


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=8))
def test_cofaces_match_a_scan(sims):
    cx = build_complex(sims)
    for s in cx.simplices:
        assert cx.cofaces(s) == [t for t in cx.simplices
                                 if len(t) == len(s) + 1 and set(s) <= set(t)]


def test_cofaces_beyond_int64_codes():
    # 55,110 ** 4 > 2**63: the tetrahedron codes no longer fit in int64
    n = 55_110
    cx = build_complex([[v] for v in range(n)] + [[0, 1, 2, 3, n - 1]])
    assert cx.cofaces((0, 1, 2, n - 1)) == [(0, 1, 2, 3, n - 1)]
    assert cx.cofaces((0, 2, 3, n - 1)) == [(0, 1, 2, 3, n - 1)]
    assert cx.cofaces((1, 2)) == [(0, 1, 2), (1, 2, 3), (1, 2, n - 1)]
    assert cx.cofaces((5,)) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_total_order_faces_precede_cofaces(seed):
    rng = np.random.default_rng(seed)
    f = random_filtration(rng)
    sig = total_order(f)
    order = [f.complex.simplices[i] for i in sig.order]
    rank = {s: i for i, s in enumerate(order)}
    for s in order:
        for face in boundary(s):
            assert rank[face] < rank[s]


def test_total_order_all_equal_sorts_by_dim_then_lex():
    cx = build_complex([[0, 1, 2]])
    f = Filtration(cx, np.zeros(len(cx)))
    sig = total_order(f)
    order = [cx.simplices[i] for i in sig.order]
    assert order == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_total_order_path_example():
    cx = build_complex([[0, 1], [1, 2]])
    vals = {(0,): 0.0, (1,): 1.0, (2,): 2.0}
    values = np.array([max(vals[(v,)] for v in s) for s in cx.simplices])
    f = Filtration(cx, values)
    order = [cx.simplices[i] for i in total_order(f).order]
    assert order == [(0,), (1,), (0, 1), (2,), (1, 2)]


def test_signature_invariant_under_monotone_rescaling(rng):
    f = random_filtration(rng)
    g = Filtration(f.complex, np.exp(f.values))
    assert total_order(f) == total_order(g)


def test_monotonicity_validated():
    cx = build_complex([[0, 1]])
    bad = np.zeros(len(cx))
    bad[cx.index[(0,)]] = 5.0  # vertex above its coface
    with pytest.raises(ValueError):
        Filtration(cx, bad)


def first_violation_by_loop(cx, values):
    """The first (face, simplex) with f(face) > f(simplex), scanning
    simplices in complex order and each one's faces in ``boundary`` order."""
    for s in cx.simplices:
        for f in boundary(s):
            if values[cx.index[f]] > values[cx.index[s]]:
                return f"filtration not monotone: f({f}) > f({s})"
    return None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=8),
       st.integers(0, 10_000), st.booleans())
def test_check_monotone_names_the_loops_first_violation(sims, seed, integers):
    cx = build_complex(sims)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 3, len(cx)) if integers else rng.uniform(size=len(cx))
    want = first_violation_by_loop(cx, values)
    if want is None:
        Filtration(cx, values)
        return
    with pytest.raises(NotMonotoneError) as exc:
        Filtration(cx, values)
    assert str(exc.value) == want


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=8))
def test_facets_are_the_boundary_in_order(sims):
    cx = build_complex(sims)
    for q, (start, ids) in enumerate(cx.blocks()[1:], start=1):
        faces = cx.facets(q)
        assert faces.shape == (len(ids), q + 1)
        for r, row in enumerate(faces.tolist()):
            assert [cx.simplices[i] for i in row] == boundary(cx.simplices[start + r])


def assert_vertex_pairs_are_the_edges_in_order(cx):
    nv = cx.n_vertices()
    for q, (start, ids) in enumerate(cx.blocks()[1:], start=1):
        pairs = cx.vertex_pairs(q)
        assert pairs.shape == (q * (q + 1) // 2, len(ids))
        for r, s in enumerate(ids.tolist()):
            edges = [cx.simplices[nv + k] for k in pairs[:, r].tolist()]
            assert edges == list(itertools.combinations(s, 2))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=8))
def test_vertex_pairs_are_the_edges_in_order(sims):
    assert_vertex_pairs_are_the_edges_in_order(build_complex(sims))


@pytest.mark.parametrize("n, d", [(2, 1), (5, 3), (9, 2)])
def test_vertex_pairs_of_a_complete_complex_are_the_edges_in_order(n, d):
    assert_vertex_pairs_are_the_edges_in_order(complete_complex(n, d))
    assert_vertex_pairs_are_the_edges_in_order(build_complex([[v + 3 for v in range(n)]]))


def test_complete_complex_counts():
    cx = complete_complex(5, 2)
    assert len(cx) == 5 + 10 + 10


def assert_same_complex(got, want):
    """Every view of two complexes agrees; ``simplex(i)`` is read off the
    blocks of ``got`` before its tuple list exists."""
    assert [got.simplex(i) for i in range(len(want))] == want.simplices
    assert "simplices" not in vars(got) and "index" not in vars(got)
    assert (len(got), got.dim) == (len(want), want.dim)
    assert got.simplices == want.simplices
    assert got.index == want.index
    assert [got.simplex(i) for i in range(len(want))] == want.simplices
    assert len(got.blocks()) == len(want.blocks())
    for (s1, a1), (s2, a2) in zip(got.blocks(), want.blocks()):
        assert s1 == s2 and a1.dtype == a2.dtype
        np.testing.assert_array_equal(a1, a2)
    for p in range(-1, want.dim + 2):
        assert got.skeleton(p) == want.skeleton(p)
    for p in range(want.dim):
        for x, y in zip(got.coboundary(p), want.coboundary(p)):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(got.facets(p + 1), want.facets(p + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 4))
def test_complete_complex_equals_the_closure_of_all_subsets(n, d):
    k = min(d + 1, n)
    want = build_complex(itertools.combinations(range(n), k))
    got = complete_complex(n, d)
    assert_same_complex(got, want)
    for s in want.simplices:
        assert got.cofaces(s) == want.cofaces(s)


def test_paper_size_complete_complex_equals_the_closure():
    assert_same_complex(complete_complex(101, 2),
                        build_complex(itertools.combinations(range(101), 3)))


def test_complete_complex_rejects_no_points_and_negative_dimension():
    with pytest.raises(ValueError, match="n_points"):
        complete_complex(0, 2)
    with pytest.raises(ValueError, match="max_dim"):
        complete_complex(3, -1)
    cx = complete_complex(3, 5)  # truncated at the full triangle
    assert (len(cx), cx.dim) == (7, 2)


def test_simplex_rejects_positions_outside_the_complex():
    cx = complete_complex(3, 2)
    for listed in (False, True):
        if listed:
            assert len(cx.simplices) == 7
        for i in (-1, 7):
            with pytest.raises(IndexError):
                cx.simplex(i)


def test_complex_io_roundtrip(tmp_path, rng):
    f = random_filtration(rng)
    path = tmp_path / "complex.txt"
    write_complex(path, f.complex, f)
    cx2, vals2 = read_complex(path)
    assert cx2.simplices == f.complex.simplices
    np.testing.assert_allclose(vals2, f.values)


def test_complex_io_roundtrips_non_finite_values(tmp_path):
    cx = build_complex([[0, 1, 2], [2, 3]])
    vals = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, np.nan, -1e300, np.inf])
    path = tmp_path / "complex.txt"
    write_complex(path, cx, Filtration(cx, vals, check=False))
    cx2, vals2 = read_complex(path)
    assert cx2.simplices == cx.simplices
    assert vals2.tobytes() == vals.tobytes()


def test_read_complex_rejects_values_without_their_faces(tmp_path):
    path = tmp_path / "complex.txt"
    path.write_text("0 0.0\n1 nan\n0 1 2 1.0\n")
    with pytest.raises(ValueError, match="not closed under faces"):
        read_complex(path)


def test_ordering_signature_hash_and_tie_flag():
    cx = build_complex([[0, 1], [2]])
    f = Filtration(cx, np.zeros(len(cx)))
    sig = total_order(f)
    assert isinstance(hash(sig), int)
    # (0,) and (1,) and (2,) tie at value 0 without a face relation
    assert sig.tied


def test_ordering_signature_compares_order_bytes_without_the_tuple(rng):
    f = random_filtration(rng)
    a, b = total_order(f), total_order(Filtration(f.complex, np.exp(f.values)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # equality and hashing read the order array's bytes: no tuple is built
    assert "order" not in vars(a) and "order" not in vars(b)
    assert a.order == tuple(np.argsort(f.values, kind="stable").tolist())
    assert OrderingSignature(a.order, tied=not a.tied) == a
    swapped = list(a.order)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert OrderingSignature(swapped) != a
    assert a != a.order


def every_free_tie(f, order):
    """Every free tie of the order, found by one comparison of all adjacent
    pairs: (a, b) adjacent, equal in value, and not face-related."""
    pairs = zip(order[:-1].tolist(), order[1:].tolist())
    return [(a, b) for a, b in pairs if f.values[a] == f.values[b]
            and not is_face(f.complex.simplex(a), f.complex.simplex(b))
            and not is_face(f.complex.simplex(b), f.complex.simplex(a))]


@pytest.mark.parametrize("make", [
    lambda rng: Filtration(complete_complex(30, 2), np.zeros(4525)),  # all tied
    lambda rng: VietorisRips(30, 2).filtration(np.round(rng.uniform(-1, 1, (30, 2)), 1)),
    lambda rng: LowerStar(complete_complex(25, 2)).filtration(
        np.round(rng.uniform(0, 1, 25), 1)),
    lambda rng: LowerStar(complete_complex(25, 2)).filtration(
        np.where(rng.uniform(size=25) < 0.2, np.nan, np.round(rng.uniform(0, 1, 25), 1))),
    lambda rng: random_filtration(rng),
])
def test_free_ties_are_every_free_tie_in_order(rng, make):
    # the tie-heavy orders run past the first 4096 adjacent pairs scanned
    f = make(rng)
    want = every_free_tie(f, f.order)
    assert list(_free_ties(f)) == want
    assert total_order(f).tied == bool(want)
