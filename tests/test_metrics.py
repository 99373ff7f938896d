"""Diagram distances against exhaustive enumeration, axioms, stability."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topo_opt import build_complex
from topo_opt.complexes import Filtration
from topo_opt.filtrations import LowerStar
from topo_opt.metrics import (
    bottleneck_distance,
    fg_distance,
    read_matching,
    write_matching,
)
from topo_opt.reduction import build_diagram
from conftest import enumerate_matching_cost


def random_diagram(rng, max_points=4):
    m = int(rng.integers(0, max_points + 1))
    b = rng.uniform(0, 2, size=m)
    d = b + rng.uniform(0.01, 2, size=m)
    return np.column_stack([b, d]) if m else np.empty((0, 2))


def test_self_distance_zero(rng):
    a = random_diagram(rng)
    dist, matching = fg_distance(a, a)
    assert dist == pytest.approx(0.0, abs=1e-12)
    assert all(i == j for i, j in matching.pairs if i >= 0 and j >= 0)


def test_single_point_to_empty():
    dist, matching = fg_distance(np.array([[0.0, 2.0]]), np.empty((0, 2)))
    assert dist == pytest.approx(np.sqrt(2), abs=1e-12)
    assert matching.pairs == [(0, -1)]


def test_two_points_vs_one():
    # matching (0,4)<->(0,2) and pushing (0,2) to the diagonal costs
    # sqrt(2^2 + sqrt(2)^2) = sqrt(6), cheaper than the identity match
    # with (0,4) pushed to the diagonal (2*sqrt(2))
    a = np.array([[0.0, 2.0], [0.0, 4.0]])
    b = np.array([[0.0, 2.0]])
    dist, matching = fg_distance(a, b)
    assert dist == pytest.approx(np.sqrt(6), abs=1e-12)
    assert dist == pytest.approx(enumerate_matching_cost(a, b, 2.0), abs=1e-12)
    assigned = dict(matching.pairs)
    assert assigned[1] == 0 and assigned[0] == -1


def test_fg_matches_enumeration(rng):
    for _ in range(100):
        a, b = random_diagram(rng), random_diagram(rng)
        q = float(rng.choice([1.0, 2.0, 3.0]))
        dist, matching = fg_distance(a, b, q=q)
        expected = enumerate_matching_cost(a, b, q)
        assert dist == pytest.approx(expected, abs=1e-12)
        # the reported matching must realize the reported cost
        assert matching.cost == pytest.approx(dist, abs=1e-12)


def test_bottleneck_matches_enumeration(rng):
    for inner in (1.0, 2.0, np.inf) * 60:
        a, b = random_diagram(rng), random_diagram(rng)
        got, matching = fg_distance(a, b, q=np.inf, inner=inner)
        expected = enumerate_matching_cost(a, b, np.inf, inner)
        assert got == pytest.approx(expected, abs=1e-12)
        assert matching.cost == got
        if np.isinf(inner):
            assert bottleneck_distance(a, b)[0] == got


def scaled_enumeration(a, b, q, inner=None):
    """The enumeration oracle on the points divided by their bottleneck
    value s, times s, as d(a, b) = s * d(a / s, b / s): at large q the
    oracle's own q-th powers underflow (to a distance of 0) or overflow."""
    s = enumerate_matching_cost(a, b, np.inf, q if inner is None else inner) or 1.0
    with np.errstate(over="ignore", under="ignore"):
        return s * enumerate_matching_cost(a / s, b / s, q, inner)


def test_fg_matches_enumeration_at_large_orders(rng):
    for _ in range(40):
        a, b = random_diagram(rng), random_diagram(rng)
        for q, expected in ((50.0, enumerate_matching_cost(a, b, 50.0)),
                            (500.0, scaled_enumeration(a, b, 500.0))):
            dist, matching = fg_distance(a, b, q=q)
            assert dist == pytest.approx(expected, rel=1e-9, abs=1e-12)
            assert matching.cost == dist


def test_fg_at_an_order_whose_powers_leave_the_float_range():
    # unscaled, the 3000-th powers underflow to a distance of 0 (inner =
    # 3000) or overflow until scipy finds no assignment (inner = 1)
    a, b = np.array([[0.0, 1.0]]), np.array([[0.5, 2.0]])
    for inner, near in ((3000.0, 0.75), (1.0, 1.5)):
        dist = fg_distance(a, b, q=3000.0, inner=inner)[0]
        assert dist == pytest.approx(scaled_enumeration(a, b, 3000.0, inner), rel=1e-12)
        assert dist == pytest.approx(near, rel=1e-3)


def test_infinite_order_honours_the_inner_norm():
    # matched, the points cost |0 - 0.5| + |1 - 2| = 1.5 in the 1-norm (1 in
    # the inf-norm); on the diagonal they cost 1 and 1.5 (0.5 and 0.75)
    a, b = np.array([[0.0, 1.0]]), np.array([[0.5, 2.0]])
    assert fg_distance(a, b, q=np.inf, inner=1.0)[0] == 1.5
    assert fg_distance(a, b, q=np.inf)[0] == 0.75


# diagrams of integer points: many tied costs, and often none at all
tied_diagrams = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda bk: (bk[0], bk[0] + bk[1])),
    max_size=6,
).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 2))


@settings(max_examples=200, deadline=None)
@given(tied_diagrams, tied_diagrams)
def test_bottleneck_matching_is_valid(a, b):
    """The returned pairs use every point of each diagram exactly once, and
    their largest cost is the returned distance."""
    dist, matching = bottleneck_distance(a, b)
    assert sorted(i for i, _ in matching.pairs if i >= 0) == list(range(len(a)))
    assert sorted(j for _, j in matching.pairs if j >= 0) == list(range(len(b)))
    costs = [
        np.abs(a[i] - b[j]).max() if i >= 0 and j >= 0
        else (a[i, 1] - a[i, 0]) / 2 if i >= 0
        else (b[j, 1] - b[j, 0]) / 2
        for i, j in matching.pairs
    ]
    assert max(costs, default=0.0) == dist == matching.cost


@pytest.mark.parametrize("kwargs", [
    {"q": 0.0}, {"q": -1.0}, {"q": 0.5}, {"q": np.nan},
    {"q": 2.0, "inner": 0.0}, {"q": 2.0, "inner": np.nan}, {"q": np.inf, "inner": -1.0},
])
def test_orders_outside_one_to_inf_are_rejected(kwargs):
    bad = kwargs.get("inner", kwargs["q"])
    with pytest.raises(ValueError, match=f"must lie in \\[1, inf\\], got {bad}"):
        fg_distance([[0.0, 1.0]], [[0.0, 2.0]], **kwargs)


def test_fg_infinite_order_equals_bottleneck(rng):
    a, b = random_diagram(rng), random_diagram(rng)
    dist, _ = fg_distance(a, b, q=np.inf)
    assert dist == pytest.approx(bottleneck_distance(a, b)[0], abs=1e-12)


def test_bottleneck_prefers_direct_match():
    cost, matching = bottleneck_distance(
        np.array([[0.0, 4.0]]), np.array([[0.0, 3.0]])
    )
    assert cost == pytest.approx(1.0)
    assert (0, 0) in matching.pairs


def test_metric_axioms(rng):
    for _ in range(30):
        a, b, c = (random_diagram(rng, 3) for _ in range(3))
        dab, _ = fg_distance(a, b)
        dba, _ = fg_distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        dac, _ = fg_distance(a, c)
        dcb, _ = fg_distance(c, b)
        assert dab <= dac + dcb + 1e-9


def test_identity_of_indiscernibles():
    a = np.array([[0.0, 1.0]])
    b = np.array([[0.0, 1.2]])
    dist, _ = fg_distance(a, b)
    assert dist > 0


def test_lower_star_stability(rng):
    """Bottleneck distance bounded by the sup-norm of the value perturbation."""
    cx = build_complex(
        [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]]
    )
    fam = LowerStar(cx)
    for _ in range(100):
        f = rng.uniform(0, 1, size=4)
        delta = rng.uniform(-0.1, 0.1, size=4)
        dgm_f = build_diagram(fam.filtration(f))
        dgm_g = build_diagram(fam.filtration(f + delta))
        for dim in set(dgm_f.dims()) | set(dgm_g.dims()):
            d, _ = bottleneck_distance(dgm_f.ordinary(dim), dgm_g.ordinary(dim))
            assert d <= np.abs(delta).max() + 1e-12


@pytest.mark.parametrize("q", [2.0, np.inf])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_points_are_rejected_for_every_order(q, bad):
    with pytest.raises(ValueError, match="finite diagram points"):
        fg_distance([[0.0, bad]], np.empty((0, 2)), q=q)
    with pytest.raises(ValueError, match="finite diagram points"):
        fg_distance([[0.0, 1.0]], [[bad, 2.0]], q=q)
    with pytest.raises(ValueError, match="finite diagram points"):
        bottleneck_distance([[0.0, bad]], np.empty((0, 2)))


def test_essential_points_dropped_silently():
    cx = build_complex([[0, 1]])
    f = Filtration(cx, np.array([0.0, 0.5, 1.0]))
    dgm = build_diagram(f)
    # passing a full diagram object must not raise despite essential points
    dist, _ = fg_distance(dgm.ordinary(0), np.empty((0, 2)))
    assert np.isfinite(dist)


def test_matching_io_roundtrip(tmp_path, rng):
    a, b = random_diagram(rng, 4), random_diagram(rng, 4)
    _, matching = fg_distance(a, b)
    path = tmp_path / "matching.csv"
    write_matching(path, matching)
    m2 = read_matching(path)
    assert m2.pairs == matching.pairs


SCIPY_ON_FIRST_MATCH = """
import sys
import tempfile

import numpy as np

from topo_opt import (DescentConfig, VietorisRips, bottleneck_distance, descend,
                      diffeo_interpolate, distributed_gradient, fg_distance)
from topo_opt.experiments import ExperimentSpec, circle_loss, gen_circle, run_experiment


def scipy_matchers():
    return sorted(m for m in sys.modules
                  if m == "scipy.optimize" or m.startswith("scipy.sparse"))


assert scipy_matchers() == [], scipy_matchers()
loss, reg = circle_loss()
X = gen_circle(12, seed=0)
descend(VietorisRips(len(X), max_dim=2), X, loss,
        DescentConfig(method="vanilla", steps=2, lr=0.1), regularizer=reg)
X = gen_circle(40, outlier=False, seed=0)
g = distributed_gradient(VietorisRips(len(X), max_dim=2), X, loss, n_sub=1, s=8,
                         rng=np.random.default_rng(0))
diffeo_interpolate(X, g, sigma=0.5)
with tempfile.TemporaryDirectory() as out:
    run_experiment(ExperimentSpec(n_points=8, methods=("vanilla",), etas=(0.1,),
                                  gammas=(1.0,), steps=1, snapshot_steps=(0,)), out)
assert scipy_matchers() == [], scipy_matchers()
assert abs(fg_distance([[0.0, 2.0]], np.empty((0, 2)))[0] - np.sqrt(2)) < 1e-12
assert bottleneck_distance([[0.0, 2.0]], [[0.0, 2.5]])[0] == 0.5
assert "scipy.optimize" in sys.modules
print("ok")
"""


SCIPY_BEFORE_THE_FIRST_CELL = """
import sys
import tempfile

from topo_opt import experiments

loaded = []


def descend(*args, **kwargs):
    loaded.append("scipy.optimize" in sys.modules)
    return plain_descend(*args, **kwargs)


plain_descend, experiments.descend = experiments.descend, descend
with tempfile.TemporaryDirectory() as out:
    experiments.run_experiment(experiments.ExperimentSpec(
        n_points=8, methods=("continuation",), etas=(0.1,), gammas=(1.0,), steps=1,
        snapshot_steps=(0,)), out)
assert loaded == [True], loaded
print("ok")
"""


def run_fresh(script: str) -> str:
    """The standard output of ``script`` run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_scipy_is_imported_by_the_first_match_only():
    """Importing the package, vanilla, distributed and diffeo steps and a
    vanilla-only grid load no scipy solver; the first match does, and both
    distances still work."""
    assert run_fresh(SCIPY_ON_FIRST_MATCH) == "ok"


def test_a_continuation_grid_loads_the_solver_before_its_first_timed_cell():
    """The first match's scipy import is not charged to a cell's time."""
    assert run_fresh(SCIPY_BEFORE_THE_FIRST_CELL) == "ok"


def test_ground_distance_does_not_underflow_at_a_large_inner_order():
    # both coordinate gaps (0.1, 0.3) are below 1, so their 3000-th powers
    # underflow; matched, the points cost 0.3 * (1 + 3^-3000)^(1/3000) = 0.3,
    # less than b's diagonal distance 0.6 / 2^(1 - 1/3000) > 0.30006
    a, b = np.array([[0.1, 0.5]]), np.array([[0.2, 0.8]])
    for q in (np.inf, 3000.0):
        dist, matching = fg_distance(a, b, q=q, inner=3000.0)
        assert dist == pytest.approx(0.3, rel=1e-12)
        assert matching.pairs == [(0, 0)]
