"""Tests for the limit-curve geometry: parabola/circle/mixed family,
curve length, normalization, and Hausdorff distance."""

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexchain import shapes
from convexchain.cli import main
from convexchain.experiments import sample_valtr
from convexchain.gibbs import EnergyModel, GibbsParams, sample_omega
from convexchain.lattice import ConvexPolyline, omega_to_polyline
from convexchain.shapes import (
    ShapeCurve,
    hausdorff_distance,
    mixed_length,
    normalize,
    overlay_svg,
)
from oracles import POSITIVE_DOUBLES, hausdorff_brute, max_nearest_sq_windows

SQRT2 = math.sqrt(2.0)


def _slope(theta):
    # the curve parameter of the parabola at slope parameter theta
    return 1.0 if theta == math.inf else theta / (1.0 + theta)


def test_parabola_named_points():
    par = ShapeCurve.parabola()
    assert par.point(_slope(0.0)) == (0.0, 0.0)
    assert par.point(_slope(math.inf)) == (1.0, 1.0)
    x, y = par.point(_slope(1.0))
    assert (x, y) == pytest.approx((0.75, 0.25))
    assert math.sqrt(y) + math.sqrt(1.0 - x) == pytest.approx(1.0)


def test_parabola_on_curve_identity():
    # sqrt(y) + sqrt(1-x) = 1 along the whole unit-ratio curve
    rng = np.random.default_rng(0)
    thetas = rng.uniform(0.0, 50.0, 1000)
    for th in thetas:
        x, y = ShapeCurve.parabola().point(_slope(th))
        assert abs(math.sqrt(y) + math.sqrt(1.0 - x) - 1.0) <= 1e-12


def test_parabola_rejects_bad_args():
    with pytest.raises(ValueError):
        ShapeCurve.parabola().point(_slope(-0.5))
    with pytest.raises(ValueError):
        ShapeCurve.parabola(0.0)
    with pytest.raises(ValueError):
        ShapeCurve.parabola(-2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="ratio"):
            ShapeCurve.parabola(bad)


@given(st.floats(0.0, 1.0), st.floats(0.1, 10.0))
@settings(max_examples=120, deadline=None)
def test_parabola_curve_stays_in_unit_square(t, r):
    x, y = ShapeCurve.parabola(r).point(t)
    assert -1e-12 <= x <= 1.0 + 1e-12
    assert -1e-12 <= y <= 1.0 + 1e-12


@pytest.mark.parametrize("curve", [ShapeCurve.parabola(0.37), ShapeCurve.parabola(),
                                   ShapeCurve.parabola(2.5), ShapeCurve.circle()])
def test_point_is_the_sample_to_the_bit(curve):
    # at the mesh's own parameters (np.linspace, which can differ from
    # i/mesh in the last ulp), a point and the mesh come from one formula
    for mesh in (7, 999, 1000):
        pts = curve.sample(mesh)
        for i, t in enumerate(np.linspace(0.0, 1.0, mesh + 1).tolist()):
            assert curve.point(t) == tuple(pts[i].tolist())


@pytest.mark.parametrize("ratio", [1e-300, 1e300])
def test_extreme_parabolas_are_finite_unit_paths(ratio):
    curve = ShapeCurve.parabola(ratio)
    points = [curve.sample(1000),
              np.array([curve.point(t) for t in np.linspace(0.0, 1.0, 51).tolist()])]
    for pts in points:
        assert np.isfinite(pts).all()
        assert (pts[0] == 0.0).all() and (pts[-1] == 1.0).all()
        assert (np.diff(pts, axis=0) >= 0.0).all()


def test_circle_on_curve_identity():
    pts = ShapeCurve.circle().sample(1000)
    resid = pts[:, 0] ** 2 + (pts[:, 1] - 1.0) ** 2 - 1.0
    assert np.abs(resid).max() <= 1e-12


@pytest.mark.parametrize("curve", [
    ShapeCurve.parabola(), ShapeCurve.parabola(3.0), ShapeCurve.circle(),
    ShapeCurve.mixed(0.0), ShapeCurve.mixed(2.0), ShapeCurve.mixed(-0.6),
])
def test_curves_are_monotone_unit_paths(curve):
    pts = curve.sample(400)
    assert pts[0] == pytest.approx((0.0, 0.0), abs=1e-12)
    assert pts[-1] == pytest.approx((1.0, 1.0), abs=1e-8)
    assert (np.diff(pts, axis=0) >= -1e-12).all()


def test_mixed_zero_is_the_parabola():
    # same point set as the unit parabola: compare as graphs y(x)
    pts = ShapeCurve.mixed(0.0).sample(2000)
    y_ref = (1.0 - np.sqrt(np.clip(1.0 - pts[:, 0], 0.0, None))) ** 2
    assert np.abs(pts[:, 1] - y_ref).max() <= 1e-6


def test_mixed_large_is_the_circle():
    pts = ShapeCurve.mixed(1e3).sample(1000)
    y_ref = 1.0 - np.sqrt(np.clip(1.0 - pts[:, 0] ** 2, 0.0, None))
    assert np.abs(pts[:, 1] - y_ref).max() <= 1e-2


def test_mixed_point_matches_sample():
    c = ShapeCurve.mixed(0.7)
    pts = c.sample(32)
    # the angle 0.25*pi of the mesh's point 16 is the parameter 0.5
    x, y = c.point(0.5)
    assert (x, y) == pytest.approx(tuple(pts[16]), abs=1e-10)


def test_mixed_domain_edge_rejected():
    for bad in (-1.0 / SQRT2, -0.75, -5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda_ell"):
            ShapeCurve.mixed(bad)
        with pytest.raises(ValueError, match="lambda_ell"):
            mixed_length(bad)


def test_mixed_length_special_values():
    assert mixed_length(0.0) == pytest.approx(
        1.0 + math.log(1.0 + SQRT2) / SQRT2, abs=1e-9)
    assert mixed_length(1e3) == pytest.approx(math.pi / 2.0, abs=1e-2)


def test_mixed_curve_past_the_cube_overflow_is_the_circle(capsys):
    # (lambda+1)^3 overflows past lambda_ell ~ 5.6e102; the weight
    # ((lambda+1)/(lambda+cos))^3 stays finite, and the family is the circle
    assert mixed_length(1e200) == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert mixed_length(1e308) == pytest.approx(math.pi / 2.0, abs=1e-12)
    # the CSV row keeps 12 digits, the JSON one all of them
    assert main(["mixed-shapes", "--grid", "1e300"]) == 0
    assert capsys.readouterr().out == "lambda_ell,length\n1e+300,1.57079632679\n"
    assert main(["mixed-shapes", "--grid", "1e300", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["length"] == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert ShapeCurve.mixed(1e200).point(1.0) == pytest.approx((1.0, 1.0), abs=1e-8)


def test_mixed_length_decreases_toward_circle():
    # observation, not a theorem: L(0) = 1.6232 > pi/2, and the family
    # shortens monotonically toward the circle value on this grid
    vals = [mixed_length(v) for v in (0.0, 1.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(SQRT2 < v < 2.0 for v in vals)
    assert vals[-1] > math.pi / 2.0


def test_normalize_lattice_line():
    line = ConvexPolyline(((0, 0), (3, 1), (5, 4), (6, 8)))
    norm = normalize(line, (6, 8))
    assert norm.shape == (4, 2) and not norm.flags.writeable
    assert norm[0] == pytest.approx((0.0, 0.0))
    assert norm[-1] == pytest.approx((1.0, 1.0))
    for bad in ((0, 8), (math.inf, 8), (6, math.nan)):
        with pytest.raises(ValueError, match="scale"):
            normalize(line, bad)
    with pytest.raises(ValueError, match="finite"):
        normalize([[0.0, 0.0], [math.nan, 1.0]], (1, 1))


@settings(max_examples=40, deadline=None)
@given(value=POSITIVE_DOUBLES)
@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("line", [[[0.0, 0.0], [5.0, 1.0], [12.0, 15.0]],
                                  [[0.0, 0.0], [1e308, 1e308]]], ids=["small", "huge"])
def test_normalize_is_finite_or_names_the_scale(line, component, value):
    scale = [1.0, 1.0]
    scale[component] = value
    try:
        norm = normalize(line, tuple(scale))
    except ValueError as refused:
        assert str(refused).startswith("scale ")
    else:
        assert np.isfinite(norm).all()


def test_normalize_degenerate_line():
    norm = normalize(ConvexPolyline(((0, 0),)), (10, 10))
    assert norm.shape == (1, 2)
    # the distance from the lone origin point to a unit curve is the curve's
    # farthest point from the origin, which is (1,1) for both named curves
    d = hausdorff_distance(norm, ShapeCurve.circle(), mesh=500)
    assert d == pytest.approx(SQRT2, abs=1e-4)


def test_hausdorff_self_distance_small():
    par = ShapeCurve.parabola()
    own = normalize(par.sample(10**4), (1, 1))
    assert hausdorff_distance(own, par, mesh=10**4) <= 2e-4


def test_hausdorff_diagonal_vs_parabola():
    diag = normalize(np.array([[0.0, 0.0], [1.0, 1.0]]), (1, 1))
    d = hausdorff_distance(diag, ShapeCurve.parabola(), mesh=2000)
    # the extreme parabola point (3/4, 1/4) sits 1/(2*sqrt(2)) off the diagonal
    assert d > 0.1
    assert d == pytest.approx(1.0 / (2.0 * SQRT2), abs=1e-3)


def test_hausdorff_swap_symmetry():
    par, circ = ShapeCurve.parabola(), ShapeCurve.circle()
    d1 = hausdorff_distance(normalize(par.sample(500), (1, 1)), circ, 2000)
    d2 = hausdorff_distance(normalize(circ.sample(500), (1, 1)), par, 2000)
    assert abs(d1 - d2) <= 5e-3


def test_hausdorff_input_validation():
    line = normalize(np.array([[0.0, 0.0], [1.0, 1.0]]), (1, 1))
    with pytest.raises(ValueError):
        hausdorff_distance(line, ShapeCurve.circle(), mesh=50)
    with pytest.raises(ValueError):
        hausdorff_distance(np.empty((0, 2)), ShapeCurve.circle(), mesh=500)
    with pytest.raises(ValueError, match="at least one point"):
        hausdorff_distance(line, np.empty((0, 2)), mesh=500)
    for bad in ([[0.0, 0.0], [math.nan, 1.0]], [[0.0, math.inf]], [[-math.inf, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            hausdorff_distance(bad, line, mesh=500)
        with pytest.raises(ValueError, match="finite"):
            hausdorff_distance(line, bad, mesh=500)
    for bad in (np.zeros((3, 3)), np.zeros((2, 2, 2)), [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            hausdorff_distance(bad, line, mesh=500)
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            hausdorff_distance(line, bad, mesh=500)


def test_hausdorff_refuses_a_distance_that_overflows():
    # the scale leaves the points finite (~1e301), their squares do not; the
    # refusal comes before any arithmetic that would warn
    pin = ConvexPolyline(((0, 0), (5, 1), (9, 4), (11, 9), (12, 15)))
    far = np.array([[0.0, 0.0], [1e300, 1e300]])  # a segment whose square overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in [(1e-300, 1), (1, 1e-300)]:
            with pytest.raises(ValueError, match="not finite"):
                hausdorff_distance(normalize(pin, scale), ShapeCurve.parabola())
        with pytest.raises(ValueError, match="not finite"):
            hausdorff_distance(far, far)
        # large coordinates whose distances stay finite are measured as before
        assert hausdorff_distance(np.array([[5e153, 0.0]]), ShapeCurve.parabola()) == 5e153 - 1.0
        assert hausdorff_distance(np.array([[1e200, 1e200]]), np.array([[1e200, 1e200]])) == 0.0


def test_meshes_and_searches_over_budget_are_refused():
    line = normalize(np.array([[0.0, 0.0], [1.0, 1.0]]), (1, 1))
    for curve in (ShapeCurve.parabola(), ShapeCurve.mixed(0.5)):
        with pytest.raises(ResourceWarning, match="over the budget"):
            curve.sample(shapes.MESH_BUDGET + 1)
        with pytest.raises(ResourceWarning, match="over the budget"):
            hausdorff_distance(line, curve, mesh=shapes.MESH_BUDGET + 1)
    # the diagonal against the parabola at mesh 1000 takes one window
    # search of 3.8e3 pairs, the first direction's seeds': their max bounds
    # every other query of both directions
    with mock.patch.object(shapes, "PAIR_BUDGET", 10**3), \
            pytest.raises(ResourceWarning, match="pairs, over the budget"):
        hausdorff_distance(line, ShapeCurve.parabola(), mesh=1000)
    with mock.patch.object(shapes, "PAIR_BUDGET", 10**6):
        assert hausdorff_distance(line, ShapeCurve.parabola(), mesh=1000) > 0.3


_coord = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
# a small pool makes duplicate points likely
_points = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=25))


@given(_points, _points, st.booleans(), st.booleans(),
       st.sampled_from([0.0, 1e6, -3e7]), st.sampled_from([0.0, 0.1, 1e6 + 0.5, -3e7]))
@settings(max_examples=300, deadline=None)
def test_hausdorff_matches_brute_force(line, curve, chain, monotone_curve, apart, offset):
    # exact float equality with all pairs, on sets in any order, with
    # duplicates, single points and sets far apart; `chain` and
    # `monotone_curve` sort a side's columns into a monotone set, which
    # takes the narrowed windows, and `offset` moves both sides far out,
    # where x + y rounds coarsely
    line, curve = np.array(line) + offset, np.array(curve) + apart + offset
    if chain:
        line = np.sort(line, axis=0)
    if monotone_curve:
        curve = np.sort(curve, axis=0)
    expect = hausdorff_brute(shapes._densify(line, 100), curve)
    assert hausdorff_distance(line, curve, mesh=100) == expect
    # pair blocks of 3 split windows across blocks
    with mock.patch.object(shapes, "_PAIR_BLOCK", 3):
        assert hausdorff_distance(line, curve, mesh=100) == expect
    # one seed query, and seeds past every side (each query searched in the
    # first search)
    for seeds in (1, 10**6):
        with mock.patch.object(shapes, "_SEED", seeds):
            assert hausdorff_distance(line, curve, mesh=100) == expect


def _gibbs(energy, count):
    params = GibbsParams(energy, 1.0)
    return [normalize(poly, poly.endpoint())
            for poly in (omega_to_polyline(sample_omega(params, i)) for i in range(count))]


def _valtr(n, k, count):
    return [normalize(sample_valtr(n, k, seed=i), (n, n)) for i in range(count)]


@pytest.mark.parametrize("lines, curve, mesh", [
    (lambda: _gibbs(EnergyModel.euclidean(0.5), 3), ShapeCurve.circle(), 10**4),
    (lambda: _gibbs(EnergyModel.euclidean(0.1), 3), ShapeCurve.circle(), 10**4),
    (lambda: _gibbs(EnergyModel.linear(0.02, 0.02), 5), ShapeCurve.parabola(), 1000),
    (lambda: _valtr(10**4, 20, 5), ShapeCurve.parabola(), 1000),
], ids=["euclidean-0.5", "euclidean-0.1", "linear-0.02", "valtr-1e4-20"])
def test_search_matches_one_window_per_query(lines, curve, mesh):
    # coarse lines far from the curve and fine ones near it, both directions
    sampled = shapes._by_s(curve.sample(mesh))
    for line in lines():
        dense = shapes._by_s(shapes._densify(line, mesh))
        for query, points in ((dense, sampled), (sampled, dense)):
            assert shapes._max_nearest_sq(query, points) == max_nearest_sq_windows(query, points)


def test_every_query_past_the_seeds_can_reach_the_last_phase(monkeypatch):
    # points on the anti-diagonal x + y = 0; 16 queries 0.07 off its first
    # points are the farthest from their s-order neighbour (its last point),
    # and set cmax = 0.005; 101 queries 0.7 off its other half have no point
    # within sqrt(cmax), and each is searched once, in its whole window
    j = np.arange(201.0)
    points = np.column_stack([j, -j])
    query = np.vstack([np.column_stack([j[:16] + 0.05, -j[:16] + 0.05]),
                       np.column_stack([j[100:] + 0.5, -j[100:] + 0.5])])
    searched, real = [], shapes._window_min

    def spy(qx, *args):
        searched.append(len(qx))
        return real(qx, *args)

    monkeypatch.setattr(shapes, "_window_min", spy)
    q, p = shapes._by_s(query), shapes._by_s(points)
    assert shapes._max_nearest_sq(q, p) == max_nearest_sq_windows(q, p) == 0.5
    assert searched == [16, 101]


def _searches(monkeypatch):
    # (queries, points) of each `_window_min` call
    searched, real = [], shapes._window_min

    def spy(qx, qy, qs, points, r):
        searched.append((len(qx), len(points[0])))
        return real(qx, qy, qs, points, r)

    monkeypatch.setattr(shapes, "_window_min", spy)
    return searched


# the segment (0,0)-(1,0), densified at mesh 100 into 103 points, against
# three points 0.1 above it: from the segment the farthest is (0.25, 0),
# 0.0725 squared from its nearest, and each of the three is at most 0.02
# squared from its neighbour in s order on the segment
_SEGMENT = np.array([[0.0, 0.0], [1.0, 0.0]])
_ABOVE = np.array([[0.0, 0.1], [0.5, 0.1], [1.0, 0.1]])


def test_the_second_direction_floor_can_skip_every_query(monkeypatch):
    searched = _searches(monkeypatch)
    d = hausdorff_distance(_SEGMENT, _ABOVE, mesh=100)
    assert d == hausdorff_brute(shapes._densify(_SEGMENT, 100), _ABOVE)
    assert d == pytest.approx(math.sqrt(0.0725))
    # the first direction's searches only: each query of the second has
    # d0 at or below the first direction's max
    assert searched and all(points == 3 for _, points in searched)


def test_the_second_direction_can_hold_the_larger_distance(monkeypatch):
    # a fourth point 2 above the segment: the largest distance is from the
    # curve's side, and the second direction searches only that one query,
    # the one above the first direction's result, in one search
    curve = np.vstack([_ABOVE, [[0.5, 2.0]]])
    dense = shapes._densify(_SEGMENT, 100)
    searched = _searches(monkeypatch)
    d = hausdorff_distance(_SEGMENT, curve, mesh=100)
    assert d == hausdorff_brute(dense, curve) == 2.0
    assert [s for s in searched if s[1] == len(dense)] == [(1, len(dense))]
    # with no floor, the same direction seeds with every one of its 4 queries
    searched.clear()
    q, p = shapes._by_s(curve), shapes._by_s(dense)
    assert shapes._max_nearest_sq(q, p) == 4.0
    assert searched == [(4, len(dense))]
    # a floor above the d0 of every query: no search, the floor comes back
    searched.clear()
    assert shapes._max_nearest_sq(q, p, floor=5.0) == 5.0
    assert searched == []


def test_the_second_direction_searches_no_more_pairs_than_without_a_floor(monkeypatch):
    # a tiny line in the circle's first corner: the second direction, from
    # the curve, holds the larger distance, and nearly every curve point is
    # above the first direction's result; its seeds raise the floor to about
    # the result, so it compares no more pairs than the same direction with
    # no floor (about _SEED times the line's points, not the square)
    line, curve, mesh = np.array([[0.0, 0.0], [0.01, 0.01]]), ShapeCurve.circle(), 10**4
    pairs = []
    monkeypatch.setattr(shapes, "check_budget", lambda what, need, *_: pairs.append(need)
                        if what == "the nearest-point search" else None)
    d = hausdorff_distance(line, curve, mesh=mesh)
    floored, pairs[:] = sum(pairs), []
    dense, sampled = shapes._by_s(shapes._densify(line, mesh)), shapes._by_s(curve.sample(mesh))
    unfloored = max(shapes._max_nearest_sq(dense, sampled), shapes._max_nearest_sq(sampled, dense))
    assert d == math.sqrt(unfloored)
    assert 0 < floored <= sum(pairs) < 50 * shapes._SEED * len(dense[0])


def test_the_s_merge_is_both_searchsorted_sides():
    rng = np.random.default_rng(3)
    for _ in range(50):
        # few distinct values, so that ties across and within sides are common
        qs = np.sort(rng.integers(0, 6, rng.integers(1, 12)).astype(float))
        ps = np.sort(rng.integers(0, 6, rng.integers(1, 12)).astype(float))
        kq, kp = shapes._s_ranks(qs, ps)
        assert kq.tolist() == np.searchsorted(ps, qs, "left").tolist()
        assert kp.tolist() == np.searchsorted(qs, ps, "right").tolist()


def test_csv_emitter_shape(capsys):
    # the CSV of a curve's samples is emitted by the `curve` command
    assert main(["curve", "--curve", "circle", "--mesh", "10"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,x,y"
    assert len(lines) == 12
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == pytest.approx(1.0, abs=1e-9)


def test_svg_emitter_deterministic():
    line = normalize(np.array([[0.0, 0.0], [0.5, 0.1], [1.0, 1.0]]), (1, 1))
    a = overlay_svg(line, ShapeCurve.parabola(), mesh=50)
    b = overlay_svg(line, ShapeCurve.parabola(), mesh=50)
    assert a == b
    assert a.startswith("<svg ")
    assert a.count("<polyline") == 2


@pytest.mark.parametrize("curve", [ShapeCurve.parabola(2.0), ShapeCurve.circle(),
                                   ShapeCurve.mixed(1.0)])
def test_sample_is_cached_read_only_and_exact(curve):
    pts = curve.sample(300)
    assert not pts.flags.writeable
    assert curve.sample(300) is pts
    assert pts.tobytes() == shapes._curve_mesh.__wrapped__(curve, 300).tobytes()
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0


@pytest.mark.parametrize("curve", [ShapeCurve.parabola(2.0), ShapeCurve.circle(),
                                   ShapeCurve.mixed(1.0)])
def test_sorted_mesh_is_cached_read_only_and_exact(curve):
    # the distance searches reuse one s-sorted mesh per (curve, mesh)
    by_s = shapes._curve_by_s(curve, 300)
    assert shapes._curve_by_s(curve, 300) is by_s
    want = shapes._by_s(curve.sample(300))
    assert by_s[3] == want[3]
    for got, w in zip(by_s[:3], want[:3]):
        assert not got.flags.writeable
        assert got.tobytes() == w.tobytes()
