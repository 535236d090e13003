"""Limit curves for normalized convex lattice lines, and the distance to them.

Three curve families live here: the parabola family with an aspect ratio
(the endpoint-constrained limit), the quarter circle traversed from (0,0)
to (1,1) (the length-constrained limit), and the one-parameter mixed family
that interpolates between them when both constraints are active.  On top of
those: the curve length L of the mixed family, normalization of lattice
lines into the unit square, a symmetric Hausdorff distance between a
polyline and a curve, and small SVG emitters for inspection.

Each curve has one evaluator, `_points`, behind both `ShapeCurve.point` and
`ShapeCurve.sample`, so a point and the mesh agree to the bit.  The
mixed-family coordinates are quotients of trigonometric integrals; they
are evaluated with adaptive Simpson bisection to absolute tolerance
CURVE_QUAD_TOL.  The parametrization is transcribed literally, and each
constructed mixed curve verifies eval(1) = (1,1) numerically — if that check
ever fires, the formulas were transcribed inconsistently and the error is
raised rather than patched.

The Hausdorff distance needs the largest distance from a point of one side
to its nearest point on the other.  Each side is sorted once by s = x + y,
and since |s_p - s_q| <= sqrt(2)*|p - q|, a point nearer to q than a bound
lies in one window of that order; on a side monotone in x and y (a lattice
chain or a catalogue curve) the window narrows to x and y within the same
distance.  The windows are exact, not heuristic: every point that could be
nearer is compared, with the same dx*dx + dy*dy as an all-pairs search.
Most points need no window at all: `_max_nearest_sq` skips each point
that a bound shows cannot be the largest (the early break of Taha and
Hanbury, IEEE TPAMI 37(11), 2015).  A mesh over MESH_BUDGET
and a search over PAIR_BUDGET pairs are refused by `check_budget`
before the work.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import ConvexPolyline
from .tolerances import CURVE_QUAD_TOL, MESH_BUDGET, PAIR_BUDGET, check_budget

__all__ = [
    "CURVE_QUAD_TOL",
    "ShapeCurve",
    "mixed_length",
    "normalize",
    "hausdorff_distance",
    "overlay_svg",
    "polylines_svg",
]

_QUARTER_PI = math.pi / 4.0
_SQRT2 = math.sqrt(2.0)
# pairs of points that `_window_min` compares at once, which bounds its
# memory (a few MB) for any point sets
_PAIR_BLOCK = 1 << 17
# queries that `_max_nearest_sq` searches first, for a lower bound on the rest
_SEED = 16
_MIXED_DOMAIN_EDGE = -1.0 / math.sqrt(2.0)
# coordinates below this in magnitude keep dx*dx + dy*dy finite
_SAFE = math.sqrt(np.finfo(float).max / 8.0)


def _adaptive_simpson(f, a, b, tol=CURVE_QUAD_TOL):
    """Classic adaptive Simpson with interval bisection and Richardson tail."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_split(f, a, b, fa, fm, fb, whole, tol, 48)


def _simpson_split(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise RuntimeError(
            f"adaptive quadrature stalled on [{a!r}, {b!r}]; integrand too "
            "sharply peaked for the requested tolerance"
        )
    return _simpson_split(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + \
        _simpson_split(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


def _check_mixed_domain(lambda_ell):
    if not _MIXED_DOMAIN_EDGE < lambda_ell < math.inf:
        raise ValueError(
            f"mixed curve is not evaluable at lambda_ell={lambda_ell!r}: "
            "it needs a finite lambda_ell > -1/sqrt(2)"
        )


def _mixed_weight(lambda_ell, shift=0.0):
    """u -> ((lambda+1)/(lambda+cos(u-shift)))^3, the weight of each mixed-family
    integrand: the family's scale (lambda+1)^-3 cancels in every quotient, and
    the weight is finite for every finite lambda > -1/sqrt(2)."""
    return lambda u: ((lambda_ell + 1.0) / (lambda_ell + math.cos(u - shift))) ** 3


@lru_cache(maxsize=64)
def _mixed_denominator(lambda_ell):
    # J, the weighted integral of cos(u) over [-pi/4, pi/4]; even integrand
    w = _mixed_weight(lambda_ell)
    return 2.0 * _adaptive_simpson(lambda u: math.cos(u) * w(u), 0.0, _QUARTER_PI,
                                   0.5 * CURVE_QUAD_TOL)


def _mixed_increment(lambda_ell, lo, hi, tol=CURVE_QUAD_TOL):
    """Unnormalized (dx, dy) of the mixed curve over angles [lo, hi]."""
    w = _mixed_weight(lambda_ell, _QUARTER_PI)
    return (_adaptive_simpson(lambda u: math.cos(u) * w(u), lo, hi, tol),
            _adaptive_simpson(lambda u: math.sin(u) * w(u), lo, hi, tol))


def mixed_length(lambda_ell):
    """Arc length sqrt(2)*N/J of the mixed limit curve, N the weighted integral of 1.

    L(0) = 1 + ln(1+sqrt(2))/sqrt(2) and L tends to pi/2 as lambda_ell
    grows (the circle); always strictly between sqrt(2) and 2.
    """
    _check_mixed_domain(lambda_ell)
    num = 2.0 * _adaptive_simpson(_mixed_weight(lambda_ell), 0.0, _QUARTER_PI,
                                  0.5 * CURVE_QUAD_TOL)
    return _SQRT2 * num / _mixed_denominator(lambda_ell)


@dataclass(frozen=True)
class ShapeCurve:
    """One member of the limit-curve catalogue, parametrized over t in [0,1].

    point(0) = (0,0), point(1) = (1,1), and both coordinates are
    nondecreasing in t.  Build instances through the factory classmethods.
    """

    kind: str
    ratio: float = 1.0
    lambda_ell: float = 0.0

    @classmethod
    def parabola(cls, ratio=1.0):
        if not 0.0 < ratio < math.inf:
            raise ValueError(f"aspect ratio must be positive and finite, got {ratio!r}")
        return cls(kind="parabola", ratio=float(ratio))

    @classmethod
    def circle(cls):
        return cls(kind="circle")

    @classmethod
    def mixed(cls, lambda_ell):
        _check_mixed_domain(lambda_ell)
        curve = cls(kind="mixed", lambda_ell=float(lambda_ell))
        end = curve.point(1.0)
        if max(abs(end[0] - 1.0), abs(end[1] - 1.0)) > 1e-8:
            raise RuntimeError(
                f"mixed-curve endpoint check failed at lambda_ell="
                f"{lambda_ell!r}: eval(1) = {end!r}, expected (1,1); the "
                "transcribed parametrization is inconsistent"
            )
        return curve

    def point(self, t):
        """The point at parameter t in [0,1], as a tuple of floats."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"curve parameter must lie in [0,1], got {t!r}")
        return tuple(_points(self, np.array([float(t)]))[0].tolist())

    def sample(self, mesh):
        """Points at t = i/mesh, i = 0..mesh, as a read-only (mesh+1, 2)
        float array, computed once per (curve, mesh)."""
        _check_mesh(mesh, 1)
        return _curve_mesh(self, mesh)


def _points(curve, t):
    """The points of `curve` at the nondecreasing parameters t, an (n, 2) array.

    Parabola: with a = t/(t + r(1-t)), the point (a(2-a), a^2); this is
    (th(th+2r), th^2)/(th+r)^2 at slope parameter th = t/(1-t), finite for
    every t in [0,1] and finite r > 0, and at r = 1 it traces
    sqrt(y) + sqrt(1-x) = 1.  Mixed: one cumulative pass of short
    quadratures from angle 0, at a tolerance shared among the steps.
    """
    if curve.kind == "parabola":
        a = t / (t + curve.ratio * (1.0 - t))
        return np.column_stack([a * (2.0 - a), a * a])
    angles = 0.5 * math.pi * t
    if curve.kind == "circle":
        return np.column_stack([np.sin(angles), 1.0 - np.cos(angles)])
    tol = max(1e-14, CURVE_QUAD_TOL / max(1, len(t) - 1))
    a = angles.tolist()
    steps = [_mixed_increment(curve.lambda_ell, lo, hi, tol) for lo, hi in zip([0.0, *a], a)]
    return np.cumsum(steps, axis=0) * (_SQRT2 / _mixed_denominator(curve.lambda_ell))


@lru_cache(maxsize=16)
def _curve_mesh(curve, mesh):
    out = _points(curve, np.linspace(0.0, 1.0, mesh + 1))
    out.setflags(write=False)
    return out


def _check_mesh(mesh, least):
    if mesh < least:
        raise ValueError(f"mesh must be at least {least}, got {mesh!r}")
    check_budget("a mesh", mesh, MESH_BUDGET, "points")


def normalize(line, scale):
    """Divide a lattice line's vertices componentwise by scale = (n1, n2).

    Accepts a ConvexPolyline or any finite (m, 2) array of points and returns
    a read-only (m, 2) float array.  A line with the exact endpoint (n1, n2)
    lands on (1,1); an empty-support line collapses to the single point (0,0).
    A scale that takes a point out of double range is refused.
    """
    n1, n2 = float(scale[0]), float(scale[1])
    if not (0.0 < n1 < math.inf and 0.0 < n2 < math.inf):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if isinstance(line, ConvexPolyline):
        line = line.xy
    with np.errstate(over="ignore"):  # an overflow here is what gets refused
        pts = _point_array(line, "line") / np.array([n1, n2])
    if not np.isfinite(pts).all():
        raise ValueError(f"scale {scale!r} takes the line's points out of double range")
    pts.setflags(write=False)
    return pts


def _densify(pts, mesh):
    """Polyline vertices plus mesh points spread evenly in arc length."""
    if pts.shape[0] == 1:
        return pts
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0.0:
        return pts[:1]
    grid = np.linspace(0.0, s[-1], mesh + 1)
    dense = np.column_stack([
        np.interp(grid, s, pts[:, 0]),
        np.interp(grid, s, pts[:, 1]),
    ])
    return np.vstack([pts, dense])


def _point_array(points, what):
    """`points` as a finite (m, 2) float array with m >= 1."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{what} points must form an (m, 2) array, got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError(f"degenerate {what}: need at least one point")
    if not np.isfinite(pts).all():
        raise ValueError(f"{what} points must be finite")
    return pts


def _by_s(pts):
    """The points sorted by s = x + y, as (x, y, s, monotone) with x and y
    separate columns; monotone says whether x and y are nondecreasing in
    that order too (a chain, or a curve of the catalogue)."""
    order = np.argsort(pts[:, 0] + pts[:, 1], kind="stable")
    x, y = pts[order, 0], pts[order, 1]
    return x, y, x + y, bool((np.diff(x) >= 0.0).all() and (np.diff(y) >= 0.0).all())


# one entry: the distance loops each reuse one (curve, mesh)
@lru_cache(maxsize=1)
def _curve_by_s(curve, mesh):
    """`_by_s` of `curve.sample(mesh)`, read-only, computed once per (curve, mesh)."""
    by_s = _by_s(curve.sample(mesh))
    for a in by_s[:3]:
        a.setflags(write=False)
    return by_s


def _max_nearest_sq(query, points):
    """Max over the query points of the squared distance to the nearest of
    `points` (both `_by_s` tuples), bit for bit the all-pairs value of
    dx*dx + dy*dy, in two `_window_min` searches.

    d0, the squared distance from q to its neighbours in s order, bounds
    q's nearest squared distance from above.  The first search takes the
    _SEED queries of largest d0, each within sqrt(d0); the max cmax of their
    nearest bounds the result from below.  A query with d0 <= cmax has a
    point that near, so it cannot raise the max and is never searched.  The
    second search takes every other query, each within its own sqrt(d0).
    Every radius is padded for the rounding of the sums it is compared
    with, and the max is one of the computed squared distances either way.
    """
    qx, qy, qs, _ = query
    px, py, ps, _ = points
    k = np.searchsorted(ps, qs)
    d0 = np.minimum(_sq_dist(qx, qy, px, py, np.maximum(k - 1, 0)),
                    _sq_dist(qx, qy, px, py, np.minimum(k, len(ps) - 1)))
    top = max(np.abs(px).max(), np.abs(py).max(), np.abs(qx).max(), np.abs(qy).max())
    pad = 8.0 * np.finfo(float).eps * top

    def nearest(i):
        # the nearest squared distance from each query i, within sqrt(d0)
        r = np.sqrt(d0[i]) * (1.0 + 1e-12) + pad
        return np.minimum(d0[i], _window_min(qx[i], qy[i], qs[i], points, r))

    m = min(_SEED, len(d0))
    seed = np.argpartition(d0, -m)[-m:]
    cmax = nearest(seed).max()
    left = d0 > cmax
    left[seed] = False
    rest = np.flatnonzero(left)
    if rest.size:
        cmax = max(cmax, nearest(rest).max())
    return cmax


def _window_min(qx, qy, qs, points, r):
    """The least squared distance from each query (qx, qy), s = qs, to the
    points (a `_by_s` tuple) in its window of radius r, inf where there are
    none: s within sqrt(2)*r of qs and, on monotone points, x and y within
    r.  The pairs are checked against PAIR_BUDGET before any is compared,
    then compared _PAIR_BLOCK at a time."""
    px, py, ps, monotone = points
    lo = np.searchsorted(ps, qs - _SQRT2 * r, "left")
    hi = np.searchsorted(ps, qs + _SQRT2 * r, "right")
    if monotone:
        lo = np.maximum(lo, np.maximum(np.searchsorted(px, qx - r, "left"),
                                       np.searchsorted(py, qy - r, "left")))
        hi = np.minimum(hi, np.minimum(np.searchsorted(px, qx + r, "right"),
                                       np.searchsorted(py, qy + r, "right")))
    size = np.maximum(hi - lo, 0)
    end = np.cumsum(size)
    pairs = int(end[-1])
    check_budget("the nearest-point search", pairs, PAIR_BUDGET, "pairs")
    best = np.full(len(qx), np.inf)
    for c0 in range(0, pairs, _PAIR_BLOCK):
        c1 = min(c0 + _PAIR_BLOCK, pairs)
        # the queries whose pairs meet [c0, c1), each clipped to it
        i0 = int(np.searchsorted(end, c0, "right"))
        i1 = int(np.searchsorted(end, c1, "left")) + 1
        start = end[i0:i1] - size[i0:i1]
        n = np.minimum(end[i0:i1], c1) - np.maximum(start, c0)
        j = np.arange(c0, c1) + np.repeat(lo[i0:i1] - start, n)
        d2 = _sq_dist(np.repeat(qx[i0:i1], n), np.repeat(qy[i0:i1], n), px, py, j)
        met = n > 0
        seg = np.minimum.reduceat(d2, (np.cumsum(n) - n)[met])
        idx = np.arange(i0, i1)[met]
        best[idx] = np.minimum(best[idx], seg)
    return best


def _overflows(pts, curve_pts):
    """Whether the distance search certainly meets an infinite squared
    distance: the square of a segment of the line, or of the gap between
    the two sides' least or greatest x or y (some point is that far or
    farther from every point of the other side).  Below _SAFE in magnitude
    no squared distance can overflow, so the common case costs two maxima."""
    if max(np.abs(pts).max(), np.abs(curve_pts).max()) < _SAFE:
        return False
    with np.errstate(over="ignore"):  # an overflow here is what gets refused
        seg = np.diff(pts, axis=0)
        gap = np.array([pts.min(axis=0) - curve_pts.min(axis=0),
                        pts.max(axis=0) - curve_pts.max(axis=0)])
        return bool(np.isinf((seg * seg).sum(axis=1)).any() or np.isinf(gap * gap).any())


def _sq_dist(qx, qy, px, py, j):
    dx = qx - px[j]
    dy = qy - py[j]
    return dx * dx + dy * dy


def hausdorff_distance(line, curve, mesh=1000):
    """Symmetric Hausdorff distance between a polyline and a curve.

    Both objects are discretized with ~mesh points (the polyline evenly in
    arc length plus its own vertices, the curve at mesh+1 parameter values).
    Each side lies within half the largest arc length g between neighbours
    of its discrete set, so by the triangle inequality the result is within
    (g_line + g_curve)/2 of the continuous distance, rounding aside.  The
    nearest points are found exactly by `_max_nearest_sq`.  Either side
    must be a finite (m, 2) point array, and a distance that overflows is
    refused with ValueError, before any work where `_overflows` shows it.
    """
    _check_mesh(mesh, 100)
    pts = _point_array(line, "polyline")
    curve_pts = curve.sample(mesh) if isinstance(curve, ShapeCurve) else \
        _point_array(curve, "curve")
    if _overflows(pts, curve_pts):
        raise ValueError("the distance is not finite: the squared distances of the points "
                         "overflow float arithmetic")
    dense = _by_s(_densify(pts, mesh))
    sampled = _curve_by_s(curve, mesh) if isinstance(curve, ShapeCurve) else _by_s(curve_pts)
    d = float(np.sqrt(np.maximum(_max_nearest_sq(dense, sampled),
                                 _max_nearest_sq(sampled, dense))))
    if not math.isfinite(d):
        raise ValueError(f"the distance is not finite ({d}): the points are too far "
                         "apart for float arithmetic")
    return d


def polylines_svg(polylines):
    """SVG of (points, stroke, width) polylines over the unit square.

    Unit-square viewBox with the y axis flipped to the usual mathematical
    orientation; output is deterministic for fixed inputs.
    """
    rows = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.05 -0.05 1.1 1.1" '
            'width="440" height="440">',
            '<rect x="0" y="0" width="1" height="1" fill="none" '
            'stroke="#cccccc" stroke-width="0.002"/>']
    for points, stroke, width in polylines:
        path = " ".join(f"{x:.6f},{1.0 - y:.6f}" for x, y in points)
        rows.append(f'<polyline points="{path}" fill="none" '
                    f'stroke="{stroke}" stroke-width="{width}"/>')
    return "\n".join([*rows, "</svg>"]) + "\n"


def overlay_svg(line, curve, mesh=400):
    """SVG of a normalized polyline (blue) overlaid on a limit curve (red)."""
    pts = np.atleast_2d(np.asarray(line, dtype=float))
    return polylines_svg([(curve.sample(mesh), "#d62728", "0.004"), (pts, "#1f77b4", "0.004")])
