"""Primitive lattice vectors and the bijection between multiplicity
distributions and convex polygonal lines.

A convex polygonal line here is a piecewise-linear path from (0,0) whose steps
are nonnegative lattice vectors with strictly increasing edge slopes.  Such a
line is the same thing as a finitely supported map omega from the set of
primitive vectors (coprime coordinates, first quadrant) to positive integers:
each primitive direction x used by the line appears with multiplicity
omega(x), and sorting directions by slope rebuilds the line.  The number of
vertices K is the support size, so a line with K = k has k+1 lattice points
counting both endpoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .tolerances import SITE_BUDGET

__all__ = [
    "is_primitive",
    "slope_sorted",
    "primitive_vectors_in_box",
    "MultiplicityDistribution",
    "ConvexPolyline",
    "omega_to_polyline",
]

Vec = tuple[int, int]


def is_primitive(x1: int, x2: int) -> bool:
    """True iff (x1,x2) is a valid primitive direction (coprime, not origin)."""
    return x1 >= 0 and x2 >= 0 and math.gcd(x1, x2) == 1


def _cross(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def slope_sorted(vectors) -> list[Vec]:
    """Sort primitive vectors by slope, (1,0) first, (0,1) last.

    Comparison is the exact integer cross product u.x1*v.x2 - u.x2*v.x1 > 0,
    never floating division; distinct primitive vectors cannot tie.
    """
    import functools

    return sorted(vectors, key=functools.cmp_to_key(lambda u, v: -_cross(u, v)))


def _float_slope_order(vecs) -> list[Vec] | None:
    """`vecs` sorted by the float slope x2/x1, or None unless the exact
    integer cross product confirms every adjacent pair.

    Coordinates must stay below 2^31, so that the products fit in int64.
    Slopes of distinct primitive vectors never tie, so a confirmed order is
    the order of `slope_sorted`.
    """
    try:
        xy = np.fromiter(chain.from_iterable(vecs), np.int64, 2 * len(vecs)).reshape(-1, 2)
    except OverflowError:
        return None
    if xy.size and xy.max() >= 1 << 31:
        return None
    with np.errstate(divide="ignore"):  # (0, 1) gets slope inf
        xy = xy[np.argsort(xy[:, 1] / xy[:, 0], kind="stable")]
    u, v = xy[:-1], xy[1:]
    if not np.all(u[:, 0] * v[:, 1] > u[:, 1] * v[:, 0]):
        return None
    return list(zip(xy[:, 0].tolist(), xy[:, 1].tolist()))


def _primitive_grid(n1: int, n2: int):
    """Yield the primitive vectors of the box [0, n1] x [0, n2] as int64
    (x1, x2) array pairs, a block of rows at a time, row-major in x1.

    This gcd-grid scan is the package's one primitive-vector enumerator.  A
    grid over SITE_BUDGET cells is refused with `ResourceWarning` before any
    row is built.
    """
    cells = (n1 + 1) * (n2 + 1)
    if cells > SITE_BUDGET:
        raise ResourceWarning(
            f"a {n1 + 1}x{n2 + 1} primitive-vector grid ({cells:.2e} cells) "
            f"is over the budget {SITE_BUDGET:.2e}"
        )
    ys = np.arange(n2 + 1, dtype=np.int64)
    ys32 = ys.astype(np.int32)  # the budget keeps both sides below 2^31
    block = max(1, (1 << 22) // (n2 + 1))
    for x0 in range(0, n1 + 1, block):
        xs = np.arange(x0, min(x0 + block, n1 + 1), dtype=np.int64)
        bx, by = np.nonzero(np.gcd(xs.astype(np.int32)[:, None], ys32[None, :]) == 1)
        yield xs[bx], ys[by]


def primitive_vectors_in_box(n1: int, n2: int) -> list[Vec]:
    """All primitive vectors with x1 <= n1, x2 <= n2, in increasing slope order.

    Sorts the `_primitive_grid` rows by the float slope x2/x1 ((0,1) gets inf).
    The key is exact: two slopes in the box differ by at least 1/(n1*n2)
    relative, and the site budget keeps n1*n2 far below 2^51.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("box sides must be >= 1")
    rows = list(_primitive_grid(n1, n2))
    x1 = np.concatenate([r[0] for r in rows])
    x2 = np.concatenate([r[1] for r in rows])
    with np.errstate(divide="ignore"):
        order = np.argsort(x2 / x1, kind="stable")
    return list(zip(x1[order].tolist(), x2[order].tolist()))


@dataclass(frozen=True)
class MultiplicityDistribution:
    """Finitely supported map from primitive vectors to positive multiplicities."""

    support: dict[Vec, int] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[Vec, int] = {}
        for x, m in self.support.items():
            x = (int(x[0]), int(x[1]))
            m = int(m)
            if m == 0:
                continue  # zero entries are normalized away
            if m < 0:
                raise ValueError(f"negative multiplicity {m} at {x}")
            if not is_primitive(*x):
                raise ValueError(f"{x} is not a primitive vector")
            clean[x] = m
        object.__setattr__(self, "support", clean)

    @property
    def vertex_count(self) -> int:
        return len(self.support)

    def endpoint(self) -> Vec:
        e1 = sum(m * x[0] for x, m in self.support.items())
        e2 = sum(m * x[1] for x, m in self.support.items())
        return (e1, e2)

    def items_slope_sorted(self) -> list[tuple[Vec, int]]:
        vecs = list(self.support)
        ordered = _float_slope_order(vecs)
        if ordered is None:
            ordered = slope_sorted(vecs)
        return [(x, self.support[x]) for x in ordered]

    def to_json(self) -> str:
        rows = [[x[0], x[1], m] for x, m in self.items_slope_sorted()]
        return json.dumps({"support": rows})

    @classmethod
    def from_json(cls, text: str) -> "MultiplicityDistribution":
        data = json.loads(text)
        return cls({(int(r[0]), int(r[1])): int(r[2]) for r in data["support"]})

    def __eq__(self, other):
        if not isinstance(other, MultiplicityDistribution):
            return NotImplemented
        return self.support == other.support

    def __hash__(self):
        return hash(tuple(sorted(self.support.items())))


@dataclass(frozen=True)
class ConvexPolyline:
    """Lattice path from (0,0): steps in the closed first quadrant, slopes
    strictly increasing edge to edge."""

    vertices: tuple[Vec, ...]

    def __post_init__(self):
        verts = tuple((int(p[0]), int(p[1])) for p in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("polyline needs at least the origin vertex")
        if verts[0] != (0, 0):
            raise ValueError("polyline must start at (0,0)")
        prev_edge = None
        for i in range(1, len(verts)):
            d = (verts[i][0] - verts[i - 1][0], verts[i][1] - verts[i - 1][1])
            if d == (0, 0) or d[0] < 0 or d[1] < 0:
                raise ValueError(f"edge {i - 1} is not a nonzero quadrant step: {d}")
            if prev_edge is not None and _cross(prev_edge, d) <= 0:
                raise ValueError(f"edge {i - 1} does not increase the slope")
            prev_edge = d

    def endpoint(self) -> Vec:
        return self.vertices[-1]

    def edges(self) -> list[Vec]:
        v = self.vertices
        return [(v[i][0] - v[i - 1][0], v[i][1] - v[i - 1][1]) for i in range(1, len(v))]

    def to_json(self) -> str:
        return json.dumps({"vertices": [[p[0], p[1]] for p in self.vertices]})

    @classmethod
    def from_json(cls, text: str) -> "ConvexPolyline":
        data = json.loads(text)
        return cls(tuple((int(p[0]), int(p[1])) for p in data["vertices"]))


def omega_to_polyline(omega: MultiplicityDistribution) -> ConvexPolyline:
    """Partial sums of m*x in slope order; K+1 vertices, endpoint preserved."""
    pts = [(0, 0)]
    a = b = 0
    for x, m in omega.items_slope_sorted():
        a += m * x[0]
        b += m * x[1]
        pts.append((a, b))
    return ConvexPolyline(tuple(pts))

