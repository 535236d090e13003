"""Primitive lattice vectors and the bijection between multiplicity
distributions and convex polygonal lines.

A convex polygonal line here is a piecewise-linear path from (0,0) whose steps
are nonnegative lattice vectors with strictly increasing edge slopes.  Such a
line is the same thing as a finitely supported map omega from the set of
primitive vectors (coprime coordinates, first quadrant) to positive integers:
each primitive direction x used by the line appears with multiplicity
omega(x), and sorting directions by slope (`_slope_order`, the package's one
exact slope order) rebuilds the line.  The number of vertices K is the
support size, so a line with K = k has k+1 lattice points counting both
endpoints.
"""

from __future__ import annotations

import contextlib
import functools
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


def _int_rows(pairs) -> np.ndarray:
    """The integer pairs as an exact (n, 2) array: int64 while each column's
    absolute sum is below 2^62, so that every difference and partial sum of
    rows fits, and Python ints (dtype object) past that.  An (n, 2) int64
    array that passes that test is returned as it is."""
    if isinstance(pairs, np.ndarray) and pairs.dtype == np.int64 and pairs.shape[1:] == (2,):
        if np.abs(pairs, dtype=float).sum(axis=0).max() < 2.0**62:
            return pairs
        return pairs.astype(object)
    pairs = tuple(pairs)
    with contextlib.suppress(OverflowError, ValueError):  # past int64, or not all pairs
        xy = np.fromiter(chain.from_iterable(pairs), np.int64).reshape(-1, 2)
        if len(xy) == len(pairs) and np.abs(xy, dtype=float).sum(axis=0).max() < 2.0**62:
            return xy
    return np.array([(int(p[0]), int(p[1])) for p in pairs], dtype=object).reshape(-1, 2)


def _turns(d: np.ndarray) -> np.ndarray:
    """u.x1*v.x2 - u.x2*v.x1 for each pair of neighbouring rows u, v of `d`,
    positive where the slope strictly increases (convexity): exact, in int64
    while every coordinate is below 2^31 in magnitude, Python ints past it."""
    if d.dtype != object and d.size and (d.max() >= 1 << 31 or d.min() <= -(1 << 31)):
        d = d.astype(object)
    u, v = d[:-1], d[1:]
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _slope_order(xy: np.ndarray) -> np.ndarray:
    """Indices that put the rows of `xy`, nonzero vectors of the closed first
    quadrant, in increasing slope order: (1,0) first, (0,1) last.

    A stable argsort on the float key x2/x1 proposes the order and `_turns`
    confirms it; an exact comparison sort runs only when a pair is out of
    order, or at once on an object array.  Equal slopes end up adjacent.
    """
    if xy.dtype != object:
        with np.errstate(divide="ignore", invalid="ignore"):  # (0, 1) gets slope inf
            order = np.argsort(xy[:, 1] / xy[:, 0], kind="stable")
        if np.all(_turns(xy[order]) >= 0):
            return order
    rows = xy.tolist()
    return np.array(sorted(range(len(rows)), key=functools.cmp_to_key(
        lambda i, j: rows[i][1] * rows[j][0] - rows[i][0] * rows[j][1])), dtype=np.intp)


def slope_sorted(vectors) -> list[Vec]:
    """Sort primitive vectors by slope, (1,0) first, (0,1) last, exactly
    (`_slope_order`); distinct primitive vectors cannot tie."""
    vectors = tuple(vectors)
    return [vectors[i] for i in _slope_order(_int_rows(vectors)).tolist()]


def _primes(n: int) -> np.ndarray:
    """The primes up to n, ascending, by the sieve of Eratosthenes."""
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    return np.flatnonzero(prime)


# cells of a `_primitive_grid` row block: a 512 kB bool sieve whose index
# arrays stay in cache while `gibbs._site_arrays` filters them, in blocks few
# enough rows deep that clipping each to its first row's extent keeps little
# more than the triangle of a linear set
_GRID_BLOCK = 1 << 19


def _primitive_grid(n1: int, n2: int, width=None):
    """Yield the primitive vectors of the box [0, n1] x [0, n2] as int64
    (x1, x2) array pairs, a block of rows at a time, row-major in x1.

    This sieve is the package's one primitive-vector enumerator: a block
    starts all true, and each prime p <= min(n1, n2) clears its cells with
    p | x1 and p | x2; on the axes only (1, 0) and (0, 1) stay.  With
    `width`, the block that starts at row x0 covers only the columns
    x2 < width(x0), for a caller that keeps nothing past them in that row or
    any later one.  A grid over SITE_BUDGET cells is refused with
    `ResourceWarning` before any row is built.
    """
    cells = (n1 + 1) * (n2 + 1)
    if cells > SITE_BUDGET:
        raise ResourceWarning(
            f"a {n1 + 1}x{n2 + 1} primitive-vector grid ({cells:.2e} cells) "
            f"is over the budget {SITE_BUDGET:.2e}"
        )
    primes = _primes(min(n1, n2)).tolist()
    x0 = 0
    while x0 <= n1:
        w = n2 + 1 if width is None else min(n2 + 1, width(x0))
        rows = min(max(1, _GRID_BLOCK // w), n1 + 1 - x0)
        keep = np.ones((rows, w), dtype=bool)
        for p in primes:
            keep[-x0 % p :: p, ::p] = False
        keep[:, 0] = False
        if x0 <= 1 < x0 + rows:
            keep[1 - x0, 0] = True
        if x0 == 0:
            keep[0, 2:] = False
        idx = np.flatnonzero(keep)
        del keep
        x1, x2 = np.divmod(idx, w)
        del idx
        x1 += x0
        x0 += rows
        yield x1, x2


def primitive_vectors_in_box(n1: int, n2: int) -> list[Vec]:
    """All primitive vectors with x1 <= n1, x2 <= n2, in increasing slope order:
    the `_primitive_grid` rows put in `_slope_order`."""
    if n1 < 1 or n2 < 1:
        raise ValueError("box sides must be >= 1")
    xy = np.concatenate([np.column_stack(r) for r in _primitive_grid(n1, n2)])
    xy = xy[_slope_order(xy)]
    return list(zip(xy[:, 0].tolist(), xy[:, 1].tolist()))


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
        return [(x, self.support[x]) for x in slope_sorted(self.support)]

    def to_json(self) -> str:
        rows = [[x[0], x[1], m] for x, m in self.items_slope_sorted()]
        return json.dumps({"support": rows})

    @classmethod
    def from_json(cls, text: str) -> "MultiplicityDistribution":
        data = json.loads(text)
        return cls({(int(r[0]), int(r[1])): int(r[2]) for r in data["support"]})

    def __hash__(self):
        return hash(tuple(sorted(self.support.items())))


@dataclass(frozen=True)
class ConvexPolyline:
    """Lattice path from (0,0): steps in the closed first quadrant, slopes
    strictly increasing edge to edge."""

    vertices: tuple[Vec, ...]

    def __post_init__(self):
        xy = _int_rows(self.vertices)
        verts = tuple(zip(xy[:, 0].tolist(), xy[:, 1].tolist()))
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("polyline needs at least the origin vertex")
        if verts[0] != (0, 0):
            raise ValueError("polyline must start at (0,0)")
        d = np.diff(xy, axis=0)
        off_quadrant = (d < 0).any(axis=1) | (d == 0).all(axis=1)
        bad = off_quadrant | np.append(False, _turns(d) <= 0)
        if bad.any():  # the first bad edge, its quadrant step checked first
            i = int(np.argmax(bad))
            if off_quadrant[i]:
                step = tuple(d[i].tolist())
                raise ValueError(f"edge {i} is not a nonzero quadrant step: {step}")
            raise ValueError(f"edge {i} does not increase the slope")

    def endpoint(self) -> Vec:
        return self.vertices[-1]

    def edges(self) -> list[Vec]:
        v = self.vertices
        return [(v[i][0] - v[i - 1][0], v[i][1] - v[i - 1][1]) for i in range(1, len(v))]

    def to_json(self) -> str:
        return json.dumps({"vertices": [[p[0], p[1]] for p in self.vertices]})

    @classmethod
    def from_json(cls, text: str) -> "ConvexPolyline":
        """The line of a `{"vertices": [[x, y], ...]}` object with integer x
        and y; anything else raises ValueError."""
        data = json.loads(text)
        rows = data.get("vertices") if isinstance(data, dict) else None
        if not (isinstance(rows, list) and all(
                isinstance(r, list) and len(r) == 2 and all(type(v) is int for v in r)
                for r in rows)):
            raise ValueError('a line must be {"vertices": [[x, y], ...]} with integer x and y')
        return cls(tuple((r[0], r[1]) for r in rows))


def _polyline(steps: np.ndarray) -> ConvexPolyline:
    """The polyline through the partial sums of `steps` from (0,0); they must fit its dtype."""
    pts = np.zeros((len(steps) + 1, 2), dtype=steps.dtype)
    np.cumsum(steps, axis=0, out=pts[1:])
    return ConvexPolyline(pts)


def omega_to_polyline(omega: MultiplicityDistribution) -> ConvexPolyline:
    """Partial sums of m*x in slope order; K+1 vertices, endpoint preserved."""
    steps = _int_rows((m * a, m * b) for (a, b), m in omega.support.items())
    return _polyline(steps[_slope_order(steps)])
