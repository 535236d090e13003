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

Both are held as read-only integer arrays, omega as its directions `xy`
(n, 2) in row-major order with their multiplicities `mult` (n,), a line as
its vertices `xy` (K+1, 2): int64 while every column's absolute sum is below
2^62, Python ints (dtype object) past that.  The mapping `support` and the
tuple `vertices` are built only when read.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import types
from collections.abc import Sized
from itertools import chain

import numpy as np

from .tolerances import SITE_BUDGET, check_budget

__all__ = [
    "slope_sorted",
    "primitive_vectors_in_box",
    "MultiplicityDistribution",
    "ConvexPolyline",
    "omega_to_polyline",
]

Vec = tuple[int, int]


def _int_rows(rows, width=2) -> np.ndarray:
    """The rows, each of `width` integers, as an exact (n, width) array:
    int64 while each column's absolute sum is below 2^62, so that every
    difference and partial sum of rows fits, and Python ints (dtype object)
    past that.  Each column's sum is a float estimate over that column
    alone (`_columns_fit`), with no reduction across the short axis.  An
    (n, width) int64 array that passes that test is returned as it is.  The
    first row in input order that is not `width` values long, and then the
    first value that `operator.index` refuses (a float, a string, None),
    raises ValueError."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.shape[1:] == (width,):
        if _columns_fit(np.abs(rows.T, dtype=float, order="C")):
            return rows
        return rows.astype(object)
    rows = tuple(rows)
    for i, r in enumerate(rows):
        if not isinstance(r, Sized) or len(r) != width:
            raise ValueError(f"row {i} is {r!r}, not {width} values")
    # past int64 or not integers: the exact path decides
    with contextlib.suppress(OverflowError, TypeError, ValueError):
        xy = np.fromiter(map(operator.index, chain.from_iterable(rows)), np.int64)
        xy = xy.reshape(-1, width)
        if _columns_fit(np.abs(xy.T, dtype=float, order="C")):
            return xy
    exact = [[_index(v) for v in r] for r in rows]
    return np.array(exact, dtype=object).reshape(-1, width)


def _columns_fit(cols: np.ndarray) -> bool:
    """Whether each row of `cols`, a (width, n) C-ordered float array that
    holds one column of integers per row, sums below 2^62: a float
    estimate, one contiguous sum per column."""
    return bool(cols.sum(axis=1).max() < 2.0**62)


def _index(v) -> int:
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{v!r} is not an integer") from None


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
        if np.all(_turns(np.take(xy, order, axis=0)) >= 0):
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


# cells of a `_primitive_grid` row block: a 512 kB bool sieve that stays in
# cache while `gibbs._site_arrays` evaluates the block's energies and writes
# its sites into place, in blocks few enough rows deep that clipping each to
# its first row's extent keeps little more than the triangle of a linear set
_GRID_BLOCK = 1 << 19


def _primitive_grid(n1: int, n2: int, width=None):
    """The primitive vectors of the box [0, n1] x [0, n2], a block of rows at
    a time, row-major in x1: an iterator of (x0, keep), keep a (rows, w)
    bool array that is true at the cell (x0 + i, j) when it is primitive.

    This sieve is the package's one primitive-vector enumerator: a block
    starts all true, and each prime p <= min(n1, n2) clears its cells with
    p | x1 and p | x2; on the axes only (1, 0) and (0, 1) stay.  With
    `width`, the block that starts at row x0 covers only the columns
    x2 < width(x0), for a caller that keeps nothing past them in that row or
    any later one.  Each mask is the caller's to narrow in place.  A grid
    over SITE_BUDGET cells is refused by `check_budget` at the call, before
    any row is built.
    """
    check_budget(f"a {n1 + 1}x{n2 + 1} primitive-vector grid", (n1 + 1) * (n2 + 1),
                 SITE_BUDGET, "cells")
    return _sieve_blocks(n1, n2, width)


def _sieve_blocks(n1: int, n2: int, width):
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
        yield x0, keep
        x0 += rows


def _mask_rows(x0: int, keep: np.ndarray, out=None):
    """The (x1, x2) of the true cells of the `_primitive_grid` block
    (x0, keep), row-major, and their flat indices in `keep`: int64, or
    written into `out`, two integer arrays of the true-cell count that hold
    every coordinate (the Gibbs site set's are int32).  x2 is the flat index
    less x1 times the width, which is faster than `np.divmod`."""
    idx = np.flatnonzero(keep)
    w = keep.shape[1]
    x1, x2 = (None, None) if out is None else out
    x1 = np.floor_divide(idx, w, out=x1)
    x2 = np.subtract(idx, np.multiply(x1, w, out=x2), out=x2)
    x1 += x0
    return x1, x2, idx


def _box_rows(n1: int, n2: int) -> np.ndarray:
    """The primitive vectors of the box [0, n1] x [0, n2] as one (n, 2) int64
    array, row-major in x1: the `_primitive_grid` blocks stacked."""
    return np.concatenate([np.column_stack(_mask_rows(x0, keep)[:2])
                           for x0, keep in _primitive_grid(n1, n2)])


def primitive_vectors_in_box(n1: int, n2: int) -> list[Vec]:
    """All primitive vectors with x1 <= n1, x2 <= n2, in increasing slope order:
    the `_box_rows` put in `_slope_order`.  A side that `operator.index`
    refuses raises ValueError."""
    n1, n2 = _index(n1), _index(n2)
    if n1 < 1 or n2 < 1:
        raise ValueError("box sides must be >= 1")
    xy = _box_rows(n1, n2)
    xy = xy[_slope_order(xy)]
    return list(zip(xy[:, 0].tolist(), xy[:, 1].tolist()))


class MultiplicityDistribution:
    """Finitely supported map from primitive vectors to positive multiplicities.

    Built from a mapping {(x1, x2): m}, or from the (n, 2) directions
    `support` in row-major (x1, x2) order and their (n,) multiplicities
    `mult`, through one check: zero multiplicities are dropped, and the
    first other entry in input order with m < 0, a negative coordinate or
    gcd(x1, x2) != 1 is refused with ValueError, as are directions given
    twice or out of order.
    """

    def __init__(self, support=(), mult=None):
        if mult is None:
            rows = ((x[0], x[1], m) for x, m in support.items())
        else:  # other dtypes as Python ints: column_stack could round them to float
            support, mult = np.asarray(support), np.asarray(mult)
            rows = np.column_stack([support, mult]) if support.dtype == mult.dtype == np.int64 \
                else ((x[0], x[1], m) for x, m in zip(support.tolist(), mult.tolist()))
        rows = _int_rows(rows, 3)
        used = rows[:, 2] != 0
        if not used.all():
            rows = _int_rows(rows[used], 3)
        prime = np.gcd(rows[:, 0], rows[:, 1]) == 1
        if not prime.all() or rows.min(initial=0) < 0:
            i = int(np.argmax(~prime | (rows < 0).any(axis=1)))  # the first bad entry
            x, m = tuple(rows[i, :2].tolist()), int(rows[i, 2])
            raise ValueError(f"negative multiplicity {m} at {x}" if m < 0
                             else f"{x} is not a primitive vector")
        if mult is None:  # a mapping comes in any order
            rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        x1, x2 = rows[:, 0], rows[:, 1]
        after = (x1[1:] > x1[:-1]) | (x1[1:] == x1[:-1]) & (x2[1:] > x2[:-1])
        if not after.all():
            x = tuple(rows[np.argmin(after) + 1, :2].tolist())
            raise ValueError(f"{x} is out of row-major order or given twice")
        rows.setflags(write=False)
        self.xy, self.mult = rows[:, :2], rows[:, 2]

    @functools.cached_property
    def support(self) -> types.MappingProxyType:
        """The read-only mapping {(x1, x2): m}, in row-major order."""
        return types.MappingProxyType(dict(zip(map(tuple, self.xy.tolist()), self.mult.tolist())))

    def __eq__(self, other):
        if not isinstance(other, MultiplicityDistribution):
            return NotImplemented
        return np.array_equal(self.xy, other.xy) and np.array_equal(self.mult, other.mult)

    @property
    def vertex_count(self) -> int:
        return len(self.mult)

    def _steps(self) -> np.ndarray:
        """The edges m*x as an exact (n, 2) array: int64 when a float
        estimate puts each column's sum below 2^62 (`_columns_fit`, the same
        rule as `_int_rows`), so that the products and their partial sums
        fit, and Python ints past it.  The int64 edges are the transpose of
        a (2, n) array, so each column is contiguous."""
        if self.xy.dtype != object and _columns_fit(
                np.multiply(self.xy.T, self.mult, dtype=float, order="C")):
            return np.multiply(self.xy.T, self.mult, order="C").T
        return self.xy.astype(object) * self.mult.astype(object)[:, None]

    def endpoint(self) -> Vec:
        return tuple(int(v) for v in self._steps().sum(axis=0))

    def items_slope_sorted(self) -> list[tuple[Vec, int]]:
        order = _slope_order(self.xy)
        return list(zip(map(tuple, self.xy[order].tolist()), self.mult[order].tolist()))


class ConvexPolyline:
    """Lattice path from (0,0): steps in the closed first quadrant, slopes
    strictly increasing edge to edge.  The vertices are kept as the
    read-only (K+1, 2) integer array `xy`."""

    def __init__(self, vertices):
        xy = _int_rows(vertices)
        if not len(xy):
            raise ValueError("polyline needs at least the origin vertex")
        if xy[0, 0] != 0 or xy[0, 1] != 0:
            raise ValueError("polyline must start at (0,0)")
        d = np.diff(xy, axis=0)
        turns = _turns(d)
        # every edge in the quadrant, the first nonzero and each turning on
        # from the one before (so nonzero too); else the first bad edge, its
        # quadrant step checked first
        if len(d) and not (d.min() >= 0 and d[0].any() and (turns > 0).all()):
            dx, dy = d[:, 0], d[:, 1]
            off_quadrant = (dx < 0) | (dy < 0) | (dx == 0) & (dy == 0)
            i = int(np.argmax(off_quadrant | np.append(False, turns <= 0)))
            if off_quadrant[i]:
                step = tuple(d[i].tolist())
                raise ValueError(f"edge {i} is not a nonzero quadrant step: {step}")
            raise ValueError(f"edge {i} does not increase the slope")
        self.xy = xy.copy() if xy is vertices else xy
        self.xy.setflags(write=False)

    @functools.cached_property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple(map(tuple, self.xy.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ConvexPolyline):
            return NotImplemented
        return np.array_equal(self.xy, other.xy)

    def endpoint(self) -> Vec:
        return tuple(self.xy[-1].tolist())

    def edges(self) -> list[Vec]:
        return list(map(tuple, np.diff(self.xy, axis=0).tolist()))


def _polyline(steps: np.ndarray) -> ConvexPolyline:
    """The polyline through the partial sums of `steps` from (0,0); they must fit its dtype."""
    pts = np.zeros((len(steps) + 1, 2), dtype=steps.dtype)
    np.cumsum(steps, axis=0, out=pts[1:])
    return ConvexPolyline(pts)


def omega_to_polyline(omega: MultiplicityDistribution) -> ConvexPolyline:
    """Partial sums of m*x in slope order; K+1 vertices, endpoint preserved."""
    return _polyline(np.take(omega._steps(), _slope_order(omega.xy), axis=0))
