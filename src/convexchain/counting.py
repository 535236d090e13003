"""Exact enumeration of convex lattice lines.

Every count is integer-exact: the number p(n1,n2;k) of lines with endpoint
(n1,n2) and k vertices grows like exp(c * n^(2/3)), so tables hold exact
integers.  The counting DP runs as a numpy sweep over the primitive
vectors (`_shifts`), never in big ints:

- a float64 pass bounds every value: counts are nonnegative and only grow,
  and a value's rounding history is at most N = (n1+1)(n2+1) - 1 additions
  deep (one per shift m*v, and each nonzero point of the box is exactly one
  m*v), so its relative error is at most N * 2^-52 and every exact value,
  final or intermediate, is at most B = max * (1 + N * 2^-52);
- if B <= 2^53 no value of the float pass was ever rounded, and it is the table;
- otherwise a uint64 pass gives the counts modulo 2^64 by wraparound, and if
  B >= 2^64, passes modulo odd primes below 2^32 follow until the moduli's
  product exceeds B; Garner's CRT rebuilds each count.

A rebuilt count must agree with the float pass to within its rounding bound,
or the call raises `ArithmeticError`: a wrong count is never returned
silently.  The DP refuses up front (never mid-run) when its estimated cell
updates exceed COUNT_OP_BUDGET.  A line has at most n1 + n2 vertices (each
adds at least 1 to a + b), so no sweep holds more layers than that.

Both sweeps update only the cells of `_live_rect`, which a line can reach
(and, in `max_vertices`, from which it can still reach (n1, n2)), and every
count keeps its bits (`_count_sweep`).  `max_vertices` runs the skeleton
with (max, +1) over the light vectors a maximal line can use
(`_maximal_candidates`), after Jarnik (1926) and Acketa & Zunic (1995).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import (
    ConvexPolyline,
    MultiplicityDistribution,
    _box_rows,
    _index,
    _slope_order,
    primitive_vectors_in_box,
)
from .tolerances import COUNT_OP_BUDGET, check_budget

__all__ = [
    "CountTable",
    "count_lines_k",
    "brute_force_enum",
    "max_vertices",
]

BRUTE_FORCE_CAP = 12
_SWEEP_BUFSIZE = 16  # ufunc buffer elements in a count sweep; 16 to 256 time alike


@dataclass(frozen=True, eq=False)
class CountTable:
    """p(a,b;j) for every endpoint (a,b) inside the computed box and j <= kmax.

    layers[j, a, b] is the exact count for j <= min(kmax, n1 + n2), read-only:
    int64 where the float pass is exact, Python ints (object) past it.
    Lookups outside the layers, and at j = 0, return 0.
    """

    n1: int
    n2: int
    kmax: int
    layers: np.ndarray

    def p(self, a: int, b: int, k: int) -> int:
        if 0 < k < len(self.layers) and 0 <= a <= self.n1 and 0 <= b <= self.n2:
            return int(self.layers[k, a, b])
        return 0

    def csv_rows(self):
        abj = self.layers[1:].transpose(1, 2, 0)  # nonzero() walks CSV order
        a, b, j = np.nonzero(abj)
        return zip(a.tolist(), b.tolist(), (j + 1).tolist(), map(str, abj[a, b, j].tolist()))

    @cached_property
    def entries(self) -> dict[tuple[int, int, int], int]:
        """(a, b, j) -> nonzero count, derived on first read."""
        return {(a, b, k): int(c) for a, b, k, c in self.csv_rows()}


def _shifts(n1: int, n2: int, vectors):
    """The sweep skeleton: each primitive vector v = (p, q) of `vectors`, in
    their (slope) order, as (p, q, M): its multiples in the box are m*v for
    m = 1..M, M = min(n1 // p, n2 // q), where a zero component sets no limit."""
    for p, q in vectors:
        yield p, q, min(n1 // p if p else n2, n2 // q if q else n1)


def _dp_cost_estimate(n1: int, n2: int, kmax: int) -> int:
    """Cell updates of one unbounded sweep over kmax layers, in closed form:
    the multiples m*v of `_shifts` over all the box's vectors are the nonzero
    points (a, b) of the box, each once, and an unbounded shift updates
    (n1-a+1)(n2-b+1) cells a layer.  The sweeps update only the rectangles
    of `_live_rect`, each inside its unbounded shift's, so this is an upper
    bound on their work: the budget prices the unbounded sweep."""
    return kmax * ((n1 + 1) * (n1 + 2) * (n2 + 1) * (n2 + 2) // 4 - (n1 + 1) * (n2 + 1))


def _live_rect(n1: int, n2: int, v, strip: bool = False) -> tuple[int, int]:
    """(first, cols): rows first..n1-p and columns 0..cols-1 of the box hold
    every cell that a shift of v = (p, q) must read, in a sweep over the
    box's vectors in slope order; a shift by (dp, dq) updates the rectangle
    of rows first+dp..n1 and columns dq..dq+min(cols, n2+1-dq)-1.

    - Cone: before v, every reachable cell but the origin is a sum of
      vectors of smaller slope, so b*p < a*q there.  A shift of v reads rows
      a <= n1 - p only, so columns b < ceil((n1-p)*q/p), and column 0 for
      the origin, hold them all.  For v = (0, 1) that is every column.
    - Strip (with `strip`): from a cell that vectors of slope >= q/p can
      still take to N = (n1, n2), N - (a, b) is a sum of such vectors, so
      a*q - b*p >= n1*q - n2*p.  For a steep v (n1*q > n2*p) no row
      a < ceil((n1*q - n2*p)/q) holds one.
    """
    p, q = v
    cols = n2 + 1 - q
    if p:
        cols = min(cols, max(1, -(-(n1 - p) * q // p)))
    first = max(0, -(-(n1 * q - n2 * p) // q)) if strip and q else 0
    return first, cols


def _count_sweep(n1: int, n2: int, kmax: int, dtype, modulus: int = 0) -> np.ndarray:
    """layer[j, a, b] = number of lines to (a, b) with j vertices, in dtype
    arithmetic (residues mod `modulus` when it is nonzero), as one
    (kmax+1, n1+1, n2+1) array.

    The sweep holds the table layer-interleaved, as one (n1+1, (n2+1)(kmax+1))
    array: row a holds its columns b one after another, each column its
    layers 0..kmax side by side.  A shift by (dp, dq) plus one layer is then
    one flat offset dq*(kmax+1) + 1 along a row, and each addition runs over
    contiguous row segments.  Each vector v adds, for every multiplicity m,
    the shift by m*v of a snapshot of the table taken before v, so v fills
    one support slot.  Each snapshot zeroes its top layer, which would land
    in the next column's layer 0, since a line with kmax vertices takes no
    more; so layer 0 only ever holds the origin.

    The vector loop runs under a ufunc buffer of `_SWEEP_BUFSIZE` elements
    and gives the caller's size back on every exit, because numpy copies a
    2-D view whose rows are shorter than its buffer through that buffer, and
    under the default 8192 elements most additions would pay that copy.

    Snapshots and additions cover only the cone rectangle of `_live_rect`.
    Every snapshot cell outside it is zero in every layer, so each addition
    the unbounded sweep makes from such a cell is += 0, and x + 0 == x in
    float64, uint64 and residues alike; every other addition comes in the
    same order.  Every value therefore keeps its bits, past 2^53 and past
    2^64 too.

    With a modulus, every value stays at most `top`: the M additions of
    vector v (one per multiplicity that fits the box) multiply that bound
    by at most 1 + M, and the table is reduced only when the next vector
    could pass 2^64; with a modulus under 2^32 that leaves room for all of
    one vector's additions.
    """
    k = kmax + 1
    table = np.zeros((n1 + 1, (n2 + 1) * k), dtype=dtype)
    table[0, 0] = 1
    top = 1
    old = np.setbufsize(_SWEEP_BUFSIZE)
    try:
        for p, q, M in _shifts(n1, n2, primitive_vectors_in_box(n1, n2)):
            if modulus:
                top *= 1 + M
                if top >= 2**64:
                    np.remainder(table, modulus, out=table)
                    top = (modulus - 1) * (1 + M)
            cols = _live_rect(n1, n2, (p, q))[1]
            snap = table[: n1 + 1 - p, : cols * k].copy()
            snap[:, kmax::k] = 0
            for m in range(1, M + 1):
                dp, dq = m * p, m * q
                span = min(cols * k, (n2 + 1 - dq) * k - 1)
                table[dp:, dq * k + 1 : dq * k + 1 + span] += snap[: n1 + 1 - dp, :span]
    finally:
        np.setbufsize(old)
    if modulus:
        np.remainder(table, modulus, out=table)
    del snap  # so that the layer-major copy is the only other table held
    return np.ascontiguousarray(table.reshape(n1 + 1, n2 + 1, k).transpose(2, 0, 1))


def _odd_primes_below_2_32():
    """Primes below 2^32 in decreasing order, by trial division."""
    n = 2**32 - 1
    while True:
        if all(n % d for d in range(3, 2**16, 2)):
            yield n
        n -= 2


def _garner(residues: list[np.ndarray], moduli: list[int]) -> np.ndarray:
    """The unique x in [0, prod(moduli)) with x = r_i mod m_i, elementwise
    (mixed-radix CRT), as an object array of Python ints."""
    x = residues[0].astype(object)
    base = moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        x = x + base * ((r.astype(object) - x) * pow(base, -1, m) % m)
        base *= m
    return x


def _rebuild(n1: int, n2: int, kmax: int, flt: np.ndarray, bound: int) -> np.ndarray:
    """Exact counts below `bound`, rebuilt from residue passes and checked
    against the float pass `flt` as the module docstring states."""
    moduli, residues = [2**64], [_count_sweep(n1, n2, kmax, np.uint64)]
    primes = _odd_primes_below_2_32()
    while math.prod(moduli) <= bound:
        moduli.append(next(primes))
        residues.append(_count_sweep(n1, n2, kmax, np.uint64, moduli[-1]))
    exact = _garner(residues, moduli)
    _check_rebuilt(n1, n2, kmax, exact, flt)
    return exact


def _check_rebuilt(n1: int, n2: int, kmax: int, exact: np.ndarray, flt: np.ndarray) -> None:
    """Raise ArithmeticError at the first cell, in ravel order, where the
    rebuilt count x and the float pass's f break |x - f| * 2^52 <= x * adds,
    adds = (n1+1)(n2+1) - 1 being the module docstring's rounding depth.

    A float64 test flags every cell that can break it, and only flagged
    cells are decided in Python ints.  X = float(x), d = |X - f| and
    R = X * t, t = adds * 2^-52, are each rounded once, by at most u = 2^-53
    relatively.  A breaking cell has |x - f| > t*x with t >= 6u (adds >= 3),
    so d >= (1-u)(|x - f| - u*x) > (1-u)(t - u)x >= (1+u)^2 t*x / 2 >= R/2:
    every cell with d > R/2 (or NaN) is flagged.
    """
    adds = (n1 + 1) * (n2 + 1) - 1
    xf = exact.astype(np.float64)
    flagged = ~(np.abs(xf - flt) <= xf * (adds * 2.0**-52) / 2)
    for i in np.flatnonzero(flagged).tolist():
        x, f = int(exact.flat[i]), float(flt.flat[i])
        if abs(x - int(f)) << 52 > x * adds:
            raise ArithmeticError(
                f"the ({n1},{n2}) sweep over {kmax} layers: rebuilt count {x} "
                f"disagrees with the float pass ({f!r})"
            )


def count_lines_k(n1: int, n2: int, kmax: int) -> CountTable:
    """Exact p(a,b;j) for all a <= n1, b <= n2, j <= kmax.

    The float64 pass of `_count_sweep` while it is exact, else `_rebuild`,
    as the module docstring states, over at most n1 + n2 layers; the table
    keeps the requested kmax.  Sides and kmax go through `operator.index`:
    a float, a string or None raises ValueError.
    """
    n1, n2, kmax = _index(n1), _index(n2), _index(kmax)
    if n1 < 1 or n2 < 1 or kmax < 1:
        raise ValueError("n1, n2, kmax must be >= 1")
    layers = min(kmax, n1 + n2)  # each vector adds at least 1 to a + b
    check_budget(f"count_lines_k({n1},{n2},{kmax})", _dp_cost_estimate(n1, n2, layers),
                 COUNT_OP_BUDGET, "cell updates")

    flt = _count_sweep(n1, n2, layers, np.float64)
    adds = (n1 + 1) * (n2 + 1) - 1  # rounded additions per cell: one per shift m*v
    fmax = int(flt.max())
    bound = fmax + (fmax * adds >> 52) + 1
    exact = flt.astype(np.int64) if bound <= 2**53 else _rebuild(n1, n2, layers, flt, bound)
    exact.setflags(write=False)
    return CountTable(n1, n2, kmax, exact)


def brute_force_enum(n1: int, n2: int) -> list[MultiplicityDistribution]:
    """Every omega with endpoint exactly (n1,n2), by DFS in slope order.

    Independent of the DP on purpose — this is the oracle the DP is checked
    against.  Hard-capped at 12 per side.
    """
    n1, n2 = _index(n1), _index(n2)
    if n1 < 1 or n2 < 1:
        raise ValueError("endpoint coordinates must be >= 1")
    if n1 > BRUTE_FORCE_CAP or n2 > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_CAP} per side")
    vecs = primitive_vectors_in_box(n1, n2)
    out: list[MultiplicityDistribution] = []
    chosen: list[tuple[tuple[int, int], int]] = []

    def rec(i: int, r1: int, r2: int):
        if r1 == 0 and r2 == 0:
            out.append(MultiplicityDistribution(dict(chosen)))
            return
        if i == len(vecs):
            return
        rec(i + 1, r1, r2)
        p, q = vecs[i]
        m = 1
        while m * p <= r1 and m * q <= r2:
            chosen.append(((p, q), m))
            rec(i + 1, r1 - m * p, r2 - m * q)
            chosen.pop()
            m += 1

    rec(0, n1, n2)
    return out


def _maximal_candidates(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """(kept, lightest): the box's primitive vectors that a line to N = (n1, n2)
    with the most vertices can use, in slope order, and the lightest ones
    that one such line provably holds, both as (n, 2) int64 arrays.

    Weigh each vector v by lambda.v with lambda = (n2, n1), and sort by weight;
    let U(B) be the largest j such that the j lightest weights sum to at most
    B.  The axes (1,0) and (0,1) weigh n2 and n1, every other vector at least
    n1 + n2, so they are the lightest two.

    - Lower bound: `lightest` is the longest prefix of the sorted vectors
      whose componentwise sum is <= N.  It holds both axes, which absorb the
      remainder N - sum as extra multiplicity, so it is the support of a line
      to N and M >= |lightest| >= 2.
    - Upper bound: if w is in the support of a line with K vertices, the
      other K - 1 vectors are distinct and sum to at most N - w, so their
      weights sum to at most lambda.(N - w) = 2*n1*n2 - lambda.w, and no
      K - 1 weights sum to less than the K - 1 lightest: K <= 1 + U(lambda.(N - w)).

    So `kept` holds each w with 1 + U(2*n1*n2 - lambda.w) >= |lightest|:
    every vector of every line with M vertices, since M >= |lightest|.  One
    sort and one `searchsorted`.
    """
    xy = _box_rows(n1, n2)
    weight = xy @ np.array([n2, n1], dtype=np.int64)
    order = np.argsort(weight, kind="stable")
    xy, weight = xy[order], weight[order]
    fits = (np.cumsum(xy, axis=0) <= (n1, n2)).all(axis=1)  # true on a prefix
    lightest = xy[: np.count_nonzero(fits)]
    most = 1 + np.searchsorted(np.cumsum(weight), 2 * n1 * n2 - weight, side="right")
    kept = xy[most >= len(lightest)]
    return kept[_slope_order(kept)], lightest


def max_vertices(n1: int, n2: int) -> int:
    """Exact max M of K(omega) over lines with endpoint (n1,n2).

    The count sweep's skeleton with (max, +1) in place of (+, shift), over
    the vectors of `_maximal_candidates` only: every line with M vertices
    uses only those, so the best line over them has exactly M.  The state is
    the best support size reachable at each partial sum.  Cells start at
    -(n1+n2+1) ("unreachable"); each shift adds 1 and moves at least 1 in
    a+b, so a value that does not come from the origin is at most
    -(n1+n2+1) + a+b < 0 and never wins a maximum.  Real values are at most
    a+b, so every value fits the smallest signed dtype holding -(n1+n2+1).

    Each vector reads and updates only the rectangle of `_live_rect` with
    both bounds.  Every line to N = (n1, n2) passes only through cells in
    both, so a skipped update could only have changed a cell that never
    feeds best[N].
    Sides go through `operator.index`: a float, a string or None raises
    ValueError.
    """
    n1, n2 = _index(n1), _index(n2)
    if n1 < 1 or n2 < 1:
        raise ValueError("n1, n2 must be >= 1")
    check_budget(f"max_vertices({n1},{n2})", _dp_cost_estimate(n1, n2, 1),
                 COUNT_OP_BUDGET, "cell updates")
    floor = -(n1 + n2 + 1)
    best = np.full((n1 + 1, n2 + 1), floor, dtype=np.min_scalar_type(floor))
    best[0, 0] = 0
    kept = _maximal_candidates(n1, n2)[0].tolist()
    for p, q, M in _shifts(n1, n2, kept):
        first, cols = _live_rect(n1, n2, (p, q), strip=True)
        inc = best[first : n1 + 1 - p, :cols] + 1  # the state from before v
        for m in range(1, M + 1):
            dp, dq = m * p, m * q
            dst = best[first + dp :, dq : dq + cols]
            np.maximum(dst, inc[: n1 + 1 - first - dp, : n2 + 1 - dq], out=dst)
    return int(best[n1, n2])


def line_length(line: ConvexPolyline) -> float:
    return sum(math.hypot(d[0], d[1]) for d in line.edges())
