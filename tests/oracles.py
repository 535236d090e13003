"""Independent oracles shared by the test modules: slow, obviously correct
reimplementations that the library's vectorized code is checked against."""

import json
import math
import sys
from decimal import Decimal, localcontext
from functools import cmp_to_key, lru_cache

import numpy as np
from hypothesis import strategies as st
from scipy import integrate

from convexchain.lattice import (ConvexPolyline, MultiplicityDistribution, _mask_rows,
                                 _primitive_grid, primitive_vectors_in_box)
from convexchain.specialfn import _BERNOULLI
from convexchain.tolerances import SITE_BUDGET

# quadrature epsabs of the polylog integral oracle
POLYLOG_QUAD_TOL = 1e-13
# the positive doubles, and the neighbours of their ends: 0 and inf lie outside
POSITIVE_DOUBLES = st.one_of(
    st.floats(5e-324, sys.float_info.max),
    st.sampled_from([0.0, math.nextafter(5e-324, 1.0),
                     math.nextafter(sys.float_info.max, 0.0), math.inf]))


def slope_sorted_exact(vectors):
    """Vectors of the closed first quadrant in increasing slope order, by a
    comparison sort on the exact integer cross product u.x1*v.x2 - u.x2*v.x1."""
    return sorted(vectors, key=cmp_to_key(lambda u, v: u[1] * v[0] - u[0] * v[1]))


def check_polyline(vertices):
    """`ConvexPolyline`'s validation one edge at a time in Python ints: the
    vertices as a tuple of int pairs, or the ValueError of the first bad
    edge, its quadrant step checked before its slope; a row that is not a
    pair is refused first."""
    for i, p in enumerate(vertices):
        if len(p) != 2:
            raise ValueError(f"row {i} is {p!r}, not 2 values")
    verts = tuple((int(p[0]), int(p[1])) for p in vertices)
    if not verts:
        raise ValueError("polyline needs at least the origin vertex")
    if verts[0] != (0, 0):
        raise ValueError("polyline must start at (0,0)")
    prev = None
    for i in range(1, len(verts)):
        d = (verts[i][0] - verts[i - 1][0], verts[i][1] - verts[i - 1][1])
        if d == (0, 0) or d[0] < 0 or d[1] < 0:
            raise ValueError(f"edge {i - 1} is not a nonzero quadrant step: {d}")
        if prev is not None and prev[0] * d[1] - prev[1] * d[0] <= 0:
            raise ValueError(f"edge {i - 1} does not increase the slope")
        prev = d
    return verts


def check_support(support):
    """`MultiplicityDistribution`'s validation one entry at a time in Python
    ints: the support as a dict of int pairs to positive ints, or the
    ValueError of the first bad entry.  Zero multiplicities are dropped
    before any other check."""
    clean = {}
    for x, m in support.items():
        x, m = (int(x[0]), int(x[1])), int(m)
        if m == 0:
            continue
        if m < 0:
            raise ValueError(f"negative multiplicity {m} at {x}")
        if not (x[0] >= 0 and x[1] >= 0 and math.gcd(*x) == 1):
            raise ValueError(f"{x} is not a primitive vector")
        clean[x] = m
    return clean


def polyline_of_support(support):
    """The vertices of omega's line in Python ints: the partial sums of the
    steps m*x of a `check_support` dict, in exact slope order."""
    verts = [(0, 0)]
    for x in slope_sorted_exact(support):
        m = support[x]
        verts.append((verts[-1][0] + m * x[0], verts[-1][1] + m * x[1]))
    return tuple(verts)


def max_vertices_sweep(n1: int, n2: int) -> int:
    """The max of K(omega) over lines to (n1, n2) by a (max, +1) sweep over
    every primitive vector of the box in slope order: the state is the best
    support size reachable at each partial sum, and every shift m*v of a
    vector reads the state from before that vector.  Cells start at
    -(n1+n2+1), which no chain of shifts lifts to 0 or above."""
    best = np.full((n1 + 1, n2 + 1), -(n1 + n2 + 1), dtype=np.int64)
    best[0, 0] = 0
    for p, q in primitive_vectors_in_box(n1, n2):
        inc = best[: n1 + 1 - p, : n2 + 1 - q] + 1
        m = 1
        while m * p <= n1 and m * q <= n2:
            dst = best[m * p :, m * q :]
            np.maximum(dst, inc[: n1 + 1 - m * p, : n2 + 1 - m * q], out=dst)
            m += 1
    return int(best[n1, n2])


def count_sweep(n1: int, n2: int, kmax: int, dtype, modulus: int = 0) -> np.ndarray:
    """layer[j, a, b] = number of lines to (a, b) with j vertices, by the
    unbounded layered sweep in dtype arithmetic (residues mod `modulus` when
    it is nonzero): one (kmax+1, n1+1, n2+1) table, and every vector v of
    the box in slope order adds, for every multiplicity m, the shift by m*v
    of a snapshot of layers 0..kmax-1 taken before v, over the whole box.
    Its additions per cell come in the same order as the library's sweep, so
    the two agree bit for bit.  With a modulus, the layers are reduced just
    before a vector whose M_v shifts could lift a value past 2^64."""
    lay = np.zeros((kmax + 1, n1 + 1, n2 + 1), dtype=dtype)
    lay[0, 0, 0] = 1
    top = 1
    for p, q in primitive_vectors_in_box(n1, n2):
        if modulus:
            grow = 1 + min(n1 // p if p else math.inf, n2 // q if q else math.inf)
            top *= grow
            if top >= 2**64:
                np.remainder(lay[1:], modulus, out=lay[1:])
                top = (modulus - 1) * grow
        snap = lay[:-1, : n1 + 1 - p, : n2 + 1 - q].copy()
        m = 1
        while m * p <= n1 and m * q <= n2:
            lay[1:, m * p :, m * q :] += snap[:, : n1 + 1 - m * p, : n2 + 1 - m * q]
            m += 1
    if modulus:
        np.remainder(lay[1:], modulus, out=lay[1:])
    return lay


def rebuild_check(n1: int, n2: int, kmax: int, exact, flt) -> None:
    """The rebuilt counts' check cell by cell in Python ints: raise
    ArithmeticError at the first cell, in ravel order, whose rebuilt count x
    and float-pass value f have |x - f| * 2^52 > x * ((n1+1)(n2+1) - 1)."""
    adds = (n1 + 1) * (n2 + 1) - 1
    for x, f in zip(exact.ravel().tolist(), flt.ravel().tolist()):
        if abs(x - int(f)) << 52 > x * adds:
            raise ArithmeticError(
                f"the ({n1},{n2}) sweep over {kmax} layers: rebuilt count {x} "
                f"disagrees with the float pass ({f!r})"
            )


def primitive_grid_gcd(n1: int, n2: int, block_cells: int):
    """The primitive vectors of the box [0, n1] x [0, n2] as int64 (x1, x2)
    array pairs, row-major in x1, in blocks of max(1, block_cells // (n2+1))
    rows: a gcd over every cell of each block."""
    ys = np.arange(n2 + 1, dtype=np.int64)
    block = max(1, block_cells // (n2 + 1))
    for x0 in range(0, n1 + 1, block):
        xs = np.arange(x0, min(x0 + block, n1 + 1), dtype=np.int64)
        bx, by = np.nonzero(np.gcd(xs[:, None], ys[None, :]) == 1)
        yield xs[bx], ys[by]


def primitive_vectors_by_weight(energy, cutoff: float):
    """Yield every primitive x with energy(x) <= cutoff, exactly once.

    `energy` must be strictly positive and coordinatewise nondecreasing on the
    nonzero quadrant; that is what lets a column scan terminate.  Non-monotone
    weights are rejected by spot checks on a small frontier.  Within each
    column x1 = const the yield order is increasing x2, i.e. increasing slope;
    the order across columns is deterministic (x1 ascending).
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    for a, b in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2)):
        if energy(a, b) <= 0:
            raise ValueError(f"energy must be strictly positive, got energy{(a, b)} <= 0")
        if energy(a + 1, b) < energy(a, b) or energy(a, b + 1) < energy(a, b):
            raise ValueError("energy must be coordinatewise nondecreasing")

    # column x1 = 0 holds the single primitive (0,1)
    if energy(0, 1) <= cutoff:
        yield (0, 1)
    x1 = 1
    while energy(x1, 0) <= cutoff:
        for x2 in range(0, _column_top(energy, x1, cutoff) + 1):
            if math.gcd(x1, x2) == 1:
                yield (x1, x2)
        x1 += 1


def _column_top(energy, x1: int, cutoff: float) -> int:
    """Largest x2 with energy(x1,x2) <= cutoff, by doubling then bisection."""
    hi = 1
    while energy(x1, hi) <= cutoff:
        hi *= 2
    lo = hi // 2 if hi > 1 else 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if energy(x1, mid) <= cutoff:
            lo = mid
        else:
            hi = mid
    return lo if energy(x1, lo) <= cutoff else -1


def polyline_to_omega(line: ConvexPolyline) -> MultiplicityDistribution:
    """Inverse of `omega_to_polyline`: each edge (d1,d2) contributes the
    primitive direction (d1/g, d2/g) with multiplicity g = gcd(d1,d2)."""
    support = {}
    for d in line.edges():
        g = math.gcd(d[0], d[1])
        support[(d[0] // g, d[1] // g)] = g
    return MultiplicityDistribution(support)


def zeta(s: float) -> float:
    """Riemann zeta for real finite s > 1, Euler-Maclaurin accelerated.

    With N = 50 terms and four Bernoulli corrections the truncation error is
    below 1e-12 for every s > 1 (the first dropped term is of order
    |B_10|/10! * s..(s+8) * N^(-s-9) < 1e-17 already at s -> 1+).
    """
    if not 1 < s < math.inf:
        raise ValueError(f"zeta requires finite s > 1, got {s}")
    N = 50
    n = np.arange(1, N, dtype=float)
    total = float(np.sum(n**-s))
    # tail integral, midpoint correction, then Bernoulli terms
    total += N ** (1.0 - s) / (s - 1.0) + 0.5 * N**-s
    poch = s  # s*(s+1)*...*(s+2j-2), built incrementally
    fact = 1.0
    power = float(N) ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI, start=1):
        fact *= (2 * j - 1) * (2 * j)
        total += b / fact * poch * power
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        power /= N * N
    return total


def c_and_e_decimal(ell: float, digits: int = 40) -> tuple[float, float]:
    """c(ell) and e(ell) of `specialfn` for 0 < ell < 1 in `digits`-digit
    decimal arithmetic: Li2 and Li3 at w = 1 - ell by their defining series,
    summed until a term is below 10^-(digits+5), and zeta(2) and zeta(3) by
    the central binomial series 3*sum 1/(k^2 C(2k,k)) and Apery's
    (5/2)*sum (-1)^(k+1)/(k^3 C(2k,k)), whose terms fall like 4^-k."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        small = Decimal(10) ** -(digits + 5)
        ell = Decimal(ell)  # the float's exact value
        w = 1 - ell
        li2 = li3 = Decimal(0)
        j, power = 1, w
        while power > small:
            li2 += power / j**2
            li3 += power / j**3
            j, power = j + 1, power * w
        z2 = z3 = Decimal(0)
        for k in range(1, 4 * digits):
            central = math.comb(2 * k, k)
            z2 += Decimal(3) / (k**2 * central)
            z3 += Decimal(5 * (-1) ** (k + 1)) / (2 * k**3 * central)
        core = z3 - li3
        third = Decimal(1) / 3
        c = ell / w * li2 / (z2**third * core ** (2 * third))
        e = 3 * (core / z2) ** third - ell.ln() * c
        return float(c), float(e)


def polylog_integral(s: float, z: float) -> float:
    """(1/Gamma(s)) int_0^inf z t^(s-1)/(e^t - z) dt, valid for all real z < 1.

    For z < 0 the integrand is rewritten as -t^(s-1)/(e^t/|z| + 1) so that huge
    |z| never overflows; the upper limit log|z| + 45 leaves a tail below
    e^-45 * polynomial.  For s < 1 the t^(s-1) endpoint singularity is removed
    by substituting t = u^(1/s) on [0,1].
    """
    if z >= 1:
        raise ValueError("polylog needs z < 1")
    if z == 0.0:
        return 0.0
    gamma_s = math.gamma(s)
    if z < 0:
        L = math.log(-z)

        def smooth(t):  # integrand = t^(s-1) * smooth(t)
            return -1.0 / (math.exp(min(t - L, 700.0)) + 1.0)

    else:

        def smooth(t):
            return z / (math.exp(min(t, 700.0)) - z)

    def f(t):
        return t ** (s - 1.0) * smooth(t)

    upper = max(math.log(abs(z)) if abs(z) > 1 else 0.0, 0.0) + 45.0
    # breakpoints catch the z->1 boundary layer near t = 0 and the shoulder
    # at t ~ log|z| for large negative z
    pts = sorted({1e-6, 1e-3, 0.1, 1.0, min(upper - 1.0, max(1.0, upper - 45.0) + 1.0)})
    if s >= 1:
        val, _ = integrate.quad(f, 0.0, upper, epsabs=POLYLOG_QUAD_TOL,
                                epsrel=1e-12, limit=300, points=pts)
    else:
        # t = u^(1/s) on [0,1]: t^(s-1) dt = du/s exactly, so the endpoint
        # singularity cancels instead of being chased adaptively
        g = lambda u: smooth(u ** (1.0 / s)) / s
        head, _ = integrate.quad(g, 0.0, 1.0, epsabs=POLYLOG_QUAD_TOL,
                                 epsrel=1e-12, limit=300)
        body, _ = integrate.quad(f, 1.0, upper, epsabs=POLYLOG_QUAD_TOL,
                                 epsrel=1e-12, limit=300)
        val = head + body
    return val / gamma_s


def hausdorff_brute(a, b):
    """Symmetric Hausdorff distance between two point arrays by all pairs,
    with the library's squared distance dx*dx + dy*dy."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    d2 = dx * dx + dy * dy
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


def max_nearest_sq_windows(query, points, block=1 << 17):
    """Max over the query points of the squared distance to the nearest of
    `points` (both `shapes._by_s` tuples) by one window per query: the
    distance d0 to q's neighbours in s = x + y order, then every point with
    s within sqrt(2)*d0 of s_q and, on monotone points, x and y within d0,
    each bound padded for rounding; pairs compared `block` at a time."""
    qx, qy, qs, _ = query
    px, py, ps, monotone = points

    def sq_dist(qx, qy, j):
        dx = qx - px[j]
        dy = qy - py[j]
        return dx * dx + dy * dy

    k = np.searchsorted(ps, qs)
    best = np.minimum(sq_dist(qx, qy, np.maximum(k - 1, 0)),
                      sq_dist(qx, qy, np.minimum(k, len(ps) - 1)))
    top = max(np.abs(px).max(), np.abs(py).max(), np.abs(qx).max(), np.abs(qy).max())
    r = np.sqrt(best) * (1.0 + 1e-12) + 8.0 * np.finfo(float).eps * top
    lo = np.searchsorted(ps, qs - math.sqrt(2.0) * r, "left")
    hi = np.searchsorted(ps, qs + math.sqrt(2.0) * r, "right")
    if monotone:
        lo = np.maximum(lo, np.maximum(np.searchsorted(px, qx - r, "left"),
                                       np.searchsorted(py, qy - r, "left")))
        hi = np.minimum(hi, np.minimum(np.searchsorted(px, qx + r, "right"),
                                       np.searchsorted(py, qy + r, "right")))
    size = np.maximum(hi - lo, 0)
    end = np.cumsum(size)
    for c0 in range(0, int(end[-1]), block):
        c1 = min(c0 + block, int(end[-1]))
        i0 = int(np.searchsorted(end, c0, "right"))
        i1 = int(np.searchsorted(end, c1, "left")) + 1
        start = end[i0:i1] - size[i0:i1]
        n = np.minimum(end[i0:i1], c1) - np.maximum(start, c0)
        j = np.arange(c0, c1) + np.repeat(lo[i0:i1] - start, n)
        d2 = sq_dist(np.repeat(qx[i0:i1], n), np.repeat(qy[i0:i1], n), j)
        met = n > 0
        seg = np.minimum.reduceat(d2, (np.cumsum(n) - n)[met])
        idx = np.arange(i0, i1)[met]
        best[idx] = np.minimum(best[idx], seg)
    return best.max()


def greedy_vertex_count_sorted(length_budget):
    """`experiments.jarnik_greedy_vertex_count` one direction at a time: the
    box's primitive directions of norm <= box as tuples, sorted by (norm^2,
    x1, x2), taken while their `math.hypot` lengths fit the budget; the box
    starts at 32 and doubles, up to 4096, whenever they run out."""
    box = 32
    while box <= 4096:
        prims = [(p, q) for p, q in primitive_vectors_in_box(box, box) if p * p + q * q <= box**2]
        prims.sort(key=lambda p: (p[0] * p[0] + p[1] * p[1], p))
        total = 0.0
        count = 0
        for p, q in prims:
            step = math.hypot(p, q)
            if total + step > length_budget:
                return count
            total += step
            count += 1
        box *= 2
    raise RuntimeError("length budget too large for the greedy sweep")


def polyline_json(line: ConvexPolyline) -> str:
    """The `{"vertices": [[x, y], ...]}` text that `shape-distance --line`
    reads (`cli._load_polyline`)."""
    return json.dumps({"vertices": line.xy.tolist()})


# -- the Gibbs site-set kernels with a fresh array for every operation --------
# `gibbs` builds the same arrays in place; these keep each expression as one
# numpy expression, so every element must come out with the same bits.


@lru_cache(maxsize=1)
def site_arrays(energy, truncation):
    """`gibbs._site_arrays` from per-block parts: each block's primitive
    sites as (x1, x2) rows, their energies, the rows with E <= T kept, and
    the parts concatenated, with the coordinates as int32."""
    T = float(truncation)
    with np.errstate(divide="ignore"):
        span = T / np.array([energy(1, 0), energy(0, 1)], dtype=float)
    n1, n2 = np.floor(np.minimum(span, SITE_BUDGET)).astype(np.int64).tolist()
    n1, n2 = n1 + int(energy(n1 + 1, 0) <= T), n2 + int(energy(0, n2 + 1) <= T)

    def width(x0):
        return int(np.count_nonzero(energy(float(x0), np.arange(n2 + 1.0)) <= T)) + 1

    xs_parts, ys_parts, en_parts = [], [], []
    for x0, keep in _primitive_grid(n1, n2, width):
        x1, x2, _ = _mask_rows(x0, keep)
        en = np.asarray(energy(x1.astype(float), x2.astype(float)), dtype=float)
        ok = en <= T
        xs_parts.append(x1[ok])
        ys_parts.append(x2[ok])
        en_parts.append(en[ok])
    return (np.concatenate(xs_parts).astype(np.int32),
            np.concatenate(ys_parts).astype(np.int32), np.concatenate(en_parts))


def leaf_laws(e, g, rho, a, t, occupation=True):
    """`gibbs._leaf_laws`: each law of the sites with energies `e` as one
    expression, copied into the out arrays, rho, a or q, and log(1 - rho)."""
    r = np.exp(-e)
    log_miss = np.log1p(-r)
    with np.errstate(over="ignore"):
        law = 1.0 / (1.0 + np.exp(g + e + log_miss)) if occupation else g + e + log_miss
    rho[...], a[...], t[...] = r, law, log_miss


@lru_cache(maxsize=1)
def site_laws(energy, g, truncation):
    """The laws of the whole site set, which `gibbs` forms a leaf or a
    draw's candidates at a time: (x1, x2, rho, q) per site."""
    x1, x2, en = site_arrays(energy, truncation)
    rho = np.exp(-en)
    with np.errstate(over="ignore"):
        q = 1.0 / (1.0 + np.exp(g + en + np.log1p(-rho)))
    return x1, x2, rho, q


def site_moments(rho, q):
    """(E[omega], Var(omega)) per site of the biased geometric law."""
    mean = q / (1.0 - rho)
    var = q * (1.0 + rho) / (1.0 - rho) ** 2 - mean**2
    return mean, var


def log_z(energy, g, truncation):
    """`gibbs._log_z`: the sum of log(1 + e^-a) over the sites."""
    en = site_arrays(energy, truncation)[2]
    return float(np.sum(np.logaddexp(0.0, -(g + en + np.log1p(-np.exp(-en))))))


def site_sums(energy, g, truncation):
    """`gibbs._site_sums`: the means and covariance of (X1, X2, K)."""
    x1, x2, rho, q = site_laws(energy, g, truncation)
    mean, var = site_moments(rho, q)
    x1, x2 = x1.astype(float), x2.astype(float)
    means = np.array([np.sum(x1 * mean), np.sum(x2 * mean), np.sum(q)])
    ck = mean * (1.0 - q)
    cov = np.empty((3, 3))
    cov[0, 0] = np.sum(x1 * x1 * var)
    cov[1, 1] = np.sum(x2 * x2 * var)
    cov[0, 1] = cov[1, 0] = np.sum(x1 * x2 * var)
    cov[2, 2] = np.sum(q * (1.0 - q))
    cov[0, 2] = cov[2, 0] = np.sum(x1 * ck)
    cov[1, 2] = cov[2, 1] = np.sum(x2 * ck)
    return means, cov


@lru_cache(maxsize=1)
def sampler_index(energy, g, truncation):
    """`gibbs._sampler_index`: the sites grouped by block floor(-log2 q),
    with an int32 order, then E[K], the sum of q."""
    q = site_laws(energy, g, truncation)[3]
    with np.errstate(divide="ignore"):
        label = np.minimum(np.floor(-np.log2(q)), 63).astype(np.int8)
    order = np.argsort(label, kind="stable").astype(np.int32)
    size = np.bincount(label, minlength=64)
    block = np.flatnonzero(size)
    start = (np.cumsum(size) - size)[block]
    q_max = np.maximum.reduceat(q[order], start)
    keep = q_max > 0.0
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-q_max[keep])
    return (order, start[keep], size[block][keep], block[keep], q_max[keep], log_miss,
            np.sum(q))
