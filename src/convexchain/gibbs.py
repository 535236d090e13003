"""Grand-canonical measure on multiplicity distributions.

Sites are the primitive vectors x with energy E(x) <= T (truncation).  Site
occupancies are independent; each follows the biased geometric law

    P[omega(x) = j]  propto  rho^j * lam^{1{j>0}},     rho = exp(-E(x)),

whose normalizer is Z_x = 1 + lam*rho/(1-rho).  Expected endpoint, vertex
count, the 3x3 covariance of (X1, X2, K) and seeded sampling live here.
Two kernels compute log Z and the moments: the per-site law kernel
(`_leaf_laws`, which forms the laws of one leaf of sites in scratch where
`_pairwise_sums` sums them in np.sum's own pairwise order; the sampler forms
them the same way for its index and for the candidates of each draw, and no
whole-set law is kept) and, for the linear energy, the Mobius kernel
(`_mobius_log_z`), an O(N log N) sum over n <= N ~ 45/min(beta) that
enumerates no site.  `_linear_log_z` is the one place that chooses between
them.

Energies come in three flavors: linear beta.x, Euclidean beta*|x|_2, and
the mixed norm beta*(|x|_1 + lam_ell*sqrt(2)*|x|_2).

Determinism contract: the sampler groups the sites of a parameter set into
blocks b = floor(-log2 q), q = P[omega(x) > 0], with b capped at 63; within
a block, sites keep the row-major (x1, x2) order of `_site_arrays`.  Every
uniform is a SplitMix64 hash of (seed, counter word), and the word of block
b is b*2^40 + 2j for the j-th geometric gap of the block and b*2^40 + 2j + 1
for the acceptance of the candidate that gap lands on.  A draw is therefore
bit-identical for a given seed however the sites were enumerated or the
blocks visited.  `_check_draws` prices a run of draws before the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import MultiplicityDistribution, _mask_rows, _primes, _primitive_grid
from .tolerances import (DEFAULT_TRUNCATION, GIBBS_DRAW_ENTRIES, GIBBS_ENTRY_BUDGET,
                         KERNEL_ROUNDING, SITE_BUDGET, check_budget)

__all__ = [
    "EnergyModel",
    "GibbsParams",
    "MomentReport",
    "log_partition",
    "truncation_bound",
    "moments",
    "sample_omega",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class EnergyModel:
    """One of the three site-energy families, callable on scalars or arrays."""

    kind: str
    params: tuple[float, ...]

    @staticmethod
    def linear(beta1: float, beta2: float) -> "EnergyModel":
        if not (0 < beta1 < math.inf and 0 < beta2 < math.inf):
            raise ValueError("linear energy needs finite beta1, beta2 > 0")
        return EnergyModel("linear", (float(beta1), float(beta2)))

    @staticmethod
    def euclidean(beta: float) -> "EnergyModel":
        if not 0 < beta < math.inf:
            raise ValueError("euclidean energy needs finite beta > 0")
        return EnergyModel("euclidean", (float(beta),))

    @staticmethod
    def mixed(beta: float, lam_ell: float) -> "EnergyModel":
        if not 0 < beta < math.inf:
            raise ValueError("mixed energy needs finite beta > 0")
        if not -1.0 / _SQRT2 < lam_ell < math.inf:
            raise ValueError(
                f"mixed energy needs finite lam_ell > -1/sqrt(2), got {lam_ell}"
            )
        return EnergyModel("mixed", (float(beta), float(lam_ell)))

    def __call__(self, x1, x2):
        if self.kind == "linear":
            b1, b2 = self.params
            return b1 * x1 + b2 * x2
        if self.kind == "euclidean":
            (b,) = self.params
            return b * np.hypot(x1, x2)
        b, le = self.params
        return b * ((x1 + x2) + le * _SQRT2 * np.hypot(x1, x2))

@dataclass(frozen=True)
class GibbsParams:
    energy: EnergyModel
    fugacity: float = 1.0
    truncation: float = DEFAULT_TRUNCATION

    def __post_init__(self):
        if not 0 < self.fugacity < math.inf:
            raise ValueError("fugacity must be positive and finite")
        if not 0 < self.truncation < math.inf:
            raise ValueError("truncation must be positive and finite")


@dataclass(frozen=True)
class MomentReport:
    EX1: float
    EX2: float
    EK: float
    covariance: np.ndarray  # 3x3, order (X1, X2, K)
    site_count: int
    truncation_bound: float


# `_site_arrays` (int32 x1 and x2, float64 E: 16 B/site) and the sampler's
# `_sampler_index` (an int32 order: 4 B/site more) keep one set each: only
# the caller that just built a set reuses it, and a process holds at most one
# cached set.  Neither the sums over sites nor the sampler keeps a per-site law.
@lru_cache(maxsize=1)
def _site_arrays(energy: EnergyModel, truncation: float):
    """Primitive sites with E <= T as (x1, x2, energy) arrays, row-major in
    x1: int32 coordinates, exact in every float cast (SITE_BUDGET keeps each
    side below 2^31), and float64 energies.

    The `lattice._primitive_grid` rows of the box that holds E <= T, each
    block clipped to the columns its first row holds, filtered by energy;
    the row-major order is part of the sampling contract (the
    order within a sampler block).  Every family has E(v, 0) = v*E(1, 0),
    E(0, v) = v*E(0, 1) and grows along each axis, so side i of the box is
    floor(T/E(e_i)), plus one when that quotient rounded down past an axis
    point with E <= T.  A site whose exp(-E) rounds to 1 has no geometric
    law, and its set is refused with `ValueError`.

    Each block's sites are written once, into the next slice of three
    buffers (4, 4 and 8 B per cell) sized for every cell of the box, whose
    pages are touched only where written; the buffers then shrink in place
    to the site count.
    `ndarray.resize` refuses while anything else holds a buffer, as the
    `frame.f_locals` snapshot of a tracer or debugger does before Python
    3.13; the filled prefixes are then copied instead.
    """
    T = float(truncation)
    with np.errstate(divide="ignore"):  # E(e_i) = 0 is an unbounded side
        span = T / np.array([energy(1, 0), energy(0, 1)], dtype=float)
    n1, n2 = np.floor(np.minimum(span, SITE_BUDGET)).astype(np.int64).tolist()
    n1, n2 = n1 + int(energy(n1 + 1, 0) <= T), n2 + int(energy(0, n2 + 1) <= T)

    def width(x0):
        # E grows along both axes: the sites of row x0 are a prefix of its
        # columns and bound those of every later row.  Counting them keeps
        # one column past the last, against rounding at the boundary.
        return int(np.count_nonzero(energy(float(x0), np.arange(n2 + 1.0)) <= T)) + 1

    blocks = _primitive_grid(n1, n2, width)  # refuses an oversized box
    cells = (n1 + 1) * (n2 + 1)
    x1, x2, en = (np.empty(cells, dtype=t) for t in (np.int32, np.int32, float))
    n = 0
    for x0, keep in blocks:
        rows, w = keep.shape
        # the energy of each cell, through the same operations as on its
        # (x1, x2) pair alone
        grid = energy(np.arange(x0, x0 + rows, dtype=float)[:, None], np.arange(w, dtype=float))
        keep &= grid <= T
        end = n + int(np.count_nonzero(keep))
        idx = _mask_rows(x0, keep, out=(x1[n:end], x2[n:end]))[2]
        # every index is in range; the default mode="raise" writes `out` via a copy
        np.take(grid.ravel(), idx, out=en[n:end], mode="clip")
        n = end
    try:  # no view of a buffer is left, so only a second holder stops this
        x1.resize(n)
        x2.resize(n)
        en.resize(n)
    except ValueError:  # a tracer that reads frame.f_locals holds them (Python < 3.13)
        x1, x2, en = x1[:n].copy(), x2[:n].copy(), en[:n].copy()
    i = int(np.argmin(en)) if en.size else None
    if i is not None and np.exp(-en[i]) == 1.0:
        raise ValueError(f"site energy {en[i]:.3g} at ({x1[i]}, {x2[i]}) is below double "
                         "resolution: exp(-E) rounds to 1 and leaves no law; raise the rates")
    for a in (x1, x2, en):
        a.setflags(write=False)
    return x1, x2, en


def _linear_tail(beta1: float, beta2: float, lam: float, truncation: float) -> np.ndarray:
    """Rigorous upper bounds on what the sites with beta.x > T add to
    (log Z, E[X1], E[X2], E[K]) of the linear energy.

    An omitted site has rho = e^{-beta.x} <= rho_max = e^{-max(T, min beta)},
    so log Z_x and P[omega > 0] are at most lam*rho/(1-rho_max) and E[omega]
    at most lam*rho/(1-rho_max)^2.  The sums of rho, x1*rho and x2*rho over
    the nonzero quadrant points with beta.x > T go by columns x1: a column
    x1 <= X = floor(T/beta1) starts at some x2 = m >= y+ = max(T - beta1*x1,
    0)/beta2, so its sum of rho is at most e^-T/(1-r2), r_i = e^-beta_i, and
    its sum of x2*rho at most e^-T*((y+ + 1)/(1-r2) + r2/(1-r2)^2), with
    sum_x1 y+ <= (T + T^2/(2 beta1))/beta2; the columns past X are summed
    whole.  For rho alone this gives at most
    e^-T*((T/beta1 + 1) + 1/(1-r1))/(1-r2).
    """
    # a smaller T omits more sites, so the bound at min(T, 700) holds at T,
    # and e^-T stays a normal double
    T = min(truncation, 700.0)
    X = math.floor(T / beta1)
    A = X + 1.0  # columns 0..X
    d1, d2 = -math.expm1(-beta1), -math.expm1(-beta2)  # 1 - r_i
    r1, r2 = math.exp(-beta1), math.exp(-beta2)
    eT, rA = math.exp(-T), math.exp(-beta1 * A)
    s0 = (A * eT + rA / d1) / d2
    s1 = (X * A / 2.0 * eT + rA * (A * d1 + r1) / d1**2) / d2
    y = (T + T * T / (2.0 * beta1)) / beta2
    s2 = eT * ((y + A) / d2 + A * r2 / d2**2) + rA / d1 * r2 / d2**2
    c = -math.expm1(-max(T, min(beta1, beta2)))  # 1 - rho_max
    return lam * np.array([s0 / c, s1 / c**2, s2 / c**2, s0 / c])


# right-endpoint panels of the quarter-turn integral in `_radial_tail`
_RADIAL_PANELS = 256


def _radial_tail(energy: EnergyModel, lam: float, truncation: float) -> float:
    """Rigorous upper bound on what the sites with E(x) > T add to log Z of
    the Euclidean or mixed energy.

    Both are E = beta*N, N(y) = c1*|y|_1 + c2*|y|_2 with (c1, c2) = (0, 1) or
    (1, sqrt(2)*lam_ell), c2 > -1: positive, homogeneous and increasing in
    each coordinate on the quadrant (a norm for c2 >= 0).  Across a unit
    square x + [0,1]^2 of the quadrant E grows by at most
    D = beta*(2*c1 + sqrt(2)*max(c2, 0)), so the squares of the C(R) lattice
    points with E <= R cover {E <= R} and lie in {E <= R + D}:
    a*R^2 <= C(R) <= a*(R + D)^2, a the quadrant area of {E <= 1}.  The sum
    of e^-E over the points with E > T, int_T^inf e^-R (C(R) - C(T)) dR, is
    then at most a*e^-T*(2T(D+1) + (D+1)^2 + 1), and log Z_x is at most
    lam*rho/(1-e^-max(T, E(1,0))) at each of them, as every site has
    E >= E(1,0) = beta*(c1 + c2) > 0.  In polar coordinates about the
    diagonal, a = beta^-2 * int_0^{pi/4} (sqrt(2)*c1*cos(phi) + c2)^-2 dphi,
    whose integrand increases with phi: a right-endpoint sum bounds it.
    """
    # a smaller T omits more sites, so the bound at min(T, 700) holds at T
    T = min(truncation, 700.0)
    if energy.kind == "euclidean":
        (b,) = energy.params
        c1, c2 = 0.0, 1.0
    else:
        b, le = energy.params
        c1, c2 = 1.0, _SQRT2 * le
    h = math.pi / 4.0 / _RADIAL_PANELS
    phi = h * np.arange(1, _RADIAL_PANELS + 1)
    area = float(np.sum((_SQRT2 * c1 * np.cos(phi) + c2) ** -2.0))
    a = h * area / (b * b)
    if area < np.finfo(float).tiny or a == 0.0:  # lost its bits, or bounds nothing
        return math.inf
    D = b * (2.0 * c1 + _SQRT2 * max(c2, 0.0))
    shells = a * math.exp(-T) * (2.0 * T * (D + 1.0) + (D + 1.0) ** 2 + 1.0)
    return lam * shells / -math.expm1(-max(T, b * (c1 + c2)))


def truncation_bound(params: GibbsParams) -> float:
    """Rigorous upper bound on the log-partition mass lost to truncation:
    the column sum of `_linear_tail` for the linear energy, the shell sum of
    `_radial_tail` for the Euclidean and mixed ones.  Both divide by squared
    rates: at a tiny rate the bound overflows, or the square underflows to 0
    (below a rate of about 1.5e-162); past lam_ell ~ 1e154 the mixed one
    squares a growth out of double range or loses its area to underflow.  A
    bound that is not finite is refused with a ValueError that names the
    rates, and lam_ell for the mixed energy."""
    energy = params.energy
    try:
        if energy.kind == "linear":
            bound = float(_linear_tail(*energy.params, params.fugacity, params.truncation)[0])
        else:
            bound = _radial_tail(energy, params.fugacity, params.truncation)
    except (ZeroDivisionError, OverflowError):  # a square that underflows to 0 or overflows
        bound = math.inf
    if not math.isfinite(bound):
        p = energy.params
        at = f"rates ({p[0]:g}, {p[1]:g})" if energy.kind == "linear" else f"rate {p[0]:g}"
        ell, fix = ((f" with lam_ell {p[1]:g}", "raise the rate or lower lam_ell")
                    if energy.kind == "mixed" else ("", "raise the rates"))
        raise ValueError(f"the {energy.kind} truncation bound at {at} is not finite{ell}: "
                         f"it leaves double range; {fix}")
    return bound


# sites per leaf of `_pairwise_sums`, and per slice of the laws' and the
# sampler labels' scratch: 128 KiB of float64
_LEAF = 1 << 14


def _leaf_laws(e, g: float, rho, a, t, occupation: bool = True):
    """The biased geometric law at g = -log(lam) of the sites with energies
    `e`, a leaf at a time into scratch of their size: rho = e^-E into `rho`,
    then a = g + E + log(1-rho) into `a` by way of `t`, which is left
    holding log(1-rho); with `occupation`, a is then turned in place into
    q = P[omega > 0] = 1/(1 + e^a).

    In a, log Z_x = log(1 + e^-a) and q stay finite at any fugacity (a ->
    -inf just saturates the occupation at 1, and an e^a that overflows
    leaves it 0).  The operation order of a keeps calibration iterates
    reproducible.
    """
    np.exp(np.negative(e, out=rho), out=rho)
    np.log1p(np.negative(rho, out=t), out=t)  # log(1 - rho)
    np.add(np.add(g, e, out=a), t, out=a)
    if occupation:
        with np.errstate(over="ignore"):
            np.exp(a, out=a)
        np.divide(1.0, np.add(1.0, a, out=a), out=a)


def _pairwise_sums(terms, lo: int, hi: int) -> np.ndarray:
    """Sums over the sites [lo, hi) of per-site terms, each with the bits of
    `np.sum` over its whole term array when [lo, hi) is all of it.

    numpy sums a contiguous float64 array pairwise: it halves [0, n), rounds
    the first half down to a multiple of 8 and recurses.  This walks the
    same tree down to nodes of at most _LEAF sites, where `terms(lo, hi)`
    yields the node's term arrays in a fixed order; `np.sum` of each is the
    subtree numpy would form, and the node sums add up along the tree.  A
    term may reuse the scratch of the one before, which is summed first.
    """
    if hi - lo <= _LEAF:
        return np.array([np.sum(t) for t in terms(lo, hi)])
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    return _pairwise_sums(terms, lo, mid) + _pairwise_sums(terms, mid, hi)


def _log_z(energy: EnergyModel, g: float, truncation: float) -> float:
    """Sum over truncated sites of log Z_x = log(1 + e^-a), the a of
    `_leaf_laws` formed leaf by leaf in three scratch arrays."""
    en = _site_arrays(energy, truncation)[2]
    rho, a, s = np.empty((3, min(en.size, _LEAF)))

    def terms(lo, hi):
        b = a[:hi - lo]
        _leaf_laws(en[lo:hi], g, rho[:hi - lo], b, s[:hi - lo], occupation=False)
        yield np.logaddexp(0.0, np.negative(b, out=b), out=b)

    return float(_pairwise_sums(terms, 0, en.size)[0])


def _site_sums(energy: EnergyModel, g: float, truncation: float):
    """(E[X1], E[X2], E[K]) and the covariance of (X1, X2, K) over the
    truncated sites.  Per leaf, `_leaf_laws` forms rho and q, E[omega] and
    Var(omega) go into scratch arrays and each product into one more before
    its sum; the int32 coordinates are cast to float inside the first
    product, exactly."""
    x1, x2, en = _site_arrays(energy, truncation)
    rho, occ, mean, var, ck, s = np.empty((6, min(en.size, _LEAF)))

    def terms(lo, hi):
        a1, a2 = x1[lo:hi], x2[lo:hi]
        r, qs, mu, v, k, t = (b[:hi - lo] for b in (rho, occ, mean, var, ck, s))
        _leaf_laws(en[lo:hi], g, r, qs, t)

        def prod(a, b, c=None):
            np.multiply(a, b, out=t, dtype=float)
            return t if c is None else np.multiply(t, c, out=t)

        np.divide(qs, np.subtract(1.0, r, out=t), out=mu)
        np.add(1.0, r, out=v)  # q (1 + rho) / (1 - rho)^2 - mean^2
        np.multiply(qs, v, out=v)
        np.divide(v, np.square(t, out=t), out=v)
        np.subtract(v, np.square(mu, out=t), out=v)
        yield prod(a1, mu)
        yield prod(a2, mu)
        yield qs
        yield prod(a1, a1, v)
        yield prod(a2, a2, v)
        yield prod(a1, a2, v)
        np.subtract(1.0, qs, out=k)
        yield prod(qs, k)
        k *= mu  # Cov(omega, 1{omega>0}) = mean (1 - q) per site
        yield prod(a1, k)
        yield prod(a2, k)

    ex1, ex2, ek, v11, v22, v12, vkk, v1k, v2k = _pairwise_sums(terms, 0, en.size)
    return (np.array([ex1, ex2, ek]),
            np.array([[v11, v12, v1k], [v12, v22, v2k], [v1k, v2k, vkk]]))


# -- closed-form kernel for the linear energy, no site enumeration ------------

# The Mobius sum stops at N >= _MOBIUS_TAIL/min(beta): past N every G(n) is
# below 2.01*e^{-45}*e^{-(n-N)min(beta)} and every weight |a_n| below
# 2*(1 + log n) (times n^2 for the Hessian), so what log Z and each
# derivative omit is of order e^-45 times a power of N relative to their
# value, far below rounding.
_MOBIUS_TAIL = 45.0


@lru_cache(maxsize=4)
def _mobius_pairs(n_max: int):
    """Zero-based (j-1, j*d-1, mu(d)) for every j*d <= n_max with mu(d) != 0:
    the index pairs of the Dirichlet convolution a_n = sum_{jd=n} c_j mu(d)."""
    mu = np.ones(n_max + 1, dtype=np.int64)
    mu[0] = 0
    for p in _primes(n_max).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    d = np.flatnonzero(mu)
    counts = n_max // d
    dd = np.repeat(d, counts)
    j = np.arange(dd.size) - np.repeat(np.cumsum(counts) - counts, counts)  # j - 1
    pairs = (j, (j + 1) * dd - 1, mu[dd].astype(float))
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


def _mobius_log_z(beta1: float, beta2: float, g: float):
    """(log Z, gradient, Hessian) of the linear energy in v = (beta1, beta2, g),
    g = -log(lam), summed over all primitive sites (untruncated); 0 < lam <= 2.

    log(1 + lam*rho/(1-rho)) = sum_j c_j rho^j, c_j = (1 - (1-lam)^j)/j, which
    converges for |1-lam| <= 1; the multiples m*x of the primitive sites x are
    all nonzero quadrant points, so Mobius inversion gives
    log Z = sum_n a_n G(n), a_n = sum_{jd=n} c_j mu(d), with
    G(n) = 1/((1-u1)(1-u2)) - 1 = s1 + s2 + s1*s2, u_i = e^{-n*beta_i},
    s_i = u_i/(1-u_i).  The beta-derivatives come from ds/dbeta = -n s(1+s),
    the g-derivatives from dc_j/dg = -lam (1-lam)^(j-1).
    """
    n_max = 1 << max(0, math.ceil(math.log2(_MOBIUS_TAIL / min(beta1, beta2))))
    pairs = n_max * (1.0 + math.log(n_max))  # >= the (j, d) pairs, each about a site's cost
    check_budget(f"the Mobius sum to N = {n_max:,}", pairs, SITE_BUDGET, "index pairs")
    j, n, mu = _mobius_pairs(n_max)
    m = np.arange(1, n_max + 1)  # j for the c arrays, n for the G arrays
    lam = math.exp(-g)
    if g > 0:  # lam < 1: (1-lam)^j = exp(j*log1p(-lam)), exact for small lam
        lw = math.log1p(-lam)
        c = -np.expm1(m * lw) / m
        w_pow = np.exp((m - 1) * lw)  # (1-lam)^(j-1)
    else:
        w = max(-math.expm1(-g), -1.0)
        w_pow = np.power(w, m - 1)
        c = (1.0 - w * w_pow) / m
    dc = -lam * w_pow
    d2c = lam * w_pow
    d2c[1:] -= lam * lam * (m[1:] - 1) * w_pow[:-1]
    a, da, d2a = (np.bincount(n, weights=mu * cc[j], minlength=n_max) for cc in (c, dc, d2c))

    s1, s2 = (np.exp(-m * b) / -np.expm1(-m * b) for b in (beta1, beta2))
    t1, t2 = s1 * (1.0 + s1), s2 * (1.0 + s2)  # -ds_i/dbeta_i / n
    G = s1 + s2 + s1 * s2
    G1, G2 = -m * t1 * (1.0 + s2), -m * t2 * (1.0 + s1)
    m2 = m * m.astype(float)
    G11, G22 = m2 * t1 * (1.0 + 2.0 * s1) * (1.0 + s2), m2 * t2 * (1.0 + 2.0 * s2) * (1.0 + s1)
    G12 = m2 * t1 * t2
    grad = np.array([a @ G1, a @ G2, da @ G])
    hess = np.array([[a @ G11, a @ G12, da @ G1],
                     [a @ G12, a @ G22, da @ G2],
                     [da @ G1, da @ G2, d2a @ G]])
    return float(a @ G), grad, hess


# g = -log(lam) at and above which `_linear_log_z` takes the Mobius kernel
# (lam <= 2, where its series converges)
_G_SERIES = -math.log(2.0)


def _linear_log_z(beta1: float, beta2: float, g: float, truncation: float):
    """(log Z, gradient, Hessian, gap) of the linear energy in
    v = (beta1, beta2, g), g = -log(lam); the gradient is -(E[X1], E[X2], E[K])
    and the Hessian the covariance of (X1, X2, K).  gap bounds how far log Z
    and the three moments may lie from their sums over the sites with energy
    at most `truncation`.

    This is where the kernel is chosen: for lam <= 2 the Mobius kernel sums
    over all primitive sites (the untruncated measure), and gap is the
    `_linear_tail` bound plus KERNEL_ROUNDING of each value; above, its series
    diverges and the per-site law kernel sums over the truncated sites, the
    same numbers as `moments` and `log_partition`, with gap zero.
    """
    if g >= _G_SERIES:
        logz, grad, hess = _mobius_log_z(beta1, beta2, g)
        gap = (_linear_tail(beta1, beta2, math.exp(-g), truncation)
               + KERNEL_ROUNDING * np.abs([logz, *grad]))
        return logz, grad, hess, gap
    energy = EnergyModel.linear(beta1, beta2)
    means, cov = _site_sums(energy, g, truncation)
    return _log_z(energy, g, truncation), -means, cov, np.zeros(4)


def _law_key(params: GibbsParams):
    """(energy, g = -log(lam), truncation): the arguments of the law kernel."""
    return params.energy, -math.log(params.fugacity), params.truncation


def log_partition(params: GibbsParams) -> float:
    """Sum over truncated sites of log(1 + lam*rho/(1-rho)), rho = e^-E."""
    return _log_z(*_law_key(params))


def _mean_euclidean_length(params: GibbsParams) -> float:
    """E[L] = sum over truncated sites of |x|_2 * E[omega(x)] (-d log Z/d beta),
    the laws formed leaf by leaf by `_leaf_laws`."""
    energy, g, truncation = _law_key(params)
    x1, x2, en = _site_arrays(energy, truncation)
    rho, occ, h, s = np.empty((4, min(en.size, _LEAF)))

    def terms(lo, hi):
        r, qs, t = (b[:hi - lo] for b in (rho, occ, s))
        _leaf_laws(en[lo:hi], g, r, qs, t)
        np.divide(qs, np.subtract(1.0, r, out=t), out=t)  # E[omega]
        yield np.multiply(np.hypot(x1[lo:hi], x2[lo:hi], out=h[:hi - lo]), t, out=t)

    return float(_pairwise_sums(terms, 0, en.size)[0])


def moments(params: GibbsParams) -> MomentReport:
    """Exact truncated sums of the per-site moments; covariance of (X1,X2,K)."""
    key = _law_key(params)
    means, gamma = _site_sums(*key)
    gamma.setflags(write=False)
    return MomentReport(
        EX1=float(means[0]),
        EX2=float(means[1]),
        EK=float(means[2]),
        covariance=gamma,
        site_count=int(_site_arrays(key[0], key[2])[2].size),
        truncation_bound=truncation_bound(params),
    )


# -- sampler: geometric skipping over blocks of nearly equal q ----------------

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_LAST_BLOCK = 63  # blocks b = floor(-log2 q), capped here
_BLOCK_SHIFT = 40  # counter word of a uniform: block << 40 | 2*index + stream


def _mix(z):
    # SplitMix64 finalizer; relies on mod-2^64 wraparound, hence the errstate.
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _uniforms(seed: int, words: np.ndarray) -> np.ndarray:
    """Uniforms in [0,1), a pure function of (seed, counter word)."""
    base = _U64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        z = _mix(base + _GOLDEN) + words.astype(np.uint64) * _GOLDEN
    return (_mix(z) >> _U64(11)).astype(float) * 2.0**-53


# leaves of `_pairwise_sums` per chunk of the counting sort in `_sampler_index`
_SORT_LEAVES = 4


@lru_cache(maxsize=1)
def _sampler_index(energy: EnergyModel, g: float, truncation: float):
    """The `_site_arrays` sites grouped by block b = floor(-log2 q), b <= 63:
    (order, start, size, block, q_max, log(1 - q_max)) with one entry per
    block that can be occupied, then E[K], the sum of q over the sites.

    One `_pairwise_sums` pass forms each leaf's laws in scratch, writes its
    int8 block labels, keeps the largest q of each block and counts the
    leaf's labels; the q it sums give E[K] the bits of `np.sum` over all q.
    `order` (int32: SITE_BUDGET keeps every site index below 2^31) is then
    a counting sort of the labels: each chunk of `_SORT_LEAVES` leaves is
    sorted stably and each of its block runs written to its place, so
    `order[start:start+size]` are the block's site indices in `_site_arrays`
    order, row-major in (x1, x2).
    """
    en = _site_arrays(energy, truncation)[2]
    label = np.empty(en.size, dtype=np.int8)
    rho, q, t = np.empty((3, min(en.size, _LEAF)))
    q_max = np.zeros(_LAST_BLOCK + 1)
    leaf_lo, counts = [], []  # where each leaf starts, and its label counts

    def terms(lo, hi):
        r, qs, s = (b[:hi - lo] for b in (rho, q, t))
        _leaf_laws(en[lo:hi], g, r, qs, s)
        with np.errstate(divide="ignore"):  # q = 0 goes to the last block
            np.log2(qs, out=s)
        lab = label[lo:hi]
        lab[:] = np.minimum(np.floor(np.negative(s, out=s), out=s), _LAST_BLOCK, out=s)
        np.maximum.at(q_max, lab, qs)  # a max is exact: the bits of any gather
        leaf_lo.append(lo)
        counts.append(np.bincount(lab, minlength=_LAST_BLOCK + 1))
        yield qs

    mean_k = _pairwise_sums(terms, 0, en.size)[0]
    cuts = [*leaf_lo[::_SORT_LEAVES], en.size]
    counts = np.add.reduceat(counts, np.arange(0, len(counts), _SORT_LEAVES), axis=0)
    size = counts.sum(axis=0)
    start = np.cumsum(size) - size
    place = start.copy()  # where each block's next run goes
    order = np.empty(en.size, dtype=np.int32)
    for lo, hi, n in zip(cuts, cuts[1:], counts):
        run = np.argsort(label[lo:hi], kind="stable")  # the chunk's runs, block by block
        run += lo
        k = 0
        for b in np.flatnonzero(n).tolist():
            order[place[b]:place[b] + n[b]] = run[k:k + n[b]]
            k += n[b]
        place += n
    block = np.flatnonzero(size)
    start, size, q_max = start[block], size[block], q_max[block]
    keep = q_max > 0.0
    with np.errstate(divide="ignore"):  # q_max = 1: log 0 = -inf, every gap is 0
        log_miss = np.log1p(-q_max[keep])
    index = (order, start[keep], size[keep], block[keep], q_max[keep], log_miss)
    for arr in index:
        arr.setflags(write=False)
    return (*index, mean_k)


def _check_draws(what: str, draws, extra: float = 0.0) -> None:
    """Price `draws`, (params, count) pairs, before the first: E[K] +
    GIBBS_DRAW_ENTRIES + `extra` support entries each, E[K] the sum of q
    that the sampler index of each set forms as it builds.  The caches keep
    one set, so a run over several sets keeps only the last one priced; the
    draws at the others build them again."""
    need = sum(count * (float(_sampler_index(*_law_key(p))[6]) + GIBBS_DRAW_ENTRIES + extra)
               for p, count in draws)
    check_budget(what, need, GIBBS_ENTRY_BUDGET, "support entries")


def sample_omega(params: GibbsParams, seed: int) -> MultiplicityDistribution:
    """Independent biased-geometric draw at every truncated site, in
    O(K + #blocks) work.

    In each block the candidates are a Bernoulli(q_max) subset of its
    positions, reached by geometric gaps; a candidate at site x is kept with
    probability q(x)/q_max, so it is occupied with probability q(x), and the
    conditional uniform of that acceptance drives the inverse-CDF
    multiplicity draw.
    """
    key = _law_key(params)
    order, start, size, block, q_max, log_miss, _ = _sampler_index(*key)
    # gaps in batches of about 4 standard deviations over the mean candidate
    # count; a block short of its end is drawn again with a doubled batch,
    # and meets the same gaps, as uniforms are a function of their word
    expected = size * q_max
    batch = np.ceil(expected + 4.0 * np.sqrt(expected) + 4.0).astype(np.int64)
    live = np.arange(block.size)
    hits = [np.empty((3, 0), dtype=np.int64)]  # (block, position, gap index)
    while live.size:
        n = np.minimum(batch[live], size[live])
        ends = np.cumsum(n)
        first = ends - n
        b = np.repeat(live, n)
        j = np.arange(ends[-1]) - np.repeat(first, n)  # gap index
        u = _uniforms(seed, (block[b] << _BLOCK_SHIFT) | (2 * j))
        with np.errstate(over="ignore"):  # log_miss -> 0 overflows to inf
            gap = np.floor(np.log1p(-u) / log_miss[b])
        step = np.minimum(gap, size[b]).astype(np.int64) + 1  # clamped: no cast overflow
        c = np.cumsum(step)
        p = c - np.repeat(c[first] - step[first] + 1, n)  # position in block
        done = p[ends - 1] >= size[live] - 1
        hit = np.repeat(done, n) & (p < size[b])
        hits.append(np.stack([b[hit], p[hit], j[hit]]))
        live = live[~done]
        batch *= 2
    b, p, j = np.concatenate(hits, axis=1)
    x1, x2, en = _site_arrays(key[0], key[2])
    site = order[start[b] + p]
    rho, ratio, t = np.empty((3, site.size))
    _leaf_laws(en[site], key[1], rho, ratio, t)  # the candidates' laws: q into `ratio`
    ratio /= q_max[b]
    u = _uniforms(seed, (block[b] << _BLOCK_SHIFT) | (2 * j + 1))
    acc = u < ratio
    site = site[acc]
    v = np.minimum(u[acc] / ratio[acc], 1.0 - 1e-16)  # conditional uniform
    mult = 1 + np.floor(np.log1p(-v) / np.log(rho[acc])).astype(np.int64)
    rank = np.argsort(site)  # support in row-major order
    site, mult = site[rank], mult[rank]
    xy = np.column_stack([x1[site], x2[site]]).astype(np.int64)  # the constructor's array path
    return MultiplicityDistribution(xy, mult)
