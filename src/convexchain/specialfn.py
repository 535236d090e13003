"""Polylogarithm kernel, correctly rounded zeta(2) and zeta(3), and the
asymptotic coefficient functions.

Two functions of the fugacity-like parameter ell drive every asymptotic
statement downstream:

    c(ell) = ell/(1-ell) * Li2(1-ell) / (zeta(2)^(1/3) * (zeta(3) - Li3(1-ell))^(2/3))
    e(ell) = 3*((zeta(3) - Li3(1-ell))/zeta(2))^(1/3) - log(ell)*c(ell)

The 0/0 shape of c at ell = 1 is removed by evaluating ell * (Li2(w)/w) with
w = 1 - ell through the ratio series sum w^(j-1)/j^2.  Below ell = 0.2
both c and e take Li2(1-ell) and zeta(3) - Li3(1-ell) from the log series
below at mu = log1p(-ell), the latter without its zeta(3) term: the
subtraction would cancel, the defining series' absolute tail bound is large
beside that small difference, and w would round to 1 below ell ~ 1.1e-16.

Li_s(z) for real z < 1 is computed by the defining series where it converges
comfortably (|z| <= 0.98).  Outside that disk c and e need only Li2 and Li3,
which are continued in closed form (Lewin, Polylogarithms and Associated
Functions, 1981):

    z < -1:          inversion  Li2(z) = -zeta(2) - log(-z)^2/2 - Li2(1/z),
                                Li3(z) = Li3(1/z) - zeta(2) log(-z) - log(-z)^3/6
    -1 <= z < -0.98: duplication  Li_s(z) = 2^(1-s) Li_s(z^2) - Li_s(-z)
    0.98 < z < 1:    the log series in mu = log z,
                     Li_s(e^mu) = mu^(s-1)/(s-1)! (H_(s-1) - log(-mu))
                                  + sum_(k != s-1) zeta(s-k) mu^k/k!,
                     with zeta(-n) = -B_(n+1)/(n+1) from Bernoulli numbers.

Each route ends in the series or the log series, so no quadrature is left;
other orders outside the disk are refused.  The tests check the routes
against the integral representation, an independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import POLYLOG_SERIES_TOL

__all__ = [
    "polylog",
    "ratio_li2",
    "c_of_ell",
    "e_of_ell",
    "ZETA2",
    "ZETA3",
]

# zeta(2) = pi^2/6 and zeta(3), each the correctly rounded double
ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595942
# Bernoulli numbers B_2, B_4, B_6, B_8 of the log series' zeta(1-2j)
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30)
# c and e take the log series at mu = log1p(-ell) below this ell
_SMALL_ELL = 0.2


def _series_terms(az: float, s: float, tol: float) -> np.ndarray:
    """j = 1..N for a series in az^j / j^s, N doubled from 16 until the tail
    bound sum_{j>N} az^j / j^s <= az^(N+1) / ((N+1)^s (1-az)) is below tol;
    a power (N+1)^s past double range is inf, and its tail 0."""
    N = 16
    with np.errstate(over="ignore"):
        while az ** (N + 1) / (np.float64(N + 1) ** s * (1 - az)) > tol:
            N *= 2  # az^(N+1) reaches 0 for every az <= 0.98, so this ends
    return np.arange(1, N + 1, dtype=float)


def _polylog_series(s: float, z: float) -> float:
    j = _series_terms(abs(z), s, POLYLOG_SERIES_TOL)
    with np.errstate(over="ignore"):  # a term whose j^s is inf is 0
        return float(np.sum(z**j / j**s))


def _log_terms(s: int, mu: float) -> list[float]:
    """The terms of the log series of Li_s(e^mu) for s = 2 or 3 and
    log(0.8) < mu <= 0, zeta(s) first.  The first term left out,
    zeta(-9) mu^(s+9)/(s+9)!, is below 1.3e-17."""
    if mu == 0.0:
        return [ZETA2 if s == 2 else ZETA3]
    # zeta(s-k) for k = 0..s+8, with the log term's H_(s-1) - log(-mu) in
    # the k = s-1 slot; then zeta(0) = -1/2 and zeta(1-2j) = -B_2j/(2j),
    # zeta(-2j) = 0
    low = [ZETA2] if s == 2 else [ZETA3, ZETA2]
    coef = low + [(1.0 if s == 2 else 1.5) - math.log(-mu), -0.5]
    for j, b in enumerate(_BERNOULLI, start=1):
        coef += [-b / (2 * j), 0.0]
    terms, power = [], 1.0
    for k, c in enumerate(coef):
        terms.append(c * power)
        power *= mu / (k + 1)
    return terms


def _li23(s: int, z: float) -> float:
    """Li_s(z) for s = 2 or 3 and real z <= 1, by the routes of the module
    docstring; each inversion or duplication lands in |z| <= 1."""
    if abs(z) <= 0.98:
        return _polylog_series(s, z)
    if z > 0.0:
        return math.fsum(_log_terms(s, math.log(z)))
    if z >= -1.0:
        return 2.0 ** (1 - s) * _li23(s, z * z) - _li23(s, -z)
    L = math.log(-z)
    if s == 2:
        return -ZETA2 - 0.5 * L * L - _li23(2, 1.0 / z)
    return _li23(3, 1.0 / z) - ZETA2 * L - L**3 / 6.0


def polylog(s: float, z: float) -> float:
    """Li_s(z) for real finite z < 1 and s > 0: the series for |z| <= 0.98;
    outside that disk s = 1 is -log(1-z) and s = 2 or 3 the closed forms,
    and any other order raises ValueError."""
    if not s > 0:
        raise ValueError(f"polylog requires s > 0, got {s}")
    if not -math.inf < z < 1:
        raise ValueError(f"polylog requires finite z < 1, got {z}")
    if s == 1.0:
        return -math.log1p(-z)
    if s in (2.0, 3.0):
        return _li23(int(s), z)
    if abs(z) <= 0.98:
        return _polylog_series(s, z)
    raise ValueError(f"polylog of order {s} is only available for |z| <= 0.98, got z = {z}")


def ratio_li2(w: float) -> float:
    """Li2(w)/w extended continuously by 1 at w = 0 (series sum w^(j-1)/j^2)."""
    if abs(w) <= 0.98:
        # the tail is bounded relative to |w|, the size of Li2(w)
        j = _series_terms(abs(w), 2.0, POLYLOG_SERIES_TOL * abs(w))
        return float(np.sum(w ** (j - 1) / j**2))
    return polylog(2.0, w) / w


def _residue_core(lam: float) -> float:
    """zeta(3) - Li3(1-lam), the residue core of log Z; exact at lam = 1,
    where Li3(0) = 0, and below _SMALL_ELL the log series past its zeta(3)."""
    if lam < _SMALL_ELL:
        return -math.fsum(_log_terms(3, math.log1p(-lam))[1:])
    return ZETA3 - polylog(3.0, 1.0 - lam)


def c_of_ell(ell: float) -> float:
    """Coefficient of (n1*n2)^(1/3) in the typical vertex count, as a function
    of the fugacity ell; c(1) = (zeta(2)*zeta(3)^2)^(-1/3) ~ 0.749."""
    if not 0 < ell < math.inf:
        raise ValueError(f"c_of_ell requires finite ell > 0, got {ell}")
    # ell/(1-ell)*Li2(1-ell) == ell * ratio_li2(1-ell): smooth through ell = 1
    if ell < _SMALL_ELL:
        numerator = ell * math.fsum(_log_terms(2, math.log1p(-ell))) / (1.0 - ell)
    else:
        numerator = ell * ratio_li2(1.0 - ell)
    return numerator / (ZETA2 ** (1.0 / 3) * _residue_core(ell) ** (2.0 / 3))


def e_of_ell(ell: float) -> float:
    """Coefficient of (n1*n2)^(1/3) in log p(n;k) along the calibrated family;
    e(1) = 3*(zeta(3)/zeta(2))^(1/3) ~ 2.702, and ell = 1 is the maximum."""
    if not 0 < ell < math.inf:
        raise ValueError(f"e_of_ell requires finite ell > 0, got {ell}")
    return (3.0 * (_residue_core(ell) / ZETA2) ** (1.0 / 3)
            - math.log(ell) * c_of_ell(ell))

