import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from convexchain import specialfn as sf
from convexchain.cli import main
from convexchain.specialfn import c_of_ell, e_of_ell, polylog, ratio_li2
from oracles import POSITIVE_DOUBLES, c_and_e_decimal, polylog_integral, zeta
from paper import EULER_GAMMA, parallel_constant, residue_logZ, zeta_prime

# Reference decimals frozen from a 25-digit mpmath session (test-side oracle).
MPMATH_REFERENCE = {
    ("zeta", 3.0): 1.2020569031595943,
    ("zeta_prime", 2.0): -0.93754825431584375,
    ("Li", 2.0, -3.0): -1.939375420766709,
    ("Li", 3.0, -10.0): -5.9210648037569735,
    ("Li", 2.5, 0.3): 0.31794896947832962,
    ("Li", 0.5, -5.0): -1.2972654048194185,
    ("Li", 2.0, 0.999): 1.6370226052761177,
    ("Li", 3.0, 0.99): 1.1858329336450369,
}


def test_zeta_classical_values():
    assert abs(zeta(2.0) - math.pi**2 / 6) <= 1e-12
    assert abs(zeta(4.0) - math.pi**4 / 90) <= 1e-12
    assert abs(zeta(3.0) - MPMATH_REFERENCE[("zeta", 3.0)]) <= 1e-12


def test_constants_are_correctly_rounded():
    # exact rational partial sums of zeta(2) = 3*sum 1/(k^2 C(2k,k)) and of
    # Apery's zeta(3) = (5/2)*sum (-1)^(k+1)/(k^3 C(2k,k)); the 60-term tails
    # are below 4^-60, and float() of a Fraction rounds correctly
    ks = range(1, 61)
    z2 = 3 * sum(Fraction(1, k**2 * math.comb(2 * k, k)) for k in ks)
    z3 = Fraction(5, 2) * sum(Fraction((-1) ** (k + 1), k**3 * math.comb(2 * k, k)) for k in ks)
    assert sf.ZETA2 == float(z2) == math.pi**2 / 6
    assert sf.ZETA3 == float(z3)


def test_zeta_near_pole_and_domain():
    # Euler-Maclaurin keeps full accuracy even just above the pole
    assert abs(zeta(1.001) - 1000.5772884760117) < 1e-9  # 1/(s-1)+gamma+O(s-1)
    for s in (1.0, 0.5, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            zeta(s)


def test_zeta_prime():
    assert abs(zeta_prime(2.0) - MPMATH_REFERENCE[("zeta_prime", 2.0)]) <= 1e-12
    with pytest.raises(ValueError):
        zeta_prime(1.0)


def test_polylog_identities():
    assert abs(polylog(1.0, 0.5) - math.log(2)) <= 1e-14
    assert abs(polylog(2.0, 1 - 1e-6) - sf.ZETA2) <= 1e-4
    assert abs(polylog(3.0, -1.0) + 0.75 * sf.ZETA3) <= 1e-12


def test_polylog_against_frozen_oracle():
    # the library wherever it is defined (orders 2 and 3, and any order in
    # |z| <= 0.98); the integral oracle at every reference, s = 2.5 and 0.5
    # included
    for key, ref in MPMATH_REFERENCE.items():
        if key[0] != "Li":
            continue
        _, s, z = key
        tol = 1e-11 * max(1.0, abs(ref))
        if s in (2.0, 3.0) or abs(z) <= 0.98:
            assert abs(polylog(s, z) - ref) <= tol, key
        assert abs(polylog_integral(s, z) - ref) <= tol, key


def test_polylog_dual_route_agreement():
    # every closed-form route against the integral oracle: inversion out to
    # z = -1e8, duplication on both sides of z = -1, the log series up to
    # z = 1 - 1e-12, and the series on either side of each switch
    grid = np.concatenate([-np.logspace(8, math.log10(0.98), 60),
                           np.linspace(-1.05, -0.95, 41),
                           1.0 - np.logspace(math.log10(0.03), -12, 60)])
    for z in grid:
        for s in (2.0, 3.0):
            a, b = polylog(s, float(z)), polylog_integral(s, float(z))
            assert abs(a - b) <= 1e-12 * abs(b), (s, z)


def test_polylog_large_negative_asymptotics():
    # Li2(-M) = -log(M)^2/2 - zeta(2) + O(log M / M)
    M = 1e8
    got = polylog(2.0, -M)
    assert abs(got - (-math.log(M) ** 2 / 2 - sf.ZETA2)) < 1e-5
    got3 = polylog(3.0, -M)
    expect3 = -math.log(M) ** 3 / 6 - sf.ZETA2 * math.log(M)
    assert abs(got3 - expect3) < 1e-4


def test_polylog_domain():
    for z in (1.0, 1.5, 2.0, -math.inf, math.nan):
        with pytest.raises(ValueError):
            polylog(2.0, z)
    with pytest.raises(ValueError):
        polylog(0.0, 0.5)
    # outside the series disk only orders 1, 2 and 3 have a route
    for s, z in ((2.5, -5.0), (0.5, 0.99), (4.0, -1.0)):
        with pytest.raises(ValueError, match="only available"):
            polylog(s, z)


@settings(max_examples=60, deadline=None)
@given(s=POSITIVE_DOUBLES)
@pytest.mark.parametrize("z", [0.5, -0.9, 0.98, -0.98])
def test_polylog_is_finite_at_every_order(z, s):
    # Li_s(z) -> z as s grows: a power j^s past double range gives a term 0
    try:
        value = polylog(s, z)
    except ValueError as refused:
        assert s == 0.0 and "s > 0" in str(refused)
    else:
        assert math.isfinite(value)
        if s >= 1100.0:
            assert value == z


def test_ratio_li2():
    assert ratio_li2(0.0) == 1.0
    for w in (-0.5, -1e-9, 1e-9, 0.3, 0.9):
        assert abs(ratio_li2(w) - polylog(2.0, w) / w) <= 1e-12 if w else True
    # ratio is smooth and ~ 1 + w/4 near zero
    assert abs(ratio_li2(1e-4) - (1 + 1e-4 / 4)) < 1e-8


def test_c_at_one():
    c1 = c_of_ell(1.0)
    assert abs(c1 - (sf.ZETA2 * sf.ZETA3**2) ** (-1.0 / 3)) <= 1e-14
    assert abs(c1 - 0.749) <= 1e-3


def test_e_at_one():
    e1 = e_of_ell(1.0)
    assert abs(e1 - 3 * (sf.ZETA3 / sf.ZETA2) ** (1.0 / 3)) <= 1e-14
    assert abs(e1 - 2.702) <= 1e-3


def test_c_continuity_across_one():
    # c'(1) = c(1)*(3/4 - 2/(3*zeta(3))) != 0, so the two-sided difference is
    # 2h*c'(1); at h = 1e-8 it sits under the 1e-8 contract.
    h = 1e-8
    assert abs(c_of_ell(1 + h) - c_of_ell(1 - h)) < 1e-8
    # at h = 1e-6 the difference must match the smooth slope, not blow up
    slope = c_of_ell(1.0) * (0.75 - 2.0 / (3.0 * sf.ZETA3))
    diff = c_of_ell(1 + 1e-6) - c_of_ell(1 - 1e-6)
    assert abs(diff - 2e-6 * slope) < 1e-9


def test_e_continuity_across_one():
    h = 1e-6
    assert abs(e_of_ell(1 + h) - e_of_ell(1 - h)) < 1e-8  # e'(1) = 0


def test_c_limits():
    lim = 3 * math.pi ** (-2.0 / 3)
    assert abs(c_of_ell(1e6) - lim) / lim < 0.02
    assert abs(c_of_ell(1e6) - 1.37328683816) < 1e-9
    # c(ell) ~ ell^(1/3) as ell -> 0
    assert c_of_ell(1e-6) < 0.011
    assert abs(c_of_ell(1e-8) / 1e-8 ** (1.0 / 3) - 1.0) < 0.01


@pytest.mark.parametrize("ell", [1e-300, 1e-20, 1e-16, 5e-17])
def test_c_and_e_at_small_ell_follow_their_leading_forms(ell):
    # c ~ ell^(1/3) and e ~ ell^(1/3)*(3 - log ell), the next order O(ell log ell);
    # 1 - ell rounds to 1 at the last two, where a route through w = 1 - ell fails
    lead = ell ** (1.0 / 3)
    assert c_of_ell(ell) == pytest.approx(lead, rel=1e-12)
    assert e_of_ell(ell) == pytest.approx(lead * (3.0 - math.log(ell)), rel=1e-12)


@pytest.mark.parametrize("ell", [0.03, 0.065, 0.13, 0.19])
def test_c_and_e_below_the_log_series_switch_match_a_decimal_oracle(ell):
    # here zeta(3) - Li3(1-ell) is small beside the defining series' absolute
    # tail bound, so c and e take the log series
    c, e = c_and_e_decimal(ell)
    assert c_of_ell(ell) == pytest.approx(c, rel=1e-15, abs=0)
    assert e_of_ell(ell) == pytest.approx(e, rel=1e-15, abs=0)


def test_asymptotics_table_at_tiny_ell_exits_zero(capsys):
    assert main(["asymptotics-table", "--ell-grid", "1e-300:1e-299:1e-300"]) == 0
    assert capsys.readouterr().out


def test_e_maximal_at_one_and_decay():
    grid = np.round(np.arange(0.1, 10.05, 0.1), 10)
    vals = [e_of_ell(float(x)) for x in grid]
    e1 = e_of_ell(1.0)
    assert all(v > 0 for v in vals)
    assert max(vals) == vals[list(grid).index(1.0)]
    assert all(v < e1 for x, v in zip(grid, vals) if x != 1.0)
    # decreasing on (1, inf) over the grid
    after_one = [v for x, v in zip(grid, vals) if x >= 1.0]
    assert all(a > b for a, b in zip(after_one, after_one[1:]))
    # decay to zero is logarithmic: e(ell) ~ 2*pi^(4/3)/log(ell)
    seq = [e_of_ell(x) for x in (10.0, 1e3, 1e6, 1e12)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert abs(seq[-1] - 0.343224956785) < 1e-9
    assert abs(seq[-1] - 2 * math.pi ** (4.0 / 3) / math.log(1e12)) / seq[-1] < 0.05


def test_c_e_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            c_of_ell(bad)
        with pytest.raises(ValueError):
            e_of_ell(bad)


def test_residue_logZ():
    beta = 0.05
    assert (
        abs(residue_logZ(beta, beta, 1.0) - sf.ZETA3 / (sf.ZETA2 * beta**2))
        <= 1e-12 * residue_logZ(beta, beta, 1.0)
    )
    # lambda -> 0: residue ~ lam/(beta1*beta2)
    lam = 1e-6
    assert abs(residue_logZ(0.1, 0.2, lam) * 0.02 / lam - 1.0) < 1e-3
    with pytest.raises(ValueError):
        residue_logZ(-0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        residue_logZ(0.1, 0.1, 0.0)


def test_residue_scaling_exact():
    base = residue_logZ(0.04, 0.1, 0.7)
    assert residue_logZ(0.02, 0.05, 0.7) == base * 4.0


def test_parallel_constant():
    C = parallel_constant()
    assert abs(C - 0.6946731171358) < 1e-9
    # recomputed from its pieces, not a stored decimal
    expect = (2 * sf.ZETA2 - 1 - EULER_GAMMA + zeta_prime(2.0) / sf.ZETA2) / sf.ZETA2
    assert C == expect
