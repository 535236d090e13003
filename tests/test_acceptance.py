"""Acceptance battery: one test and one summary line per numbered criterion.

Each test computes its observable, registers a ``[criterion N] ...`` line
(printed in the terminal summary by conftest), and asserts.  Two criteria
are structurally unattainable with honest implementations at these sizes and
are expected to fail rather than be weakened:

* criterion 2 — the k=3 count ratio at n=60 sits above the stated window.
  The k=2 ratio is exactly n(n+1)/(n-1)^2 and the k=3 ratio behaves like
  1 + 12.5/n, which enters [0.8, 1.1] only near n = 125: the window is an
  n -> infinity statement and n=60 is not deep enough.
* criterion 5 — the 2x-typical vertex target k=68 asks for the density
  68/300^(2/3) = 1.517, above the saturation density 3*pi^(-2/3) = 1.399
  that the calibrated family approaches (criterion 3), so no calibrated
  parameters exist and exact_calibrate raises CalibrationError.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from conftest import record_criterion
from paper import (
    erdos_lehner_ratio,
    free_energy,
    gibbs_parabola_distances,
    parallel_constant,
    parallel_probability,
    valtr_parabola_distances,
    valtr_uniformity_chisquare,
)

from convexchain.calibrate import (
    CalibrationError,
    CalibrationTarget,
    exact_calibrate,
    predicted_log_pnk,
)
from convexchain.counting import brute_force_enum, count_lines_k, max_vertices
from convexchain.experiments import typical_vertex_count
from convexchain.gibbs import EnergyModel, GibbsParams, log_partition
from convexchain.shapes import ShapeCurve, mixed_length
from convexchain.specialfn import ZETA2, ZETA3, c_of_ell, e_of_ell, polylog


@pytest.fixture(scope="module")
def table60():
    return count_lines_k(60, 60, 8)


@pytest.fixture(scope="module")
def table30():
    return count_lines_k(30, 30, 8)


def _finish(number, name, ok, target, observed):
    line = record_criterion(number, name, ok, target, observed)
    print(line)
    assert ok, line


def test_criterion_01_counts_match_enumeration():
    t0 = time.monotonic()
    table = count_lines_k(8, 8, max_vertices(8, 8))
    mismatches = 0
    checked = 0
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            buckets = Counter(
                omega.vertex_count for omega in brute_force_enum(n1, n2))
            for k in range(1, table.kmax + 1):
                checked += 1
                if table.p(n1, n2, k) != buckets.get(k, 0):
                    mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _finish(1, "exact counts equal brute-force enumeration on all boxes to 8x8",
            ok, "0 mismatches in <60s",
            f"{mismatches} mismatches over {checked} entries in {elapsed:.1f}s")


def test_criterion_02_few_vertex_count_ratio(table60, table30):
    t0 = time.monotonic()
    r60 = {k: erdos_lehner_ratio(60, k, table60) for k in (2, 3)}
    r30 = {k: erdos_lehner_ratio(30, k, table30) for k in (2, 3)}
    in_window = all(0.8 <= r60[k] <= 1.1 for k in (2, 3))
    improves = all(abs(r60[k] - 1.0) < abs(r30[k] - 1.0) for k in (2, 3))
    elapsed = time.monotonic() - t0
    ok = in_window and improves and elapsed < 300.0
    obs = ", ".join(f"k={k}: {r60[k]:.6f} at n=60 (vs {r30[k]:.6f} at n=30)"
                    for k in (2, 3))
    # p(n,n;2) = n(n+1)/2, so the k=2 ratio is n(n+1)/(n-1)^2 exactly; the
    # k=3 ratio behaves like 1 + 12.5/n and reaches 1.1 only near n = 125
    obs += (f"; exact k=2 n(n+1)/(n-1)^2 = {60 * 61 / 59**2:.6f} at n=60 "
            f"(vs {30 * 31 / 29**2:.6f} at n=30); k=3 n*(ratio-1) = "
            f"{30 * (r30[3] - 1.0):.1f} at n=30 -> {60 * (r60[3] - 1.0):.1f} "
            f"at n=60, so the window needs n near 125")
    _finish(2, "count ratio to the factorial-binomial form near 1, improving in n",
            ok, "in [0.8, 1.1] at n=60 and closer to 1 than n=30", obs)


def test_criterion_03_asymptotic_constants():
    c1, e1 = c_of_ell(1.0), e_of_ell(1.0)
    cap = 3.0 * math.pi ** (-2.0 / 3.0)
    c_sat = c_of_ell(1e6)
    ok = (abs(c1 - 0.749) <= 1e-3 and abs(e1 - 2.702) <= 1e-3
          and abs(c_sat / cap - 1.0) <= 0.02)
    _finish(3, "vertex-density and growth constants at ell=1 and saturation",
            ok, "c(1)=0.749+-0.001, e(1)=2.702+-0.001, c(1e6) within 2% of 3*pi^(-2/3)",
            f"c(1)={c1:.6f}, e(1)={e1:.6f}, c(1e6)/cap={c_sat / cap:.4f}")


def test_criterion_04_log_partition_residue_scaling():
    t0 = time.monotonic()
    ok = True
    pieces = []
    for lam in (0.2, 1.0, 3.0):
        denom = ZETA3 - polylog(3.0, 1.0 - lam)
        errs = []
        for beta in (0.1, 0.05, 0.02):
            params = GibbsParams(EnergyModel.linear(beta, beta), lam)
            ratio = log_partition(params) * ZETA2 * beta**2 / denom
            errs.append(abs(ratio - 1.0))
        ok = ok and errs[0] > errs[1] > errs[2] and errs[2] <= 0.03
        pieces.append(f"lam={lam:g}: " + "->".join(f"{e:.4f}" for e in errs))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _finish(4, "rescaled log partition approaches the trilogarithm residue",
            ok, "error decreasing in beta, <=0.03 at beta=0.02",
            "; ".join(pieces) + f" ({elapsed:.0f}s)")


def test_criterion_05_calibration_and_free_energy_derivatives():
    t0 = time.monotonic()
    typical = typical_vertex_count(300)
    checks = {}
    results = {}
    for k in (5, typical):
        res = exact_calibrate(CalibrationTarget(300, 300, k))
        results[k] = res
        checks[f"k={k} residual<=1e-6"] = (res.converged
                                           and max(res.residuals) <= 1e-6)
    checks["small-k rate within 30%"] = (
        abs(results[5].beta1 / (5 / 300) - 1.0) <= 0.30)
    k2 = 2 * typical
    try:
        res2 = exact_calibrate(CalibrationTarget(300, 300, k2))
        checks[f"k={k2} residual<=1e-6"] = (res2.converged
                                            and max(res2.residuals) <= 1e-6)
    except CalibrationError:
        # the box cannot host that many vertices on average at any parameters
        checks[f"k={k2} residual<=1e-6"] = False

    res = results[typical]
    target = CalibrationTarget(300, 300, typical)
    worst_g = 0.0
    worst_h = 0.0
    # probe just off the optimum (the gradient at the optimum itself is ~1e-13,
    # below central-difference resolution) and at a generic far point
    v_opt = np.array([res.beta1, res.beta2, -math.log(res.fugacity)])
    v_near = v_opt + np.array([1e-4, -1e-4, 1e-4])
    for v in (v_near, np.array([0.09, 0.15, 0.4])):
        g = free_energy(target, v)[1]
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            fd = (free_energy(target, v + e)[0] - free_energy(target, v - e)[0]) / 2e-6
            worst_g = max(worst_g, abs(g[i] - fd) / max(abs(fd), 1e-30))
    v = v_near
    H = free_energy(target, v)[2]
    for i in range(3):
        e = np.zeros(3)
        e[i] = 2e-4
        fd_row = (free_energy(target, v + e)[1] - free_energy(target, v - e)[1]) / 4e-4
        rel = np.abs(H[i] - fd_row) / np.maximum(np.abs(fd_row), 1e-12)
        worst_h = max(worst_h, float(rel.max()))
    checks["gradient FD<=1e-4"] = worst_g <= 1e-4
    checks["hessian FD<=1e-3"] = worst_h <= 1e-3
    elapsed = time.monotonic() - t0
    ok = all(checks.values()) and elapsed < 120.0
    failed = [name for name, good in checks.items() if not good]
    # the calibrated family saturates at density 3*pi^(-2/3) (criterion 3);
    # 2*typical asks for more than that, so no parameters reach it
    obs = (f"gradient FD {worst_g:.2e}, hessian FD {worst_h:.2e}, "
           + (f"failing: {failed}" if failed else "all sub-checks hold")
           + f"; k={k2} asks for density k/(n1*n2)^(1/3) = "
           f"{k2 / (300 * 300) ** (1.0 / 3.0):.3f} above the cap "
           f"3*pi^(-2/3) = {3.0 * math.pi ** (-2.0 / 3.0):.3f}"
           + f" ({elapsed:.0f}s)")
    _finish(5, "moment calibration at 300x300 with derivative checks",
            ok, f"k in {{5, {typical}, {k2}}} converge; FD within 1e-4/1e-3", obs)


def test_criterion_06_predicted_counts_match_exact(table60, table30):
    t0 = time.monotonic()
    errs = {}
    for n, table in ((30, table30), (60, table60)):
        for k in (4, 6, 8):
            target = CalibrationTarget(n, n, k)
            res = exact_calibrate(target)
            pred = predicted_log_pnk(target, res, with_llt=True)
            exact = math.log(table.p(n, n, k))
            errs[(n, k)] = abs(pred - exact) / exact
    within = all(errs[(60, k)] <= 0.25 for k in (4, 6, 8))
    shrink = (max(errs[(60, k)] for k in (4, 6, 8))
              < max(errs[(30, k)] for k in (4, 6, 8)))
    elapsed = time.monotonic() - t0
    ok = within and shrink and elapsed < 300.0
    obs = ", ".join(f"(n={n},k={k}): {errs[(n, k)]:.4f}"
                    for n in (30, 60) for k in (4, 6, 8))
    _finish(6, "log-count prediction matches exact tables, tightening with n",
            ok, "<=0.25 at n=60 and max error shrinking from n=30", obs)


def test_criterion_07_parallel_direction_sum():
    beta = 0.01
    exact = parallel_probability(beta, "exact_sum")
    # Mellin residue at the double pole s=2 of
    # Gamma(s)*(zeta(s-1)-zeta(s))^2/zeta(s), frozen from a 30-digit mpmath
    # session: C = (2*zeta(2) - 1 - euler_gamma + zeta'(2)/zeta(2))/zeta(2)
    #            = 0.6946731171...
    # The constant 0.471207 quoted earlier is the same expression with
    # zeta'(2) in place of zeta'(2)/zeta(2); it is kept in the report below.
    reference = beta**2 * (math.log(1.0 / beta) / ZETA2 - 0.694673)
    slipped = beta**2 * (math.log(1.0 / beta) / ZETA2 - 0.471207)
    derived = parallel_probability(beta, "asymptotic")
    gap_ref = abs(reference / exact - 1.0)
    gap_slip = abs(slipped / exact - 1.0)
    gap_der = abs(derived / exact - 1.0)
    ok = gap_ref <= 0.05
    _finish(7, "parallel-direction sum vs closed form with constant 0.694673",
            ok, "within 5% at beta=0.01",
            f"gap {gap_ref:.3f} with constant 0.694673 (gap {gap_slip:.3f} "
            f"with the slipped 0.471207); parallel_constant() = "
            f"{parallel_constant():.4f} gives gap {gap_der:.3f}")


def test_criterion_08_limit_curve_identities():
    pts = ShapeCurve.parabola().sample(1000)
    parabola_err = float(np.max(np.abs(
        np.sqrt(pts[:, 1]) + np.sqrt(1.0 - pts[:, 0]) - 1.0)))
    mixed0 = ShapeCurve.mixed(0.0).sample(400)
    graph_err = float(np.max(np.abs(
        mixed0[:, 1] - (1.0 - np.sqrt(1.0 - mixed0[:, 0])) ** 2)))
    length_err = abs(mixed_length(0.0) - (1.0 + math.log(1.0 + math.sqrt(2.0))
                                          / math.sqrt(2.0)))
    big = ShapeCurve.mixed(1e3).sample(400)
    circle_err = float(np.max(np.abs(
        np.hypot(big[:, 0], big[:, 1] - 1.0) - 1.0)))
    ok = (parabola_err <= 1e-12 and graph_err <= 1e-6
          and length_err <= 1e-9 and circle_err <= 1e-2)
    _finish(8, "limit-curve identities and degenerations",
            ok, "1e-12 / 1e-6 / 1e-9 / 1e-2",
            f"parabola {parabola_err:.1e}, mixed(0) {graph_err:.1e}, "
            f"L(0) {length_err:.1e}, mixed(1e3)-circle {circle_err:.1e}")


def test_criterion_09_shape_convergence():
    t0 = time.monotonic()
    g_small = gibbs_parabola_distances(1000)
    g_big = gibbs_parabola_distances(10000)
    v20 = valtr_parabola_distances(10000, 20)
    v50 = valtr_parabola_distances(10000, 50)
    elapsed = time.monotonic() - t0
    ok = (g_big["median"] < g_small["median"] and g_big["median"] < 0.05
          and v50["median"] < v20["median"] and elapsed < 900.0)
    _finish(9, "median parabola distance shrinks with scale for both samplers",
            ok, "decreasing, <0.05 at n=1e4 for calibrated samples",
            f"gibbs {g_small['median']:.4f}->{g_big['median']:.4f}, "
            f"valtr k=20:{v20['median']:.4f} -> k=50:{v50['median']:.4f} "
            f"({elapsed:.0f}s)")


def test_criterion_10_uniform_sampler_chisquare():
    t0 = time.monotonic()
    rep = valtr_uniformity_chisquare(40, 3, 100000, seed=0)
    elapsed = time.monotonic() - t0
    ok = rep["statistic"] <= rep["quantile_001"] and elapsed < 180.0
    _finish(10, "sampler matches the uniform law on strictly NE lines",
            ok, f"chi-square below the 0.999 quantile {rep['quantile_001']:.1f}",
            f"statistic {rep['statistic']:.1f} on {rep['dof']} bins' dof, "
            f"{rep['support_size']} lines, {rep['samples']} samples "
            f"({elapsed:.0f}s)")
