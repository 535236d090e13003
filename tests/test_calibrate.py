"""Tests for moment calibration and count prediction.

Slow pieces (full Newton solves at n=300) are shared through module-scoped
fixtures so the file stays under ~30s.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexchain.calibrate import (
    CalibrationError,
    CalibrationResult,
    CalibrationTarget,
    _root,
    asymptotic_params,
    exact_calibrate,
    predicted_log_pnk,
)
from convexchain.gibbs import (EnergyModel, GibbsParams, _linear_log_z, _mobius_log_z,
                              _site_arrays, log_partition, moments, truncation_bound)
from convexchain.specialfn import c_of_ell
from convexchain.tolerances import KERNEL_ROUNDING
from paper import free_energy

# Exact log-counts, frozen from the big-integer table builder (independent
# of everything in calibrate.py): log p(n, n; k).
EXACT_LOG_P = {
    (30, 4): 13.892116, (30, 6): 18.082536, (30, 8): 19.578616,
    (60, 4): 17.956850, (60, 6): 25.032165, (60, 8): 29.825832,
}


@pytest.fixture(scope="module")
def res5():
    return exact_calibrate(CalibrationTarget(300, 300, 5))


@pytest.fixture(scope="module")
def res34():
    return exact_calibrate(CalibrationTarget(300, 300, 34))


def test_target_validation():
    with pytest.raises(ValueError):
        CalibrationTarget(0, 300, 5)
    with pytest.raises(ValueError):
        CalibrationTarget(300, 300, 0)
    with pytest.raises(ValueError):
        CalibrationTarget(300, -1, 5)
    t = CalibrationTarget(300, 300, 34)
    assert t.vertex_density() == pytest.approx(34 / (300 * 300) ** (1 / 3))
    assert exact_calibrate(CalibrationTarget(300.5, 300, 5)).converged  # finite non-integers still calibrate


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", range(3))
def test_target_refuses_non_finite_fields(field, bad):
    fields = [300, 300, 5]
    fields[field] = bad
    with pytest.raises(ValueError, match="must be positive"):
        CalibrationTarget(*fields)


def test_asymptotic_small_k_is_closed_form():
    # Below c(1e-8), the bracket's bottom, the closed-form triple applies verbatim.
    t = CalibrationTarget(10**6, 10**6, 20)
    b1, b2, lam = asymptotic_params(t)
    assert b1 == 20 / 10**6
    assert b2 == 20 / 10**6
    assert lam == 20**3 / 10**12


def test_asymptotic_inverts_c_in_dilute_regime():
    # k = 100 at n = 1e6 sits just above the closed-form cut; the c-curve
    # inversion must still reproduce lambda ~ k^3/(n1 n2) and beta1 ~ k/n1.
    t = CalibrationTarget(10**6, 10**6, 100)
    b1, b2, lam = asymptotic_params(t)
    assert abs(lam / 1e-6 - 1.0) < 0.20
    assert abs(b1 / 1e-4 - 1.0) < 0.01
    assert b1 == b2


def test_cold_initializer_evaluates_c_few_times(monkeypatch):
    # one bracketed root in log lambda, no tabulated c-grid
    import convexchain.calibrate as cal

    calls = []

    def counted(ell):
        calls.append(ell)
        return c_of_ell(ell)

    monkeypatch.setattr(cal, "c_of_ell", counted)
    for k in (34, 5, 60):
        calls.clear()
        asymptotic_params(CalibrationTarget(300, 300, k))
        assert 2 < len(calls) <= 60


@pytest.mark.parametrize("f,lo,hi,root", [
    (lambda x: x * x - 2.0, 0.0, 2.0, math.sqrt(2.0)),
    # steep on one side of the root and flat on the other, where plain
    # regula falsi keeps one end for ever
    (lambda x: math.exp(8.0 * x) - 3.0, -5.0, 1.0, math.log(3.0) / 8.0),
    (lambda x: 1.0 - x**3, 0.0, 3.0, 1.0),
])
@pytest.mark.parametrize("xtol", [1e-6, 1e-12, 1e-14])
def test_root_meets_xtol(f, lo, hi, root, xtol):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    assert abs(_root(counted, lo, hi, xtol) - root) <= xtol
    assert all(lo <= x <= hi for x in calls) and len(calls) < 60


def test_root_needs_a_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        _root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="no sign change"):
        _root(lambda x: math.nan, 0.0, 1.0, 1e-12)
    # a zero at an end is a root
    assert _root(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0


def test_c_strictly_increasing_on_the_bracket():
    # what lets the two bracket ends stand in for a scan of c
    lams = np.geomspace(1e-8, 1e4, 400)
    cs = np.array([c_of_ell(lam) for lam in lams])
    assert np.all(np.diff(cs) > 0)


def test_asymptotic_superdense_raises():
    # density 1.517 exceeds sup c = 3*pi^(-2/3) ~ 1.3986: no fugacity works.
    with pytest.raises(CalibrationError):
        asymptotic_params(CalibrationTarget(300, 300, 68))


def test_free_energy_gradient_matches_fd():
    t = CalibrationTarget(300, 300, 34)
    h = 1e-6
    # Near the calibrated point the gradient is small (~6e-3) so FD noise
    # is at its worst; 1e-4 relative still holds.
    for v in (np.array([0.13343, 0.13343, -math.log(0.954444)]),
              np.array([0.09, 0.15, 0.4])):
        g = free_energy(t, v)[1]
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (free_energy(t, v + e)[0] - free_energy(t, v - e)[0]) / (2 * h)
            assert abs(g[i] - fd) / max(abs(fd), 1e-30) < 1e-4


def test_free_energy_hessian_matches_fd():
    t = CalibrationTarget(300, 300, 34)
    v = np.array([0.13343, 0.13343, -math.log(0.954444)])
    H = free_energy(t, v)[2]
    assert np.allclose(H, H.T)
    h = 2e-4
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd_row = (free_energy(t, v + e)[1] - free_energy(t, v - e)[1]) / (2 * h)
        rel = np.abs(H[i] - fd_row) / np.maximum(np.abs(fd_row), 1e-12)
        assert rel.max() < 1e-3


def _check_free_energy_against_site_sums(b1, b2, lam):
    """The free energy's value, gradient and Hessian against `log_partition`
    and `moments`: the closed-form kernel (lam <= 2) to 1e-12 relative, the
    per-site kernel (lam > 2) exactly."""
    t = CalibrationTarget(300, 300, 34)
    v = np.array([b1, b2, -math.log(lam)])
    f, grad_f, hess_f = free_energy(t, v)
    params = GibbsParams(EnergyModel.linear(b1, b2), lam)
    rep = moments(params)
    lin = v[0] * t.n1 + v[1] * t.n2 + v[2] * t.k
    lz = log_partition(params)
    value = lin + lz
    gradient = np.array([t.n1, t.n2, t.k]) - np.array([rep.EX1, rep.EX2, rep.EK])
    if lam > 2.0:
        assert f == value
        np.testing.assert_array_equal(grad_f, gradient)
        np.testing.assert_array_equal(hess_f, rep.covariance)
        return
    # the kernel terms on their own; f and its gradient add a target term,
    # so those are compared relative to the larger of the two terms
    logz, grad, _ = _mobius_log_z(b1, b2, v[2])
    assert logz == pytest.approx(lz, rel=1e-12, abs=0)
    np.testing.assert_allclose(-grad, [rep.EX1, rep.EX2, rep.EK], rtol=1e-12, atol=0)
    assert abs(f - value) <= 1e-12 * max(abs(lin), logz)
    scale = np.maximum([t.n1, t.n2, t.k], [rep.EX1, rep.EX2, rep.EK])
    assert np.max(np.abs(grad_f - gradient) / scale) <= 1e-12
    np.testing.assert_allclose(hess_f, rep.covariance, rtol=1e-12, atol=0)


@pytest.mark.parametrize("lam", [1e-3, 0.0136, 0.3, 1.0, 1.5, 1.9, 2.0, 2.5, 50.0])
@pytest.mark.parametrize("b1,b2", [(0.0166, 0.0166), (0.05, 0.01), (0.02, 0.03),
                                   (0.13343, 0.11), (0.2, 0.05), (0.3, 0.7)])
def test_free_energy_matches_site_sums(b1, b2, lam):
    _check_free_energy_against_site_sums(b1, b2, lam)


@given(b1=st.floats(0.05, 1.0), b2=st.floats(0.05, 1.0),
       log_lam=st.floats(math.log(1e-3), math.log(2.0)))
@settings(max_examples=40, deadline=None)
def test_free_energy_kernel_property(b1, b2, log_lam):
    _check_free_energy_against_site_sums(b1, b2, min(math.exp(log_lam), 2.0))


def test_calibration_crosses_the_kernel_branches():
    # Newton starts at lambda ~ 2.15 (site sums) and ends near 1.90 (the
    # closed-form kernel), so f switches kernels along the path.
    res = exact_calibrate(CalibrationTarget(306, 306, 39))
    assert res.converged
    assert max(res.residuals) <= 1e-6
    assert 1.8 < res.fugacity < 2.0


def test_small_k_calibration(res5):
    assert res5.converged
    assert max(abs(r) for r in res5.residuals) <= 1e-6
    # beta1 ~ k/n1 in the dilute regime, within 30%.
    assert abs(res5.beta1 / (5 / 300) - 1.0) < 0.30
    assert res5.fugacity < 0.05


def test_typical_density_fugacity_near_one(res34):
    assert res34.converged
    assert max(abs(r) for r in res34.residuals) <= 1e-6
    assert 0.9 <= res34.fugacity <= 1.1


def test_calibrated_params_reproduce_targets(res34):
    rep = moments(res34.params())
    assert abs(rep.EX1 / 300 - 1.0) < 1e-6
    assert abs(rep.EX2 / 300 - 1.0) < 1e-6
    assert abs(rep.EK / 34 - 1.0) < 1e-6


def test_high_density_feasible_target_converges():
    # Just below the vertex-capacity ceiling the solver still lands, via the
    # grid-top initializer (the asymptotic curve cannot bracket this density).
    res = exact_calibrate(CalibrationTarget(300, 300, 60))
    assert res.converged
    assert res.fugacity > 100.0


def test_infeasible_density_raises():
    with pytest.raises(CalibrationError, match="capacity"):
        exact_calibrate(CalibrationTarget(300, 300, 68))


def test_swap_symmetry():
    ra = exact_calibrate(CalibrationTarget(200, 500, 20))
    rb = exact_calibrate(CalibrationTarget(500, 200, 20))
    assert abs(ra.beta1 - rb.beta2) < 1e-9
    assert abs(ra.beta2 - rb.beta1) < 1e-9
    assert abs(ra.fugacity - rb.fugacity) / ra.fugacity < 1e-9


def test_square_target_is_isotropic(res34):
    assert abs(res34.beta1 - res34.beta2) < 1e-12


def test_fugacity_increases_with_k(res5, res34):
    lams = [res5.fugacity, res34.fugacity]
    for k in (48, 58):
        lams.append(exact_calibrate(CalibrationTarget(300, 300, k)).fugacity)
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_predicted_counts_match_exact_tables():
    rel = {}
    for (n, k), log_exact in EXACT_LOG_P.items():
        t = CalibrationTarget(n, n, k)
        r = exact_calibrate(t)
        assert r.converged
        p = predicted_log_pnk(t, r, with_llt=True)
        rel[(n, k)] = abs(p - log_exact) / log_exact
        # Without the lattice-point normal factor the prediction is off by
        # an O(log n) additive term; make sure the factor is load-bearing.
        p_bare = predicted_log_pnk(t, r, with_llt=False)
        assert abs(p_bare - log_exact) / log_exact > 0.25
    # Desk-scale accuracy: every case lands within 5% in log, far inside
    # the deliberately wide asymptotic bracket.
    assert max(rel.values()) < 0.05
    # The asymptotic claim: errors shrink from n=30 to n=60 in aggregate.
    r30 = [rel[(30, k)] for k in (4, 6, 8)]
    r60 = [rel[(60, k)] for k in (4, 6, 8)]
    assert max(r60) < max(r30)
    assert sum(r60) < sum(r30)
    # Per-k the trend holds wherever the errors are not already sub-percent.
    assert rel[(60, 6)] < rel[(30, 6)]
    assert rel[(60, 8)] < rel[(30, 8)]


def test_result_params_echo_calibration(res5):
    params = res5.params()
    assert params.fugacity == pytest.approx(res5.fugacity)
    ex, ey = params.energy(np.array([1]), np.array([0]))[0], 0.0
    assert ex == pytest.approx(res5.beta1)


def test_result_is_plain_record(res5):
    assert isinstance(res5, CalibrationResult)
    assert res5.iterations >= 1
    assert np.isfinite(res5.free_energy)


# the bench's seven calibration targets: dilute, typical and anisotropic
# densities, all ending at lambda <= 2 on the Mobius kernel
BENCH_TARGETS = [(300, 300, 34), (1000, 1000, 75), (3000, 3000, 156), (600, 600, 20),
                 (2000, 500, 40), (300, 300, 8), (300, 300, 5)]


def _site_report(target, res):
    """Residuals and free energy of the truncated measure at the result,
    from the site sums."""
    params = res.params()
    rep = moments(params)
    residuals = [abs(m - t) / t for m, t in zip((rep.EX1, rep.EX2, rep.EK), target)]
    n1, n2, k = target
    free_energy = (log_partition(params) + res.beta1 * n1 + res.beta2 * n2
                   - k * math.log(res.fugacity))
    return residuals, free_energy, params


# targets where the kernel's E[K] lies a few ulps below the site sum's by
# rounding alone, more than the tail bound: only KERNEL_ROUNDING covers it
ROUNDING_TARGETS = [(200, 300, 6), (500, 500, 4)]


@pytest.mark.parametrize("target", BENCH_TARGETS + ROUNDING_TARGETS)
def test_report_bounds_the_site_sums(target):
    res = exact_calibrate(CalibrationTarget(*target))
    assert res.fugacity <= 2.0 and res.converged
    residuals, free_energy, params = _site_report(target, res)
    for reported, true in zip(res.residuals, residuals):
        assert true <= reported <= 1e-9
    # the kernel and the site sums round differently, hence the allowance
    gap = truncation_bound(params) + KERNEL_ROUNDING * abs(free_energy)
    assert abs(res.free_energy - free_energy) <= gap
    # plain Python numbers, so that the CLI's JSON encoder takes them
    assert all(type(x) is float for x in (*res.residuals, res.free_energy))
    assert type(res.converged) is bool


def test_report_above_lambda_two_is_the_site_sums():
    target = (40, 40, 14)
    res = exact_calibrate(CalibrationTarget(*target))
    assert res.fugacity > 2.0
    residuals, free_energy, _ = _site_report(target, res)
    assert list(res.residuals) == residuals
    assert res.free_energy == free_energy


@pytest.mark.parametrize("target", [(300, 300, 5), (2000, 500, 40)])
def test_calibration_below_lambda_two_builds_no_sites(target):
    _site_arrays.cache_clear()
    res = exact_calibrate(CalibrationTarget(*target))
    assert res.converged
    assert _site_arrays.cache_info().misses == 0


def test_newton_evaluates_each_point_once(monkeypatch):
    # one `_linear_log_z` call per point: the accepted candidate's call also
    # serves the next step, and the report reuses the final one
    import convexchain.calibrate as cal

    calls = []

    def recorded(*args):
        calls.append(tuple(map(float, args)))
        return _linear_log_z(*args)

    monkeypatch.setattr(cal, "_linear_log_z", recorded)
    for target in BENCH_TARGETS:
        calls.clear()
        exact_calibrate(CalibrationTarget(*target))
        assert len(set(calls)) == len(calls), target
        assert len(calls) <= 5, target

