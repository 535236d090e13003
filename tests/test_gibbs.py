import math
import re
import sys
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from convexchain import gibbs, lattice
from convexchain.gibbs import (
    EnergyModel,
    GibbsParams,
    log_partition,
    moments,
    sample_omega,
    truncation_bound,
)
from convexchain.specialfn import ZETA2, ZETA3
from convexchain.tolerances import GIBBS_DRAW_ENTRIES
from oracles import POSITIVE_DOUBLES, primitive_vectors_by_weight
from paper import parallel_probability, residue_logZ


def biased_geometric(rho: float, lam: float, rng: np.random.Generator) -> int:
    """Scalar oracle of the per-site law that `sample_omega` draws in bulk:
    P[0] = 1/Z_x, and conditionally on being positive the value is
    1 + Geometric(1-rho)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    u = rng.random()
    p0 = (1.0 - rho) / (1.0 - (1.0 - lam) * rho)
    if u < p0:
        return 0
    v = (u - p0) / (1.0 - p0)
    v = min(v, 1.0 - 1e-16)
    return 1 + int(math.log1p(-v) / math.log(rho))


def test_energy_models_evaluate():
    lin = EnergyModel.linear(0.3, 0.7)
    assert lin(2, 5) == pytest.approx(0.3 * 2 + 0.7 * 5)
    euc = EnergyModel.euclidean(2.0)
    assert euc(3, 4) == pytest.approx(10.0)
    mix = EnergyModel.mixed(1.0, 0.5)
    assert mix(3, 4) == pytest.approx(7.0 + 0.5 * math.sqrt(2) * 5.0)
    # vectorized evaluation agrees with the scalar one
    x1 = np.array([1, 2, 3])
    x2 = np.array([0, 1, 5])
    for m in (lin, euc, mix):
        np.testing.assert_allclose(
            m(x1, x2), [float(m(a, b)) for a, b in zip(x1, x2)]
        )


def test_energy_domain_errors():
    with pytest.raises(ValueError):
        EnergyModel.linear(0.0, 1.0)
    with pytest.raises(ValueError):
        EnergyModel.linear(1.0, -2.0)
    with pytest.raises(ValueError):
        EnergyModel.euclidean(0.0)
    with pytest.raises(ValueError):
        EnergyModel.mixed(-1.0, 0.0)
    # divergent mixed norm: lam_ell at or below -1/sqrt(2)
    with pytest.raises(ValueError):
        EnergyModel.mixed(1.0, -1.0 / math.sqrt(2))
    EnergyModel.mixed(1.0, -1.0 / math.sqrt(2) + 1e-6)  # just inside is fine


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda x: EnergyModel.linear(x, 0.1),
    lambda x: EnergyModel.linear(0.1, x),
    lambda x: EnergyModel.euclidean(x),
    lambda x: EnergyModel.mixed(x, 0.5),
    lambda x: EnergyModel.mixed(0.1, x),
    lambda x: GibbsParams(EnergyModel.linear(0.1, 0.1), fugacity=x),
    lambda x: GibbsParams(EnergyModel.linear(0.1, 0.1), truncation=x),
], ids=["linear-beta1", "linear-beta2", "euclidean", "mixed-beta",
        "mixed-lam_ell", "fugacity", "truncation"])
def test_non_finite_parameters_rejected(build, bad):
    with pytest.raises(ValueError):
        build(bad)


@pytest.mark.parametrize("energy", [EnergyModel.linear(1e-4, 1e-4),
                                    EnergyModel.euclidean(1e-3)])
def test_oversized_site_set_refused_up_front(energy):
    # grids of 1.6e11 and 1.6e9 cells: refused before any of it is built
    with pytest.raises(ResourceWarning, match="over the budget"):
        moments(GibbsParams(energy))


@pytest.mark.parametrize("call", [log_partition, moments,
                                  lambda p: sample_omega(p, 0)])
def test_sub_resolution_site_energy_refused(call):
    # exp(-1e-300) rounds to 1: no geometric law at (1, 0)
    params = GibbsParams(EnergyModel.linear(1e-300, 1.0), truncation=1e-300)
    with pytest.raises(ValueError, match=r"site energy 1e-300 at \(1, 0\)"):
        call(params)


@pytest.mark.parametrize("energy", [EnergyModel.euclidean(1e-300), EnergyModel.mixed(1e-300, 0.0)],
                         ids=["euclidean", "mixed"])
@pytest.mark.parametrize("call", [log_partition, moments, lambda p: sample_omega(p, 0)],
                         ids=["log_partition", "moments", "sample_omega"])
def test_sub_resolution_refusal_names_the_first_site(energy, call):
    # E(0, 1) = E(1, 0) = 1e-300, whose exp(-E) rounds to 1: the refusal
    # names (0, 1), the first of the two in row-major order
    params = GibbsParams(energy, truncation=1e-300)
    with pytest.raises(ValueError, match=r"site energy 1e-300 at \(0, 1\) is below double"):
        call(params)


@pytest.mark.parametrize("rate", [1e-200, 1e-160])
@pytest.mark.parametrize("family", ["linear", "euclidean", "mixed"])
def test_tail_bound_outside_double_range_is_refused(family, rate):
    # the tail bounds divide by squared rates: 1e-400 underflows to 0, and
    # 1e-320 is subnormal and overflows the bound.  At T = 1e-210 the site
    # set is empty, so `moments` reaches the bound with nothing summed
    energy = {"linear": EnergyModel.linear(rate, rate), "euclidean": EnergyModel.euclidean(rate),
              "mixed": EnergyModel.mixed(rate, 0.5)}[family]
    named = rf"rates \({rate:g}, {rate:g}\)" if family == "linear" else f"rate {rate:g}"
    params = GibbsParams(energy, truncation=1e-210)
    for call in (truncation_bound, moments):
        with pytest.raises(ValueError, match=f"{family} truncation bound at {named} is not finite"):
            call(params)


def test_tail_bound_past_double_range_names_lam_ell():
    # at lam_ell = 1e200 the growth D ~ 1e199 of `_radial_tail` squares past
    # double range (the site set is empty), and at a linear rate of 1e-310
    # the column count T/beta1 does; both are refused by name.  At
    # lam_ell = 1e100 the bound keeps its bits
    params = GibbsParams(EnergyModel.mixed(0.05, 1e200))
    for call in (truncation_bound, moments):
        with pytest.raises(ValueError, match=r"mixed truncation bound at rate 0\.05 is not "
                                             r"finite with lam_ell 1e\+200: .*lower lam_ell"):
            call(params)
    with pytest.raises(ValueError, match=r"linear truncation bound at rates \(1e-310, 1\) is not"):
        truncation_bound(GibbsParams(EnergyModel.linear(1e-310, 1.0)))
    assert truncation_bound(GibbsParams(EnergyModel.mixed(0.05, 1e100))) == 6.673299259135496e-18


def test_tail_bound_with_an_underflowed_area_is_refused():
    # at lam_ell = 1e162 the area sum of `_radial_tail` underflows to 0, and
    # at 1.77e161 it is subnormal and rounds the bound down to 5.3e-18, below
    # the 6.67e-18 of every lam_ell above ~1e100 at this rate; both are
    # refused by name, not returned as a bound below the omitted mass
    for lam_ell in (1e162, 1.77e161):
        named = re.escape(f"rate 1e-10 is not finite with lam_ell {lam_ell:g}")
        with pytest.raises(ValueError, match=f"mixed truncation bound at {named}"):
            truncation_bound(GibbsParams(EnergyModel.mixed(1e-10, lam_ell)))
    assert truncation_bound(GibbsParams(EnergyModel.mixed(1e-10, 1e150))) == pytest.approx(
        6.673299259135496e-18, rel=1e-14)


@pytest.mark.parametrize("lam", [1.0, 3.0])
@pytest.mark.parametrize("energy", [EnergyModel.euclidean(1.0), EnergyModel.euclidean(0.3),
                                    EnergyModel.mixed(1.0, -0.7), EnergyModel.mixed(0.5, 2.0)],
                         ids=["euclidean-1", "euclidean-0.3", "mixed-1--0.7", "mixed-0.5-2"])
def test_tail_bound_below_the_least_site_energy_is_finite(energy, lam):
    # below E(1, 0) every site is omitted, and each has rho <= e^-E(1, 0):
    # the bound stays finite and bounds the whole log Z, which the sum at
    # T = 40 approaches from below
    whole = log_partition(GibbsParams(energy, lam, 40.0))
    for T in (5e-324, 1e-300):
        bound = truncation_bound(GibbsParams(energy, lam, T))
        assert math.isfinite(bound) and bound >= whole
    # at T >= E(1, 0) the bound keeps its bits
    assert truncation_bound(GibbsParams(EnergyModel.euclidean(0.05), 1.0, 40.0)).hex() == \
        "0x1.07e1ff92f5ce2p-43"


@settings(max_examples=40, deadline=None)
@given(T=POSITIVE_DOUBLES)
@pytest.mark.parametrize("energy", [EnergyModel.linear(0.5, 0.7), EnergyModel.euclidean(0.5),
                                    EnergyModel.mixed(0.5, -0.6), EnergyModel.mixed(0.5, 3.0)],
                         ids=["linear", "euclidean", "mixed--0.6", "mixed-3"])
def test_tail_bound_is_finite_at_every_truncation(energy, T):
    try:
        params = GibbsParams(energy, 1.0, T)
    except ValueError as refused:
        assert T in (0.0, math.inf) and "truncation must be positive" in str(refused)
    else:
        assert math.isfinite(truncation_bound(params))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["linear", "euclidean", "mixed"]),
    st.floats(0.2, 5.0),
    st.floats(0.2, 5.0),
    st.floats(-0.6, 5.0),
    st.floats(0.1, 12.0),
)
@example("linear", 5.0, 0.2, 0.0, 12.0)  # rates far apart, both ways round
@example("linear", 0.2, 5.0, 0.0, 12.0)
def test_site_arrays_match_a_wider_grid(kind, b1, b2, lam_ell, T):
    # the site set is the energy filter of any grid that holds it, in
    # row-major order; this grid is twice the box that holds E <= T on the
    # axes.  With 16-cell blocks each row is clipped to its own extent.
    energy = {"linear": EnergyModel.linear(b1, b2),
              "euclidean": EnergyModel.euclidean(b1),
              "mixed": EnergyModel.mixed(b1, lam_ell)}[kind]
    n1, n2 = (2 * (math.floor(T / float(energy(*e))) + 1) for e in ((1, 0), (0, 1)))
    xs, ys = np.nonzero(np.gcd.outer(np.arange(n1 + 1), np.arange(n2 + 1)) == 1)
    en = energy(xs.astype(float), ys.astype(float))
    keep = en <= T
    for block in (lattice._GRID_BLOCK, 16):
        gibbs._site_arrays.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_GRID_BLOCK", block)
            got = gibbs._site_arrays(energy, T)
        for g, want in zip(got, (xs[keep], ys[keep], en[keep])):
            np.testing.assert_array_equal(g, want)


def test_site_caches_keep_only_the_last_set():
    # each site-set cache holds one set: building another parameter set's
    # sampler index frees the first set's energies and order
    first, second = (gibbs._law_key(GibbsParams(EnergyModel.euclidean(b))) for b in (0.3, 0.4))
    held = [weakref.ref(a) for a in (gibbs._site_arrays(first[0], first[2])[2],
                                     gibbs._sampler_index(*first)[0])]
    assert all(ref() is not None for ref in held)
    gibbs._sampler_index(*second)
    assert all(ref() is None for ref in held)


def _clear_site_caches():
    for cached in (gibbs._site_arrays, gibbs._sampler_index, oracles.site_laws):
        cached.cache_clear()


_ORACLE_SETS = [
    *(GibbsParams(EnergyModel.linear(b1, b2), fugacity=lam) for b1, b2, lam in [
        (0.02, 0.02, 1), (0.02, 0.03, 1), (0.03, 0.05, 0.5), (0.05, 0.02, 2),
        (0.1, 0.07, 7.3), (0.4, 0.9, 1e-6), (0.3, 0.3, 1e6), (1, 2, 1), (25, 30, 1)]),
    *(GibbsParams(EnergyModel.euclidean(b), fugacity=lam) for b, lam in [(0.05, 1), (0.5, 3)]),
    *(GibbsParams(EnergyModel.mixed(b, le), fugacity=lam)
      for b, le, lam in [(0.03, 1.0, 1), (0.1, -0.6, 0.2)]),
]


def _set_id(params):
    return "-".join(map(str, (params.energy.kind, *params.energy.params, params.fugacity)))


@pytest.mark.parametrize("params", _ORACLE_SETS, ids=_set_id)
def test_site_kernels_match_the_fresh_array_oracle(monkeypatch, params):
    # the in-place kernels against the same expressions with a fresh array
    # per operation: every array with its dtype, E[K], the sums and the
    # draws, whose candidates' laws come from the oracle's `leaf_laws`
    key = gibbs._law_key(params)

    def outputs():
        _clear_site_caches()  # the oracles' own caches while they are patched in
        arrays = (*gibbs._site_arrays(key[0], key[2]), *gibbs._sampler_index(*key))
        report = moments(params)
        draws = [sample_omega(params, seed) for seed in range(5)]
        return (arrays, (report.EX1, report.EX2, report.EK, report.covariance,
                         log_partition(params)), draws)

    got = outputs()
    with monkeypatch.context() as mp:
        for name in ("site_arrays", "leaf_laws", "log_z", "site_sums", "sampler_index"):
            mp.setattr(gibbs, f"_{name}", getattr(oracles, name))
        want = outputs()
        _clear_site_caches()
    for g, w in zip(got[0], want[0]):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    assert got[1][:3] == want[1][:3] and got[1][4] == want[1][4]
    assert np.array_equal(got[1][3], want[1][3])
    for g, w in zip(got[2], want[2]):
        assert np.array_equal(g.xy, w.xy) and np.array_equal(g.mult, w.mult)


def test_site_set_builds_without_full_size_temporaries():
    # numpy reports its buffers to tracemalloc.  A fresh set of 810,598
    # sites keeps 16 B/site (int32 x1 and x2, float64 E) and no spare
    # capacity, and `moments` on it makes no full-size temporary (the next
    # test bounds its leaf scratch)
    params = GibbsParams(EnergyModel.linear(0.02, 0.03))
    key = gibbs._law_key(params)
    _clear_site_caches()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        n = gibbs._site_arrays(key[0], key[2])[2].size
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        moments(params)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 810_598
    assert held <= 16 * n + 65_536
    assert peak - left <= 20 * n


def test_moments_keeps_no_laws_and_sums_in_leaf_scratch():
    # on a built set of 810,598 sites, `moments` forms each leaf's laws in
    # scratch and keeps none of them: neither what it leaves behind nor its
    # peak above that grows with the site count
    params = GibbsParams(EnergyModel.linear(0.02, 0.03))
    key = gibbs._law_key(params)
    _clear_site_caches()
    n = gibbs._site_arrays(key[0], key[2])[2].size
    tracemalloc.start()
    try:
        moments(params)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 810_598
    assert left <= 65_536
    assert peak - left <= 1 << 20


def test_sampler_keeps_an_int32_order_and_no_laws():
    # on a built set of 810,598 sites, the first draw builds the sampler
    # index and keeps its int32 order, 4 B/site, and no per-site law; the
    # build's int8 labels and chunk sorts are all it adds at its peak
    params = GibbsParams(EnergyModel.linear(0.02, 0.03))
    key = gibbs._law_key(params)
    _clear_site_caches()
    n = gibbs._site_arrays(key[0], key[2])[2].size
    tracemalloc.start()
    try:
        sample_omega(params, 0)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 810_598
    assert left <= 4 * n + 65_536
    assert peak - left <= 8 * n


@pytest.mark.parametrize("params", _ORACLE_SETS, ids=_set_id)
def test_check_draws_prices_the_sum_of_q(monkeypatch, params):
    # the E[K] that prices a run of draws is the sum of q with np.sum's bits
    key = gibbs._law_key(params)
    priced = []
    monkeypatch.setattr(gibbs, "check_budget", lambda what, need, *_: priced.append(need))
    gibbs._check_draws("the draws", [(params, 3)], 0.5)
    ek = np.sum(oracles.site_laws(*key)[3])
    assert gibbs._sampler_index(*key)[6] == ek
    assert priced == [3 * (float(ek) + GIBBS_DRAW_ENTRIES + 0.5)]


@pytest.mark.parametrize("call", [moments, log_partition, gibbs._mean_euclidean_length],
                         ids=["moments", "log_partition", "mean_euclidean_length"])
def test_site_sums_build_no_site_laws(call):
    # the sums form their laws per leaf and build no sampler index
    _clear_site_caches()
    call(GibbsParams(EnergyModel.euclidean(0.3), 1.5))
    assert gibbs._site_arrays.cache_info().currsize == 1
    assert gibbs._sampler_index.cache_info().misses == 0


_EMPTY = GibbsParams(EnergyModel.linear(1, 1), truncation=0.5)  # E(1, 0) = 1 > T: no site


def test_empty_site_set_gives_empty_draws_and_zero_sums():
    _clear_site_caches()
    assert gibbs._site_arrays(_EMPTY.energy, _EMPTY.truncation)[2].size == 0
    assert not sample_omega(_EMPTY, 0).support
    rep = moments(_EMPTY)
    assert rep.site_count == 0 and (rep.EX1, rep.EX2, rep.EK) == (0.0, 0.0, 0.0)
    assert not rep.covariance.any()
    assert log_partition(_EMPTY) == 0.0
    assert gibbs._mean_euclidean_length(_EMPTY) == 0.0


_LEAF = gibbs._LEAF


@pytest.mark.parametrize("n", [0, 1, 7, 8, 127, 128, 129, _LEAF - 1, _LEAF, _LEAF + 1,
                               2 * _LEAF + 8, 1_216_569])
def test_pairwise_sums_have_the_bits_of_np_sum(n):
    # heavy-tailed terms of both signs, whose last bits move under any other
    # summation order: a numpy that reorders its pairwise reduction fails here
    rng = np.random.default_rng(n)
    a = rng.standard_cauchy(n) * np.exp(rng.normal(0.0, 5.0, n))
    b = np.abs(a)
    got = gibbs._pairwise_sums(lambda lo, hi: iter((a[lo:hi], b[lo:hi])), 0, n)
    assert [x.hex() for x in got.tolist()] == [float(np.sum(t)).hex() for t in (a, b)]


def test_site_set_builds_under_a_tracer_that_reads_f_locals():
    # before Python 3.13 such a tracer's frame.f_locals snapshot holds the
    # capacity buffers, and `ndarray.resize` refuses to shrink them in place
    key = gibbs._law_key(GibbsParams(EnergyModel.linear(0.1, 0.07)))
    _clear_site_caches()
    want = gibbs._site_arrays(*key[::2])
    _clear_site_caches()

    def tracer(frame, event, arg):
        frame.f_locals
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = gibbs._site_arrays(*key[::2])
    finally:
        sys.settrace(old)
    _clear_site_caches()
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
        assert g.base is None and g.nbytes == w.nbytes and not g.flags.writeable


def test_gibbs_params_validation():
    em = EnergyModel.linear(1.0, 1.0)
    with pytest.raises(ValueError):
        GibbsParams(em, fugacity=0.0)
    with pytest.raises(ValueError):
        GibbsParams(em, fugacity=1.0, truncation=-3.0)


def test_log_partition_identity_at_unit_fugacity():
    # lam=1 collapses the per-site factor to 1/(1-rho); compare against a
    # direct sum over an independently generated site list
    em = EnergyModel.linear(1.0, 1.0)
    lz = log_partition(GibbsParams(em, 1.0))
    direct = 0.0
    for a, b in primitive_vectors_by_weight(lambda u, v: float(u + v), 40.0):
        direct -= math.log1p(-math.exp(-(a + b)))
    assert lz == pytest.approx(direct, rel=1e-12)


def test_log_partition_residue_comparison():
    lz = log_partition(GibbsParams(EnergyModel.linear(0.02, 0.02), 0.5))
    assert lz == pytest.approx(residue_logZ(0.02, 0.02, 0.5), rel=0.03)


def test_log_partition_vanishing_fugacity():
    assert log_partition(GibbsParams(EnergyModel.linear(0.5, 0.5), 1e-12)) < 1e-9


def test_log_partition_monotone_in_fugacity():
    em = EnergyModel.euclidean(0.3)
    vals = [log_partition(GibbsParams(em, lam)) for lam in (0.5, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_residue_law_three_point_convergence():
    for lam in (0.2, 1.0, 3.0):
        gaps = []
        for beta in (0.1, 0.05, 0.02):
            p = GibbsParams(EnergyModel.linear(beta, beta), lam)
            gaps.append(abs(log_partition(p) / residue_logZ(beta, beta, lam) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.03


def test_truncation_bound_controls_tail():
    # enlarging T changes log Z by less than the reported bound at the small T:
    # the linear energy's column sums (isotropic and both anisotropic ways)
    # and the shell sums of the other families
    for em in (EnergyModel.linear(0.8, 0.8), EnergyModel.linear(0.01, 0.4),
               EnergyModel.linear(0.3, 0.05), EnergyModel.euclidean(0.5),
               EnergyModel.mixed(0.4, 0.5)):
        small = GibbsParams(em, 1.3, truncation=25.0)
        large = GibbsParams(em, 1.3, truncation=50.0)
        gap = abs(log_partition(large) - log_partition(small))
        assert gap <= truncation_bound(small)
        assert truncation_bound(large) < truncation_bound(small)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 2.0])
@pytest.mark.parametrize("b1,b2", [(0.01, 0.4), (0.3, 0.05), (0.8, 0.8)])
@pytest.mark.parametrize("T", [5.0, 10.0])
def test_linear_tail_bounds_the_omitted_sums(b1, b2, lam, T):
    # what the sites with T < E <= T + 60 add to log Z, E[X1], E[X2] and E[K],
    # from the per-site laws written out here, against `_linear_tail` at T
    x1, x2, en = gibbs._site_arrays(EnergyModel.linear(b1, b2), T + 60.0)
    out = en > T
    x1, x2, rho = x1[out].astype(float), x2[out].astype(float), np.exp(-en[out])
    w = lam * rho / (1.0 - rho)  # Z_x - 1
    q = w / (1.0 + w)
    mean = q / (1.0 - rho)
    omitted = np.array([np.sum(np.log1p(w)), np.sum(x1 * mean), np.sum(x2 * mean),
                        np.sum(q)])
    bound = gibbs._linear_tail(b1, b2, lam, T)
    assert np.all(omitted <= bound)
    # and tight: the primitive share 6/pi^2 and the partial columns leave a
    # factor of about 2
    assert np.all(bound <= 4.0 * omitted)
    assert bound[0] == truncation_bound(GibbsParams(EnergyModel.linear(b1, b2), lam, T))


@pytest.mark.parametrize("lam", [1e-3, 1.0, 2.0])
@pytest.mark.parametrize("em,D", [
    # D: the most E grows across a unit square, beta*sqrt(2) for the
    # Euclidean energy, beta*(2 + 2*max(lam_ell, 0)) for the mixed one
    pytest.param(EnergyModel.euclidean(0.05), 0.05 * math.sqrt(2.0), id="euclidean-0.05"),
    pytest.param(EnergyModel.euclidean(0.5), 0.5 * math.sqrt(2.0), id="euclidean-0.5"),
    pytest.param(EnergyModel.mixed(0.03, 1.0), 0.12, id="mixed-0.03-1"),
    pytest.param(EnergyModel.mixed(0.4, 0.5), 1.2, id="mixed-0.4-0.5"),
    pytest.param(EnergyModel.mixed(0.3, -0.6), 0.6, id="mixed-0.3--0.6"),
])
@pytest.mark.parametrize("T", [5.0, 25.0])
def test_radial_tail_bounds_the_omitted_sums(em, D, lam, T):
    # what the sites with T < E <= T + 60 add to log Z, against the shell
    # sum of `truncation_bound` at T
    _, _, en = gibbs._site_arrays(em, T + 60.0)
    rho = np.exp(-en[en > T])
    omitted = np.sum(np.log1p(lam * rho / (1.0 - rho)))
    bound = truncation_bound(GibbsParams(em, lam, T))
    assert omitted <= bound
    # and tight: the primitive share 6/pi^2 and the growth D leave a factor
    # of about (pi^2/6)*(1 + D)
    assert bound <= 2.0 * (1.0 + D) * omitted


def test_linear_truncation_bound_at_an_anisotropic_calibration():
    # the calibrated 2000x500 k=40 parameters, where the L1 rates gave 0.104
    params = GibbsParams(EnergyModel.linear(0.02062969371784949, 0.08380534406323226),
                         0.07609902606378532)
    assert truncation_bound(params) <= 1e-12


def test_moments_geometric_marginals_at_unit_fugacity():
    # lam=1 is the plain geometric model: E[omega(x)] = rho/(1-rho)
    em = EnergyModel.linear(0.7, 1.1)
    rep = moments(GibbsParams(em, 1.0))
    ex1 = 0.0
    for a, b in primitive_vectors_by_weight(lambda u, v: 0.7 * u + 1.1 * v, 40.0):
        rho = math.exp(-(0.7 * a + 1.1 * b))
        ex1 += a * rho / (1 - rho)
    assert rep.EX1 == pytest.approx(ex1, rel=1e-12)


def test_moments_match_log_partition_gradient():
    b1, b2, lam = 0.21, 0.33, 0.8
    rep = moments(GibbsParams(EnergyModel.linear(b1, b2), lam))

    def lz(bb1, bb2, ll):
        return log_partition(GibbsParams(EnergyModel.linear(bb1, bb2), ll))

    h = 1e-6 * b1
    d1 = -(lz(b1 + h, b2, lam) - lz(b1 - h, b2, lam)) / (2 * h)
    h = 1e-6 * b2
    d2 = -(lz(b1, b2 + h, lam) - lz(b1, b2 - h, lam)) / (2 * h)
    h = 1e-6
    dk = lam * (lz(b1, b2, lam * (1 + h)) - lz(b1, b2, lam * (1 - h))) / (2 * lam * h)
    assert d1 == pytest.approx(rep.EX1, rel=1e-4)
    assert d2 == pytest.approx(rep.EX2, rel=1e-4)
    assert dk == pytest.approx(rep.EK, rel=1e-4)


def test_covariance_matches_log_partition_hessian():
    # Gamma is the Hessian of log Z in the coordinates (beta1, beta2, -log lam)
    b1, b2, lam = 0.21, 0.33, 0.8
    rep = moments(GibbsParams(EnergyModel.linear(b1, b2), lam))
    G = np.asarray(rep.covariance)

    def lz(v):
        return log_partition(
            GibbsParams(EnergyModel.linear(v[0], v[1]), math.exp(-v[2]))
        )

    v0 = np.array([b1, b2, -math.log(lam)])
    h = 2e-4
    H = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            vpp = v0.copy(); vpp[i] += h; vpp[j] += h
            vpm = v0.copy(); vpm[i] += h; vpm[j] -= h
            vmp = v0.copy(); vmp[i] -= h; vmp[j] += h
            vmm = v0.copy(); vmm[i] -= h; vmm[j] -= h
            H[i, j] = (lz(vpp) - lz(vpm) - lz(vmp) + lz(vmm)) / (4 * h * h)
    assert np.abs(H - G).max() <= 2e-3 * np.abs(G).max()


def test_covariance_symmetric_positive_definite():
    for em, lam in [
        (EnergyModel.linear(0.1, 0.25), 0.7),
        (EnergyModel.euclidean(0.2), 1.0),
        (EnergyModel.mixed(0.15, 0.8), 1.0),
    ]:
        rep = moments(GibbsParams(em, lam))
        G = np.asarray(rep.covariance)
        assert np.allclose(G, G.T)
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-10 * np.trace(G)
        assert eigs.min() > 0  # definite at these sizes
        assert rep.site_count >= 3
        # the bound is loose for anisotropic rates (decay at alpha_lo, cutoff
        # at alpha_hi) but must stay small and nonnegative
        assert 0 <= rep.truncation_bound < 1e-3


def test_moments_swap_symmetry():
    a = moments(GibbsParams(EnergyModel.linear(0.11, 0.29), 1.4))
    b = moments(GibbsParams(EnergyModel.linear(0.29, 0.11), 1.4))
    assert a.EX1 == pytest.approx(b.EX2, rel=1e-12)
    assert a.EK == pytest.approx(b.EK, rel=1e-12)


def test_moments_leading_order_endpoint():
    # E[X1] at lam=1 approaches zeta(3)/(zeta(2)*b1^2*b2) as beta shrinks
    rep = moments(GibbsParams(EnergyModel.linear(0.02, 0.02), 1.0))
    lead = ZETA3 / (ZETA2 * 0.02**3)
    assert 0.97 <= rep.EX1 / lead <= 1.03


def test_biased_geometric_plain_geometric():
    rng = np.random.default_rng(1)
    draws = np.array([biased_geometric(0.3, 1.0, rng) for _ in range(50_000)])
    for k in range(4):
        assert (draws == k).mean() == pytest.approx(0.7 * 0.3**k, abs=6e-3)


def test_biased_geometric_frozen_masses():
    # rho=1/2, lam=2: normalizer Z = 1 + 2*(1/2)/(1/2) = 3, so
    # P[0]=1/3, P[1]=lam*rho*(1-rho)/Z... = 1/3, P[2]=1/6, halving onward
    rng = np.random.default_rng(7)
    n = 200_000
    draws = np.array([biased_geometric(0.5, 2.0, rng) for _ in range(n)])
    sigma3 = 3 / math.sqrt(n)
    assert (draws == 0).mean() == pytest.approx(1 / 3, abs=sigma3)
    assert (draws == 1).mean() == pytest.approx(1 / 3, abs=sigma3)
    assert (draws == 2).mean() == pytest.approx(1 / 6, abs=sigma3)
    assert (draws == 3).mean() == pytest.approx(1 / 12, abs=sigma3)


def test_biased_geometric_small_fugacity_degenerates():
    rng = np.random.default_rng(3)
    assert all(biased_geometric(0.9, 1e-14, rng) == 0 for _ in range(200))


def test_biased_geometric_domain_errors():
    rng = np.random.default_rng(0)
    for rho in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            biased_geometric(rho, 1.0, rng)
    with pytest.raises(ValueError):
        biased_geometric(0.5, 0.0, rng)


def test_sample_omega_deterministic():
    p = GibbsParams(EnergyModel.linear(0.12, 0.17), 0.9)
    assert sample_omega(p, 41) == sample_omega(p, 41)
    assert sample_omega(p, 41) != sample_omega(p, 42)


def test_sample_omega_empty_at_tiny_fugacity():
    p = GibbsParams(EnergyModel.linear(0.3, 0.3), 1e-12)
    assert all(not sample_omega(p, s).support for s in range(20))


@pytest.mark.parametrize("params", [GibbsParams(EnergyModel.linear(0.1, 0.1)),
                                    GibbsParams(EnergyModel.euclidean(0.3)),
                                    GibbsParams(EnergyModel.mixed(0.2, 0.5), 2.0), _EMPTY],
                         ids=_set_id)
def test_sampler_rounds_of_one_gap_draw_what_one_round_draws(monkeypatch, params):
    # with every first batch one gap, each block is drawn again with doubled
    # batches until a round reaches its end; a gap's uniform is a function
    # of its word, so each draw keeps its bits
    plain = [sample_omega(params, s) for s in range(5)]
    calls = []

    def counted(seed, words):
        calls.append(seed)
        return real(seed, words)

    real, one_gap = gibbs._uniforms, types.SimpleNamespace(**vars(np))
    one_gap.ceil = np.ones_like
    monkeypatch.setattr(gibbs, "np", one_gap)
    monkeypatch.setattr(gibbs, "_uniforms", counted)
    assert [sample_omega(params, s) for s in range(5)] == plain
    # a call per round of gaps, and one for the candidates' acceptance
    assert len(calls) >= 5 * 3 or not plain[0].support


def test_sample_omega_is_valid_distribution():
    p = GibbsParams(EnergyModel.euclidean(0.4), 2.0)
    om = sample_omega(p, 5)
    assert om.support  # essentially sure at this temperature
    for (a, b), m in om.support.items():
        assert math.gcd(a, b) == 1 and m >= 1


@pytest.mark.slow
def test_sampler_matches_moments_monte_carlo():
    # empirical means over 10^4 seeds vs the exact sums, three-standard-error gate
    p = GibbsParams(EnergyModel.linear(0.12, 0.17), 0.9)
    rep = moments(p)
    n = 10_000
    tot = np.zeros(3)
    for s in range(n):
        om = sample_omega(p, s)
        e1, e2 = om.endpoint()
        tot += (e1, e2, len(om.support))
    emp = tot / n
    exact = np.array([rep.EX1, rep.EX2, rep.EK])
    se = np.sqrt(np.diag(rep.covariance) / n)
    assert np.all(np.abs(emp - exact) <= 3 * se), (emp, exact, se)


@pytest.mark.slow
def test_sampler_mean_vertex_count_cold():
    # 10^3 draws at beta=(0.02,0.02), lam=1: mean K within 5% of the exact sum
    p = GibbsParams(EnergyModel.linear(0.02, 0.02), 1.0)
    rep = moments(p)
    n = 1000
    mean_k = sum(len(sample_omega(p, s).support) for s in range(n)) / n
    assert abs(mean_k / rep.EK - 1.0) <= 0.05


def test_parallel_probability_exact_matches_direct_site_sum():
    # independent oracle: sum over explicit primitive vectors instead of the
    # totient-collapsed diagonal form
    beta = 0.1
    direct = 0.0
    for a, b in primitive_vectors_by_weight(lambda u, v: beta * (u + v), 40.0):
        if a == 0 or b == 0:
            continue
        g = math.exp(-beta * (a + b)) / -math.expm1(-beta * (a + b))
        direct += g * g
    direct *= (-math.expm1(-beta)) ** 4
    assert parallel_probability(beta, "exact_sum") == pytest.approx(direct, rel=1e-10)


def test_parallel_probability_asymptotic_converges():
    gaps = []
    for beta in (0.1, 0.05, 0.02, 0.01):
        ex = parallel_probability(beta, "exact_sum")
        asy = parallel_probability(beta, "asymptotic")
        gaps.append(abs(asy - ex) / ex)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 0.05


def test_parallel_probability_domain():
    with pytest.raises(ValueError):
        parallel_probability(0.25, "exact_sum")
    with pytest.raises(ValueError):
        parallel_probability(-0.01, "asymptotic")
    with pytest.raises(ValueError):
        parallel_probability(0.1, "nonsense")
    with pytest.raises(ValueError):
        parallel_probability(5e-5, "exact_sum")  # sieve guard
    parallel_probability(5e-5, "asymptotic")  # asymptotic side still fine


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**63 - 1))
def test_sample_omega_seed_stability(seed):
    p = GibbsParams(EnergyModel.euclidean(0.9), 1.0, truncation=12.0)
    a = sample_omega(p, seed)
    b = sample_omega(p, seed)
    assert a == b and a.items_slope_sorted() == b.items_slope_sorted()


def _candidates_and_blocks(params):
    """Expected candidates per draw, sum of size*q_max, and the block count."""
    _, _, size, block, q_max, _, _ = gibbs._sampler_index(*gibbs._law_key(params))
    return float(np.sum(size * q_max)), block.size


def _fourth_central_moment(rho, q, n_max=400):
    """E[(omega - E omega)^4] per site, summed over the biased geometric pmf
    P[omega = j] = q (1-rho) rho^(j-1), j >= 1, and P[omega = 0] = 1 - q."""
    j = np.arange(1, n_max + 1, dtype=float)
    pmf = q[:, None] * (1.0 - rho[:, None]) * rho[:, None] ** (j - 1.0)
    mean = pmf @ j
    return np.sum(pmf * (j[None, :] - mean[:, None]) ** 4, axis=1) + (1.0 - q) * mean**4


@pytest.mark.slow
def test_sampler_occupation_and_multiplicity_match_the_laws():
    # per-site occupation and mean multiplicity over 10^4 seeds against the
    # exact laws: each chi^2/dof must lie within five standard deviations of
    # 1, with the exact Var(Z^2) = 2 + kappa_4/(n sigma^4) of each site
    p = GibbsParams(EnergyModel.linear(0.3, 0.5), 2.5)
    x1, x2, rho, q = oracles.site_laws(*gibbs._law_key(p))
    mean, var = oracles.site_moments(rho, q)
    assert rho.max() ** 400 < 1e-50  # the pmf sum below is complete
    rank = {xy: i for i, xy in enumerate(zip(x1.tolist(), x2.tolist()))}
    n = 10_000
    occupied = np.zeros(q.size)
    total = np.zeros(q.size)
    for s in range(n):
        for xy, m in sample_omega(p, s).support.items():
            occupied[rank[xy]] += 1
            total[rank[xy]] += m
    sel = q > 1e-4
    q, mean, var, rho = q[sel], mean[sel], var[sel], rho[sel]
    occ_var = q * (1.0 - q)
    for observed, mu, sigma2, mu4 in [
            (occupied[sel], q, occ_var, occ_var * (1.0 - 3.0 * occ_var)),
            (total[sel], mean, var, _fourth_central_moment(rho, q))]:
        z2 = (observed - n * mu) ** 2 / (n * sigma2)
        var_z2 = 2.0 + (mu4 - 3.0 * sigma2**2) / (n * sigma2**2)
        dof = z2.size
        assert abs(z2.sum() / dof - 1.0) <= 5.0 * math.sqrt(var_z2.sum()) / dof, (
            z2.sum() / dof, dof)
    # the geometric skips touch at most 2 E[K] + #blocks candidates per draw
    cand, blocks = _candidates_and_blocks(p)
    assert cand <= 2.0 * moments(p).EK + blocks


def test_sampler_blocks_keep_row_major_order():
    p = GibbsParams(EnergyModel.euclidean(0.4), 2.0)
    x1, x2, _, q = oracles.site_laws(*gibbs._law_key(p))
    order, start, size, block, q_max, _, _ = gibbs._sampler_index(*gibbs._law_key(p))
    assert sorted(order.tolist()) == list(range(q.size))
    for a, m, b, top in zip(start, size, block, q_max):
        sites = order[a:a + m]
        assert np.all(np.diff(sites) > 0)  # row-major, as `_site_arrays` lists them
        assert np.all(np.floor(-np.log2(q[sites])) == b) and q[sites].max() == top


@pytest.mark.parametrize("params,occupied", [
    # q rounds to 1 at every site: each one is occupied
    (GibbsParams(EnergyModel.linear(1e-6, 1e-6), 1e12, truncation=5e-5), "all"),
    # q <= 3e-12, and the capped last block holds q_max < 2^-63
    (GibbsParams(EnergyModel.linear(0.3, 0.3), 1e-12), "none"),
    # the largest bench set: its last blocks skip gaps of order 2^57
    (GibbsParams(EnergyModel.linear(0.02, 0.02), 1.0), "some"),
])
def test_sampler_edge_laws_raise_no_warnings(params, occupied):
    _clear_site_caches()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [sample_omega(params, s) for s in range(5)]  # the index is built here
    x1, x2, _, q = oracles.site_laws(*gibbs._law_key(params))
    _, _, _, block, q_max, _, _ = gibbs._sampler_index(*gibbs._law_key(params))
    if occupied == "all":
        assert np.all(q == 1.0)
        everywhere = set(zip(x1.tolist(), x2.tolist()))
        assert all(set(om.support) == everywhere for om in draws)
    elif occupied == "none":
        assert block[-1] == 63 and q_max[-1] < 2.0**-63
        assert all(not om.support for om in draws)
    else:
        assert all(om.support for om in draws)
    cand, blocks = _candidates_and_blocks(params)
    assert cand <= 2.0 * float(np.sum(q)) + blocks
