"""Observables of the paper that only the tests compute.

The library holds the four computations the paper's results rest on: exact
counts, the calibrated product measure, the asymptotic constants and the
limit shapes.  The quantities here are built on top of them for the
acceptance battery and the unit tests alone: the Erdos-Lehner count ratio,
the parallel-endpoint probability and its two-term law, the trilogarithm
residue of log Z, the chi-square of the few-vertex sampler against its
enumerated support, the parabola-distance summaries of both samplers, and
the calibration free energy with its derivatives.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
from scipy.stats import chi2

from convexchain.calibrate import CalibrationTarget, exact_calibrate
from convexchain.counting import CountTable, count_lines_k
from convexchain.experiments import _distances, _gibbs_lines, sample_valtr, typical_vertex_count
from convexchain.gibbs import DEFAULT_TRUNCATION, _linear_log_z
from convexchain.shapes import ShapeCurve
from convexchain.specialfn import ZETA2, _residue_core

EULER_GAMMA = float(np.euler_gamma)
PARALLEL_TRUNC_TOL = 1e-12  # truncation error target of the exact parallel sum


def free_energy(target, v, truncation=DEFAULT_TRUNCATION):
    """(f, gradient, Hessian) of f(v) = b1*n1 + b2*n2 + g*k + log Z at
    v = (b1, b2, g), the function `exact_calibrate` minimizes."""
    logz, grad, hess, _ = _linear_log_z(*v, truncation)
    t = target
    return (v[0] * t.n1 + v[1] * t.n2 + v[2] * t.k + logz,
            np.array([t.n1, t.n2, t.k], dtype=float) + grad, hess)


def erdos_lehner_ratio(n: int, k: int, table: CountTable | None = None) -> float:
    """p(n,n;k) * k! / C(n-1,k-1)^2 as an exact rational, returned as float."""
    if table is None or table.n1 < n or table.n2 < n or table.kmax < k:
        table = count_lines_k(n, n, k)
    denom = math.comb(n - 1, k - 1) ** 2
    if denom == 0:
        raise ValueError(f"C({n - 1},{k - 1}) vanishes")
    return float(Fraction(table.p(n, n, k) * math.factorial(k), denom))


def residue_logZ(beta1: float, beta2: float, lam: float) -> float:
    """Leading term of the log partition function for the linear-energy model:
    (zeta(3) - Li3(1-lam)) / (zeta(2) * beta1 * beta2)."""
    if beta1 <= 0 or beta2 <= 0 or lam <= 0:
        raise ValueError("residue_logZ requires positive beta1, beta2, lam")
    return _residue_core(lam) / (ZETA2 * beta1 * beta2)


def zeta_prime(s: float) -> float:
    """d/ds zeta(s) for real s > 1: partial sum of -log(n)/n^s to N = 200,000
    plus the integral tail (log N + 1/(s-1)) * N^(1-s)/(s-1) and midpoint term.

    Absolute error ~ s*log(N)/N^(s+1), i.e. far below 1e-12 for every s >= 2
    (only s = 2 is used).
    """
    if not s > 1:
        raise ValueError(f"zeta_prime requires s > 1, got {s}")
    N = 200_000.0
    n = np.arange(1.0, N + 1.0)
    partial = -float(np.sum(np.log(n) * n**-s))
    tail = -(math.log(N) / (s - 1.0) + 1.0 / (s - 1.0) ** 2) * N ** (1.0 - s)
    midpoint = 0.5 * math.log(N) * N**-s
    return partial + tail + midpoint


def parallel_constant() -> float:
    """The constant C in the two-term law beta^2*(log(1/beta)/zeta(2) - C) for
    the probability that two independent endpoint draws are parallel.

    From the Laurent expansion at s = 2 of Gamma(s)*(zeta(s-1)-zeta(s))^2 /
    zeta(s) (double pole: zeta(s-1) ~ 1/(s-2) + gamma):

        C = (2*zeta(2) - 1 - euler_gamma + zeta'(2)/zeta(2)) / zeta(2)

    computed from the zeta values at runtime, never from a frozen decimal.
    """
    return (2.0 * ZETA2 - 1.0 - EULER_GAMMA + zeta_prime(2.0) / ZETA2) / ZETA2


def parallel_probability(beta: float, mode: str) -> float:
    """Probability that two independent one-step endpoint draws are parallel.

    exact_sum: (1-e^-beta)^4 * sum_{s>=2} phi(s) * (e^{-beta*s}/(1-e^{-beta*s}))^2
    over the strictly positive primitive directions grouped by coordinate sum s
    (there are phi(s) of them on each diagonal), truncated with error below
    PARALLEL_TRUNC_TOL.  asymptotic: beta^2*(log(1/beta)/zeta(2) - C) with C
    from parallel_constant().
    """
    if not 0.0 < beta <= 0.2:
        raise ValueError(f"beta must lie in (0, 0.2], got {beta}")
    if mode == "asymptotic":
        return beta**2 * (math.log(1.0 / beta) / ZETA2 - parallel_constant())
    if mode != "exact_sum":
        raise ValueError(f"unknown mode {mode!r}")
    if beta < 1e-4:
        raise ValueError("exact_sum refuses beta < 1e-4 (sieve length ~ 1/beta)")
    # tail: sum_{s>S} s*g(s)^2 <= sum s*e^{-2 beta s} analytically; S = 40/beta
    # leaves less than e^{-80}/beta^2-ish, far under the tolerance
    S = int(40.0 / beta) + 2
    phi = np.arange(S + 1, dtype=np.int64)
    for p in range(2, S + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    s = np.arange(2, S + 1, dtype=float)
    g = np.exp(-beta * s) / -np.expm1(-beta * s)
    total = float(np.sum(phi[2:].astype(float) * g * g))
    # tail: phi(s) <= s and g(s)^2 <= e^{-2 beta s}/(1-e^{-2 beta})^2, so the
    # dropped part is under sum_{s>S} s r^s / (1-r)^2 with r = e^{-2 beta}
    r = math.exp(-2.0 * beta)
    tail = ((S + 2) * r ** (S + 1)) / (1 - r) ** 4
    if tail > PARALLEL_TRUNC_TOL * total:
        raise RuntimeError("parallel sum truncation bound violated")
    return (-math.expm1(-beta)) ** 4 * total


def enumerate_ne_lines(n, k):
    """All strictly North-East convex lines (0,0) -> (n,n) with k edges.

    Every edge has both coordinates >= 1 and slopes strictly increase.
    Returns the lines as tuples of edge vectors in slope order.  Intended
    for small k (the recursion visits ~n^(2(k-1)) candidates).
    """
    if k < 1 or n < k:
        return []
    out = []
    edges = []

    def rec(r1, r2, left, prev):
        if left == 1:
            if r1 >= 1 and r2 >= 1 and (
                    prev is None or prev[0] * r2 - prev[1] * r1 > 0):
                out.append((*edges, (r1, r2)))
            return
        for a in range(1, r1 - (left - 1) + 1):
            for b in range(1, r2 - (left - 1) + 1):
                if prev is not None and prev[0] * b - prev[1] * a <= 0:
                    continue
                edges.append((a, b))
                rec(r1 - a, r2 - b, left - 1, (a, b))
                edges.pop()

    rec(n, n, k, None)
    return out


def valtr_uniformity_chisquare(n, k, samples, seed=0):
    """Chi-square statistic of the sampler against the exact uniform law.

    The reference set is enumerated exactly, hashed into `bins` cells (md5
    of the edge tuples, so the binning is stable across runs and platforms),
    and compared with the empirical cell counts of `samples` accepted draws.
    Returns a dict with the statistic, degrees of freedom and the 1-alpha
    quantiles for alpha in {0.05, 0.001}.
    """
    bins = 200
    support = enumerate_ne_lines(n, k)
    if not support:
        raise ValueError(f"no strictly North-East lines for n={n}, k={k}")

    def cell(edge_tuple):
        digest = hashlib.md5(repr(edge_tuple).encode()).digest()
        return int.from_bytes(digest[:8], "big") % bins

    expected = np.zeros(bins)
    index = {}
    for line in support:
        index[line] = cell(line)
        expected[index[line]] += 1.0
    expected *= samples / len(support)

    observed = np.zeros(bins)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        poly = sample_valtr(n, k, rng=rng)
        line = tuple(poly.edges())
        try:
            observed[index[line]] += 1.0
        except KeyError:
            raise AssertionError(
                f"sampler produced a line outside the enumerated support: {line}"
            ) from None

    live = expected > 0
    stat = float(np.sum((observed[live] - expected[live]) ** 2 / expected[live]))
    dof = int(live.sum()) - 1
    return {
        "statistic": stat,
        "dof": dof,
        "support_size": len(support),
        "samples": samples,
        "quantile_05": float(chi2.ppf(0.95, dof)),
        "quantile_001": float(chi2.ppf(0.999, dof)),
    }


def _parabola_summary(n, k, lines, mesh, q90=False):
    arr = np.asarray(_distances(lines, ShapeCurve.parabola(), mesh))
    out = {"n": n, "k": k, "count": int(arr.size),
           "median": float(np.median(arr)), "mean": float(arr.mean())}
    if q90:
        out["q90"] = float(np.quantile(arr, 0.9))
    return out


def gibbs_parabola_distances(n, count=200, seed=0, mesh=1000,
                             truncation=DEFAULT_TRUNCATION):
    """Hausdorff distances to the parabola for calibrated typical-k samples.

    Each sampled line is normalized by its own endpoint (the free-endpoint
    measure fluctuates around (n, n)), then compared with the unit-ratio
    parabola.  Returns summary statistics including the median.
    """
    k = typical_vertex_count(n)
    res = exact_calibrate(CalibrationTarget(n, n, k), trunc=truncation)
    params = res.params(truncation)
    return _parabola_summary(n, k, _gibbs_lines(params, count, seed), mesh, q90=True)


def valtr_parabola_distances(n, k, count=200, seed=0, mesh=1000):
    """Median parabola distance of uniform strictly North-East k-edge lines.

    Every line ends at (n, n), so its own endpoint is the normalization.
    """
    rng = np.random.default_rng(seed)
    lines = [sample_valtr(n, k, rng=rng) for _ in range(count)]
    return _parabola_summary(n, k, lines, mesh)
