"""Reproducible experiment drivers.

Everything here orchestrates the library modules into named, seeded,
deterministic checks: the few-vertex sampler built on sorted uniform
increments, the Euclidean-length model runs, and the suite runner that
emits machine-readable {check, target, observed, tolerance, pass} rows.
Every stochastic routine takes an explicit integer seed (default 0, never
wall clock), and reports are sorted by check name so byte-identical output
only depends on the config.

Each quantity is computed once, through one path: every limit-shape check
runs the `_distances` loop (the curve sampled once, each line normalized
and measured), the Jarnik suite takes only a median from its two extra
betas, and E[L] is the exact per-site moment.
"""

import math
import warnings
from collections import Counter
from functools import lru_cache

import numpy as np

from .calibrate import CalibrationTarget, _root, exact_calibrate, predicted_log_pnk
from .counting import brute_force_enum, count_lines_k, line_length
from .gibbs import (
    DEFAULT_TRUNCATION,
    EnergyModel,
    GibbsParams,
    _check_draws,
    _mean_euclidean_length,
    log_partition,
    moments,
    sample_omega,
)
from .lattice import _box_rows, _polyline, _slope_order, _turns, omega_to_polyline
from .shapes import ShapeCurve, _check_mesh, hausdorff_distance, mixed_length, normalize
from .specialfn import ZETA3, c_of_ell, e_of_ell
from .tolerances import (GIBBS_DRAW_ENTRIES, GIBBS_ENTRY_BUDGET, JARNIK_MESH_ENTRIES,
                         VALTR_EDGE_BUDGET, VALTR_WORK_BUDGET, check_budget)

__all__ = [
    "sample_valtr",
    "typical_vertex_count",
    "jarnik_greedy_vertex_count",
    "run_jarnik",
    "run_suite",
    "SUITE_NAMES",
]

VALTR_REJECTION_BUDGET = 10**4


def _child_seed(seed, index):
    """Stable per-sample substream seed; independent draws, replayable rows."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def _check_valtr(n, k, count=1):
    """Refuse `count` draws of `sample_valtr(n, k)` before the first: a
    ValueError where no line exists, else `check_budget` on one draw's edges,
    on the edges the draws take, on one draw's attempts against the
    rejection loop's VALTR_REJECTION_BUDGET and on their lines, priced as
    Gibbs lines.

    The k-1 ceiled abscissas are distinct and below n, and the floored
    ordinates distinct and above 0, with probability
    P = [(n-1)!/((n-k)! n^(k-1))]^2; parallel pairs only lower the
    acceptance, so a draw takes 1/P attempts and k/P edges or more.
    count*k/P is compared in float logs, and only within a factor 2 of the
    budget or past it is it taken as a Decimal, which keeps the refusal's
    number where P lies far past the float range (e^-199,986.6 at n = k =
    1e5); 1/P <= k/P is checked after it, so it is a float there.
    """
    if k < 2:
        raise ValueError(f"need at least two edges, got k={k}")
    if n < k:
        raise ValueError(f"no strictly North-East line with {k} edges fits in n={n}")
    what = f"sample_valtr(n={n}, k={k})"
    check_budget(what, k, VALTR_EDGE_BUDGET, "edges")
    log_p = 2.0 * (math.lgamma(n) - math.lgamma(n - k + 1) - (k - 1) * math.log(n))
    log_edges = math.log(k) - log_p
    if not math.log(count) + log_edges < math.log(0.5 * VALTR_WORK_BUDGET):
        # imported here, so that importing the package does not load decimal
        from decimal import MAX_EMAX, Context, Decimal

        edges = Decimal(log_edges).exp(Context(Emax=MAX_EMAX))
        check_budget(f"{what} x {count:,}", count * edges, VALTR_WORK_BUDGET, "edges drawn")
    check_budget(what, math.exp(-log_p), VALTR_REJECTION_BUDGET, "attempts")
    check_budget(f"{what} x {count:,}", count * (k + GIBBS_DRAW_ENTRIES), GIBBS_ENTRY_BUDGET,
                 "line entries")


def sample_valtr(n, k, seed=0, rng=None):
    """One uniform strictly North-East convex line to (n, n) with k edges.

    Construction: k-1 sorted uniforms on each axis give an increasing
    North-East path through (U_i, V_i); abscissas are rounded up to the
    lattice (U_i <= u_i/n < U_i + 1/n) and ordinates down, endpoints stay
    pinned at (0,0) and (n,n); the increments are reordered by increasing
    slope.  Draws whose discretized increments are not all strictly positive
    in both coordinates, or contain two parallel vectors, are rejected and
    redrawn — conditioning on that event makes the reordered line exactly
    uniform on the strictly North-East k-edge lines.
    """
    _check_valtr(n, k)
    if k**3 >= n:
        warnings.warn(
            f"k^3 = {k**3} >= n = {n}: outside the few-vertex regime; "
            "sampling stays exact but shape convergence degrades",
            stacklevel=2,
        )
    if rng is None:
        rng = np.random.default_rng(seed)
    attempts = min(VALTR_REJECTION_BUDGET, VALTR_WORK_BUDGET // k)  # bounds the edges drawn
    u, v = np.zeros((2, k + 1), dtype=np.int64)
    u[-1] = v[-1] = n
    for _ in range(attempts):
        u[1:-1] = np.ceil(n * np.sort(rng.uniform(size=k - 1)))
        v[1:-1] = np.floor(n * np.sort(rng.uniform(size=k - 1)))
        du, dv = u[1:] - u[:-1], v[1:] - v[:-1]
        if du.min() > 0 and dv.min() > 0:
            d = np.column_stack([du, dv])
            d = np.take(d, _slope_order(d), axis=0)
            if np.all(_turns(d) > 0):  # parallel increments are slope-order neighbours
                return _polyline(d)
    raise RuntimeError(
        f"rejection budget ({attempts}) exhausted at n={n}, k={k}: the "
        "few-vertex regime k^3 << n is strongly violated"
    )


def typical_vertex_count(n1, n2=None):
    """Most likely vertex count of a uniform line to (n1, n2): c(1)(n1 n2)^(1/3)."""
    if n2 is None:
        n2 = n1
    return max(2, round(c_of_ell(1.0) * (n1 * n2) ** (1.0 / 3.0)))


def _gibbs_lines(params, count, seed):
    """The polylines of `count` Gibbs draws, draw i from `_child_seed(seed, i)`."""
    return [omega_to_polyline(sample_omega(params, _child_seed(seed, i)))
            for i in range(count)]


def _distances(lines, curve, mesh):
    """Hausdorff distance of each line to `curve`, sampled once at `mesh`.

    A line is normalized by its own endpoint; lines that end on an axis have
    no shape and are skipped.
    """
    dists = []
    for poly in lines:
        end = poly.endpoint()
        if end[0] > 0 and end[1] > 0:
            dists.append(hausdorff_distance(normalize(poly, end), curve, mesh))
    if not dists:
        raise ValueError(f"none of the {len(lines)} sampled lines leaves both axes, so "
                         "there is no length or shape to check; lower beta")
    return dists


_GREEDY_BOX = 1 << 12  # the largest box side the greedy sweep enumerates


def jarnik_greedy_vertex_count(length_budget):
    """Maximal vertex count of a line of total length <= budget, greedily.

    Uses each primitive direction at most once, closest first; tied
    directions have equal lengths, so the count does not depend on their
    order.  Only the directions of norm <= box are complete in a box, so
    only those are used, and the box doubles when they run out; it stops at
    4096 per side, below the primitive-vector grid budget.  The directions
    of norm <= r have total length about r^3/pi, so the box starts at the
    power of two that holds r = (pi*budget)^(1/3) (a larger complete
    catalogue gives the same count), and a budget that needs norms past 4096
    is refused up front, as is a budget that is not positive and finite.
    Each step is `np.sqrt` of the exact int64 x1^2 + x2^2, which equals
    `math.hypot(x1, x2)` bit for bit on the whole 4096 box, and their
    running total is `np.cumsum`'s, the same sums one at a time.
    """
    if not 0 < length_budget < math.inf:
        raise ValueError(f"length budget must be positive and finite, got {length_budget}")
    norm = (math.pi * length_budget) ** (1.0 / 3.0)
    check_budget(f"a greedy line of length {length_budget:.3g}", norm, _GREEDY_BOX,
                 "of direction norm")
    box = 1 << max(5, math.ceil(math.log2(norm)))
    while box <= _GREEDY_BOX:
        x1, x2 = _box_rows(box, box).T
        norm2 = x1 * x1 + x2 * x2
        steps = np.sqrt(np.sort(norm2[norm2 <= box * box]))
        count = int(np.searchsorted(np.cumsum(steps), length_budget, side="right"))
        if count < steps.size:
            return count
        box *= 2  # ran out of directions before the budget: enlarge the catalogue
    raise RuntimeError("length budget too large for the greedy sweep")


def _check_samples(samples):
    """Refuse fewer than the two draws a standard error needs, before any pricing."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {samples}")


def run_jarnik(beta, fugacity=1.0, samples=100, seed=0,
               truncation=DEFAULT_TRUNCATION, mesh=1000):
    """Sample the Euclidean-length Gibbs model and check its asymptotics.

    Reports (at fugacity 1) the vertex-per-length ratio against
    (3/(4 pi zeta(3)^2))^(1/3), the Legendre count-growth slope against
    3^(4/3) zeta(3)^(1/3)/(4 pi)^(1/3), the sampled vertex mean against the
    exact truncated moments, the median distance to the circle, and the
    greedy maximal-vertex count against (3/2) L^(2/3)/pi^(1/3).
    """
    _check_samples(samples)
    _check_mesh(mesh, 100)
    params = GibbsParams(EnergyModel.euclidean(beta), fugacity, truncation)
    _check_draws(f"run_jarnik({beta}, samples={samples})", [(params, samples)],
                 JARNIK_MESH_ENTRIES * mesh)
    rep = moments(params)
    lines = _gibbs_lines(params, samples, seed)
    dists = _distances(lines, ShapeCurve.circle(), mesh)
    ks = np.array([len(poly.xy) - 1 for poly in lines], dtype=float)

    rows = []
    mean_len = float(np.mean([line_length(poly) for poly in lines]))
    mean_k = float(ks.mean())

    ratio_target = (3.0 / (4.0 * math.pi * ZETA3**2)) ** (1.0 / 3.0)
    ratio = mean_k / mean_len ** (2.0 / 3.0)
    rows.append(_row("vertex-length ratio", ratio_target, ratio, 0.05,
                     abs(ratio / ratio_target - 1.0) <= 0.05))

    slope_target = 3.0 ** (4.0 / 3.0) * ZETA3 ** (1.0 / 3.0) / (
        4.0 * math.pi) ** (1.0 / 3.0)
    # E[L] ~ 1/beta^3 is so convex that regula falsi creeps along it; its
    # log is close to linear in beta
    bstar = _root(
        lambda b: math.log(_mean_euclidean_length(
            GibbsParams(EnergyModel.euclidean(b), fugacity, truncation)) / mean_len),
        beta / 3.0, 3.0 * beta, 1e-12)
    legendre = log_partition(
        GibbsParams(EnergyModel.euclidean(bstar), fugacity, truncation)
    ) + bstar * mean_len
    slope = legendre / mean_len ** (2.0 / 3.0)
    rows.append(_row("count-growth slope", slope_target, slope, 0.05,
                     abs(slope / slope_target - 1.0) <= 0.05))

    se = float(ks.std(ddof=1) / math.sqrt(samples))
    rows.append(_row("sampled vertex mean", rep.EK, mean_k, 3.0 * se,
                     abs(mean_k - rep.EK) <= 3.0 * se))

    med = float(np.median(dists))
    rows.append(_row("median circle distance", 0.0, med, 0.12, med <= 0.12))

    greedy = jarnik_greedy_vertex_count(10**4)
    greedy_target = 1.5 * (10**4) ** (2.0 / 3.0) / math.pi ** (1.0 / 3.0)
    rows.append(_row("greedy maximal vertices", greedy_target, float(greedy),
                     0.05, abs(greedy / greedy_target - 1.0) <= 0.05))

    return {
        "beta": beta,
        "fugacity": fugacity,
        "samples": samples,
        "seed": seed,
        "mean_length": mean_len,
        "rows": _sorted_rows(rows),
        "passed": all(r["pass"] for r in rows),
    }


def _row(check, target, observed, tolerance, ok):
    return {
        "check": check,
        "target": float(target),
        "observed": float(observed),
        "tolerance": float(tolerance),
        "pass": bool(ok),
    }


def _sorted_rows(rows):
    return sorted(rows, key=lambda r: r["check"])


# ---------------------------------------------------------------------------
# named suites


_COUNTING_CAP = 8  # the counting suite checks every box up to 8x8 by brute force
_CALIBRATION_N = 300  # the box side of the calibration suite's targets


def _suite_counting(config):
    rows = []
    mismatches = 0
    # one table holds every smaller box, and no line in it has more than n1 + n2 vertices
    table = count_lines_k(_COUNTING_CAP, _COUNTING_CAP, kmax=2 * _COUNTING_CAP)
    for n1 in range(1, _COUNTING_CAP + 1):
        for n2 in range(1, _COUNTING_CAP + 1):
            counts = Counter(omega.vertex_count for omega in brute_force_enum(n1, n2))
            mismatches += sum(table.p(n1, n2, k) != counts[k] for k in range(1, n1 + n2 + 1))
    rows.append(_row("dp equals brute force below cap", 0.0, float(mismatches),
                     0.0, mismatches == 0))

    table60 = count_lines_k(60, 60, kmax=3)
    for k, want in ((2, 1830), (3, 589670)):
        got = table60.p(60, 60, k)
        rows.append(_row(f"p(60,60;{k}) frozen", want, float(got), 0.0, got == want))
    return rows


def _suite_calibration(config):
    rows = []
    n = _CALIBRATION_N
    fit = lru_cache(maxsize=None)(exact_calibrate)  # each target is calibrated once
    for k in (5, 34):
        res = fit(CalibrationTarget(n, n, k))
        worst = max(abs(r) for r in res.residuals)
        rows.append(_row(f"moment residuals at k={k}", 0.0, worst, 1e-6,
                         res.converged and worst <= 1e-6))
    res5 = fit(CalibrationTarget(n, n, 5))
    rows.append(_row("dilute beta1 near k/n1", 5.0 / n, res5.beta1, 0.30,
                     abs(res5.beta1 / (5.0 / n) - 1.0) <= 0.30))
    # count-growth consistency: log-count rate e(1) at the typical density
    t = CalibrationTarget(n, n, typical_vertex_count(n))
    pred = predicted_log_pnk(t, fit(t), with_llt=False)
    rate = pred / n ** (2.0 / 3.0)
    target = e_of_ell(1.0)
    rows.append(_row("log-count rate near e(1)", target, rate, 0.10,
                     abs(rate / target - 1.0) <= 0.10))
    return rows


def _suite_shapes(config):
    rows = []
    rng = np.random.default_rng(int(config.get("seed", 0)))
    worst = 0.0
    for th in rng.uniform(0.0, 50.0, 1000):
        x, y = ShapeCurve.parabola().point(th / (1.0 + th))
        worst = max(worst, abs(math.sqrt(y) + math.sqrt(1.0 - x) - 1.0))
    rows.append(_row("parabola on-curve identity", 0.0, worst, 1e-12,
                     worst <= 1e-12))

    L0 = mixed_length(0.0)
    L0_target = 1.0 + math.log(1.0 + math.sqrt(2.0)) / math.sqrt(2.0)
    rows.append(_row("mixed length at 0", L0_target, L0, 1e-9,
                     abs(L0 - L0_target) <= 1e-9))

    pts = ShapeCurve.mixed(0.0).sample(1000)
    gap = float(np.abs(
        pts[:, 1] - (1.0 - np.sqrt(np.clip(1.0 - pts[:, 0], 0.0, None))) ** 2
    ).max())
    rows.append(_row("mixed(0) equals parabola", 0.0, gap, 1e-6, gap <= 1e-6))

    cpts = ShapeCurve.circle().sample(1000)
    resid = float(np.abs(cpts[:, 0] ** 2 + (cpts[:, 1] - 1.0) ** 2 - 1.0).max())
    rows.append(_row("circle identity", 0.0, resid, 1e-12, resid <= 1e-12))
    return rows


def _suite_jarnik(config):
    seed = int(config.get("seed", 0))
    samples = int(config.get("samples", 100))
    _check_samples(samples)
    mesh = 1000
    sets = {beta: GibbsParams(EnergyModel.euclidean(beta)) for beta in (0.05, 0.1, 0.02)}
    _check_draws(f"the jarnik suite with samples={samples}",
                 [(p, samples) for p in sets.values()], JARNIK_MESH_ENTRIES * mesh)
    rows = list(run_jarnik(0.05, samples=samples, seed=seed, mesh=mesh)["rows"])
    # the coarse and fine runs only contribute their median circle distance
    med_hi, med_lo = (
        float(np.median(_distances(_gibbs_lines(sets[beta], samples, seed),
                                   ShapeCurve.circle(), mesh)))
        for beta in (0.1, 0.02))
    rows.append(_row("circle distance shrinks with beta", 1.0,
                     med_lo / med_hi, 0.0, med_lo < med_hi))
    return rows


def _suite_mixed(config):
    rows = []
    grid = [0.0, 1.0, 10.0, 100.0]
    vals = [mixed_length(v) for v in grid]
    dec = all(a > b for a, b in zip(vals, vals[1:]))
    rows.append(_row("length decreases toward pi/2", math.pi / 2.0, vals[-1],
                     5e-3, dec and abs(vals[-1] - math.pi / 2.0) <= 5e-3))
    pts = ShapeCurve.mixed(1e3).sample(500)
    gap = float(np.abs(
        pts[:, 1] - (1.0 - np.sqrt(np.clip(1.0 - pts[:, 0] ** 2, 0.0, None)))
    ).max())
    rows.append(_row("large-lambda curve is the circle", 0.0, gap, 1e-2,
                     gap <= 1e-2))
    end = ShapeCurve.mixed(-0.6).point(1.0)
    err = max(abs(end[0] - 1.0), abs(end[1] - 1.0))
    rows.append(_row("negative-lambda branch endpoint", 0.0, err, 1e-8,
                     err <= 1e-8))
    return rows


_SUITES = {
    "counting": _suite_counting,
    "calibration": _suite_calibration,
    "shapes": _suite_shapes,
    "jarnik": _suite_jarnik,
    "mixed": _suite_mixed,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name, config=None):
    """Execute one named check suite; see SUITE_NAMES for the catalogue."""
    if name not in _SUITES:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    config = dict(config or {})
    rows = _sorted_rows(_SUITES[name](config))
    return {
        "suite": name,
        "config": {k: config[k] for k in sorted(config)},
        "rows": rows,
        "passed": all(r["pass"] for r in rows),
    }
