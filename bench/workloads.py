"""The three benchmark workloads: fixed sequences of public library calls.

Each workload is a function `(cc, r, seed)` that issues its calls one after
another through `r.op(...)`: the op times every library call it makes and
runs the checks afterwards, outside the timers.  `cc` is the imported
`convexchain` package; calls go through its namespace at call time so that
the traced round's span wrappers see them.

Why these three (see also BENCHMARK.json):

- count: the big-int DP does almost all the work, gibbs/calibrate none.  The
  small-box sweep exposes fixed per-call overhead; `max_vertices` is the numpy
  sweep that shares the DP's vector skeleton.
- calibrate: Newton loop, frozen-site free energy and site-set builds at
  many parameter sets; dilute targets (small fugacity) cost far more than
  typical ones.  No sampling, no counting.
- sample: few parameter sets, many draws; the per-draw path (sampler,
  omega -> polyline, Hausdorff distance) dominates.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import numpy as np

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# count: frozen values from the paper's table plus per-table digests
FROZEN_P60 = {2: 1830, 3: 589670}
LARGE_BOXES = ((60, 60, 8), (80, 40, 8))
SMALL_SIDES = (4, 8, 12, 16, 20)
SMALL_KMAX = 6
MAXVERT_BOX = (200, 200)

# calibrate: ordered targets, then a moments sweep, then the c/e grid
TARGETS = ((300, 300, 34), (1000, 1000, 75), (3000, 3000, 156), (600, 600, 20),
           (2000, 500, 40), (300, 300, 8), (300, 300, 5))
MOMENT_SWEEP = ((0.02, 0.03, 1.0), (0.03, 0.05, 0.5), (0.05, 0.02, 2.0),
                (0.04, 0.04, 1.0))
SWEEP_JITTER = 0.01  # seed moves each beta by up to 1%: fresh sets, same work
# |1 - ell| > 0.98 takes polylog's integral route, the rest its series route
ELL_GRID = (1e-3, 0.01, 0.3, 1.0, 1.7, 2.5, 10.0, 100.0)
CALIB_RESIDUAL_TOL = 1e-6
FLOAT_REF_RTOL = 1e-8
# leading-order moments (residue of log Z) hold to this at beta <= 0.05
ASYMPTOTIC_RTOL = 0.15

# sample: (tag, energy, fugacity, curve, draws)
GIBBS_SETS = (
    ("linear", ("linear", 0.02, 0.02), 1.0, "parabola", 100),
    ("euclidean", ("euclidean", 0.05), 1.0, "circle", 60),
    ("mixed", ("mixed", 0.03, 1.0), 1.0, "mixed", 60),
)
VALTR_N, VALTR_K, VALTR_DRAWS = 10000, 20, 60
MEAN_K_SIGMAS = 5.0  # mean K over a set's draws vs E[K]: 5 standard errors


def table_digest(table) -> str:
    h = hashlib.sha256()
    for row in table.csv_rows():
        h.update((",".join(map(str, row)) + "\n").encode())
    return h.hexdigest()


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def dp_cell_updates(vectors, n1: int, n2: int, kmax: int) -> int:
    """Cells the layered DP touches: for every primitive v = (p, q) and
    multiplicity m with m*v in the box, (n1-mp+1)(n2-mq+1) cells per layer."""
    cells = 0
    for p, q in vectors:
        m = 1
        while m * p <= n1 and m * q <= n2:
            cells += (n1 - m * p + 1) * (n2 - m * q + 1)
            m += 1
    return cells * kmax


# -- count --------------------------------------------------------------------

def count(cc, r, seed: int) -> None:
    refs = load_references()["count"]
    small = [(a, b) for a in SMALL_SIDES for b in SMALL_SIDES]
    random.Random(seed).shuffle(small)
    boxes = [("large", box) for box in LARGE_BOXES]
    boxes += [("small", (a, b, SMALL_KMAX)) for a, b in small]

    cell_updates = entries = max_bits = vectors = 0
    for tag, (n1, n2, k) in boxes:
        key = f"{n1}x{n2}k{k}"
        with r.op(f"count.{tag}.{key}") as op:
            table = op.call(cc.count_lines_k, n1, n2, k)
            op.check(table_digest(table) == refs["tables"][key], f"table {key} digest")
            if (n1, n2) == (60, 60):
                for kk, want in FROZEN_P60.items():
                    op.check(table.p(60, 60, kk) == want, f"p(60,60;{kk}) != {want}")
            pv = cc.primitive_vectors_in_box(n1, n2)
            vectors += len(pv)
            cell_updates += dp_cell_updates(pv, n1, n2, k)
            entries += len(table.entries)
            max_bits = max(max_bits, max(c.bit_length() for c in table.entries.values()))

    n1, n2 = MAXVERT_BOX
    with r.op(f"count.maxvert.{n1}x{n2}") as op:
        best = op.call(cc.max_vertices, n1, n2)
        op.check(best == refs["max_vertices"][f"{n1}x{n2}"], f"max_vertices = {best}")
        vectors += len(cc.primitive_vectors_in_box(n1, n2))

    r.counters.update({
        "counting.cell_updates": cell_updates,
        "counting.table_entries": entries,
        "counting.max_count_bits": max_bits,
        "lattice.primitive_vectors": vectors,
    })


# -- calibrate ----------------------------------------------------------------

def _check_moments(cc, op, params, rep) -> None:
    """Leading-order residue of log Z and a positive-definite covariance."""
    b1, b2 = params.energy.params
    lam = params.fugacity
    w = 1.0 - lam
    u = (cc.ZETA3 - cc.polylog(3.0, w)) / cc.ZETA2 if w else cc.ZETA3 / cc.ZETA2
    dens = lam * (cc.polylog(2.0, w) / w if w else 1.0) / cc.ZETA2
    op.check(_rel(rep.EX1, u / (b1 * b1 * b2)) <= ASYMPTOTIC_RTOL, f"EX1 = {rep.EX1}")
    op.check(_rel(rep.EX2, u / (b1 * b2 * b2)) <= ASYMPTOTIC_RTOL, f"EX2 = {rep.EX2}")
    op.check(_rel(rep.EK, dens / (b1 * b2)) <= ASYMPTOTIC_RTOL, f"EK = {rep.EK}")
    op.check(min(np.linalg.eigvalsh(rep.covariance)) > 0, "covariance not positive definite")


def calibrate(cc, r, seed: int) -> None:
    refs = load_references()["calibrate"]
    iterations = 0
    for n1, n2, k in TARGETS:
        key = f"n{n1}x{n2}k{k}"
        target = cc.CalibrationTarget(n1, n2, k)
        with r.op(f"calibrate.{key}") as op:
            res = op.call(cc.exact_calibrate, target)
            logp = op.call(cc.predicted_log_pnk, target, res)
            op.check(res.converged, f"{key} not converged")
            rep = cc.moments(res.params())
            worst = max(_rel(rep.EX1, n1), _rel(rep.EX2, n2), _rel(rep.EK, k))
            op.check(worst <= CALIB_RESIDUAL_TOL, f"{key} residual {worst:.3g}")
            op.check(_rel(logp, refs["log_pnk"][key]) <= FLOAT_REF_RTOL, f"{key} log p {logp}")
            iterations += res.iterations

    rng = random.Random(seed)
    sweep_sites = 0
    for i, (b1, b2, lam) in enumerate(MOMENT_SWEEP):
        b1 *= 1.0 + SWEEP_JITTER * rng.uniform(-1.0, 1.0)
        b2 *= 1.0 + SWEEP_JITTER * rng.uniform(-1.0, 1.0)
        params = cc.GibbsParams(cc.EnergyModel.linear(b1, b2), lam)
        with r.op(f"calibrate.moments.{i}") as op:
            rep = op.call(cc.moments, params)
            _check_moments(cc, op, params, rep)
            sweep_sites += rep.site_count

    for ell in ELL_GRID:
        with r.op(f"calibrate.asymptotics.{ell:g}") as op:
            c = op.call(cc.c_of_ell, ell)
            e = op.call(cc.e_of_ell, ell)
            op.check(_rel(c, refs["c_of_ell"][f"{ell:g}"]) <= FLOAT_REF_RTOL, f"c({ell:g}) = {c}")
            op.check(_rel(e, refs["e_of_ell"][f"{ell:g}"]) <= FLOAT_REF_RTOL, f"e({ell:g}) = {e}")

    r.counters.update({"calibrate.newton_iterations": iterations,
                       "gibbs.sweep_sites": sweep_sites})


# -- sample -------------------------------------------------------------------

def _draw_seed(seed: int, stream: int, index: int) -> int:
    h = hashlib.sha256(f"{seed}:{stream}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


def _energy(cc, spec):
    kind, *args = spec
    return getattr(cc.EnergyModel, kind)(*args)


def _check_distance(op, d: float) -> None:
    op.check(math.isfinite(d) and 0.0 <= d <= math.sqrt(2.0), f"distance {d}")


def sample(cc, r, seed: int) -> None:
    curves = {"parabola": lambda: cc.ShapeCurve.parabola(),
              "circle": lambda: cc.ShapeCurve.circle(),
              "mixed": lambda: cc.ShapeCurve.mixed(1.0)}
    sites = draws_total = k_total = site_draws = 0
    for stream, (tag, spec, lam, curve_name, draws) in enumerate(GIBBS_SETS):
        params = cc.GibbsParams(_energy(cc, spec), lam)
        curve = None
        ks = []
        for i in range(draws):
            with r.op(f"sample.{tag}") as op:
                if curve is None:
                    curve = op.call(curves[curve_name])
                omega = op.call(cc.sample_omega, params, _draw_seed(seed, stream, i))
                line = op.call(cc.omega_to_polyline, omega)
                norm = op.call(cc.normalize, line, line.endpoint())
                d = op.call(cc.hausdorff_distance, norm, curve)
                _check_omega(cc, op, params, omega)
                op.check(line.endpoint() == omega.endpoint(), "polyline endpoint")
                op.check(len(line.vertices) == omega.vertex_count + 1, "polyline size")
                _check_distance(op, d)
                ks.append(omega.vertex_count)
        rep = cc.moments(params)
        with r.op(f"sample.{tag}.mean_k") as op:
            se = math.sqrt(rep.covariance[2, 2] / len(ks))
            mean_k = sum(ks) / len(ks)
            op.check(abs(mean_k - rep.EK) <= MEAN_K_SIGMAS * se,
                     f"mean K {mean_k:.2f} vs E[K] {rep.EK:.2f} (se {se:.2f})")
        sites += rep.site_count
        draws_total += len(ks)
        k_total += sum(ks)
        site_draws += rep.site_count * len(ks)

    parabola = cc.ShapeCurve.parabola()
    for i in range(VALTR_DRAWS):
        with r.op("sample.valtr") as op:
            line = op.call(cc.sample_valtr, VALTR_N, VALTR_K, _draw_seed(seed, len(GIBBS_SETS), i))
            norm = op.call(cc.normalize, line, (VALTR_N, VALTR_N))
            d = op.call(cc.hausdorff_distance, norm, parabola)
            edges = line.edges()
            op.check(line.endpoint() == (VALTR_N, VALTR_N), "valtr endpoint")
            op.check(len(edges) == VALTR_K and all(a > 0 and b > 0 for a, b in edges),
                     "valtr edges")
            _check_distance(op, d)

    r.counters.update({
        "gibbs.sites": sites,
        "gibbs.vertices_per_draw": k_total / draws_total,
        "gibbs.occupied_per_site": k_total / site_draws,
    })


def _check_omega(cc, op, params, omega) -> None:
    """Every support site is primitive, inside the truncated site set, and
    has a positive multiplicity."""
    energy, cut = params.energy, params.truncation
    for (a, b), m in omega.support.items():
        if not (m >= 1 and math.gcd(a, b) == 1 and float(energy(a, b)) <= cut):
            op.check(False, f"bad site {(a, b)}^{m}")
            return


WORKLOADS = {"count": count, "calibrate": calibrate, "sample": sample}
