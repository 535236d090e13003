"""Named numerical tolerances and budgets, in one place so tests and library
agree, and `check_budget`, the one rule by which every budget refuses.

Each budget refuses work predicted to take over ~1 minute or ~2 GB on a
2-core x86 host; its comment gives the unit and one measured rate."""

import numbers


def check_budget(what, need, budget, unit):
    """When `need` is over `budget`, refuse before any work with ResourceWarning
    "<what> needs ~<need> <unit>, over the budget <budget>" (a RuntimeError
    means a run gave up), integers exact and other numbers to 3 digits."""
    if need > budget:
        need, budget = (f"{x:,}" if isinstance(x, numbers.Integral) else f"{x:.3g}"
                        for x in (need, budget))
        raise ResourceWarning(f"{what} needs ~{need} {unit}, over the budget {budget}")


# special functions
POLYLOG_SERIES_TOL = 1e-13    # series tail bound for Li_s

# quadrature for the limit-shape curve family
CURVE_QUAD_TOL = 1e-10
# Mesh, in curve parameters or polyline points: a mixed-curve mesh cell
# takes 10-19 us, so 30-60 s at the cap.
MESH_BUDGET = 3_000_000
# Mesh points a `mixed-shapes` row (one `shapes.mixed_length`) is priced at
# against MESH_BUDGET: a row takes at most 7.5 ms (lambda_ell = -0.7).
MIXED_ROW_POINTS = 1_000
# Pairs of one `shapes._window_min` search (a distance makes up to two per
# direction, and its second direction searches only the queries above the
# first direction's result), ~19 ns each, so ~30 s for a search at the cap.
PAIR_BUDGET = 1_500_000_000
# Valtr edges k: one draw peaks at 420-440 bytes per edge, so ~1.8 GB.
VALTR_EDGE_BUDGET = 4_000_000
# Valtr edges drawn before an acceptance is expected, k/P with P the
# acceptance of the positivity step: 33-72 ns per rejected edge.
VALTR_WORK_BUDGET = 800_000_000

# Gibbs / counting
DEFAULT_TRUNCATION = 40.0     # default energy cutoff T for Gibbs site sets
# DP cell updates of one unbounded sweep (`counting._dp_cost_estimate`): a
# float64 count sweep runs ~5.5e8 priced updates/s, so ~40 s at the cap.
COUNT_OP_BUDGET = 20_000_000_000
# `sample-gibbs` support entries: --count draws of E[K] entries each, at ~2.4
# us per entry with its JSON line, plus GIBBS_DRAW_ENTRIES for the ~0.39 ms
# that a draw costs whatever its size.
GIBBS_ENTRY_BUDGET = 20_000_000
GIBBS_DRAW_ENTRIES = 160
# Entries per mesh point of the circle distance that each `jarnik` draw adds:
# at most 1.0 ms at mesh 1000.  A coarse line's pairs grow about with mesh^2,
# which this linear term misses.
JARNIK_MESH_ENTRIES = 0.8
# `asymptotics-table` --ell-grid rows: 0.15-0.18 ms a row where rows are
# slowest, and a --format json row holds ~1.1 kB.
TABLE_ROW_BUDGET = 300_000
# Cells (n1+1)*(n2+1) of the box that `lattice._primitive_grid` sieves for a
# box or a Gibbs site set: a site set with its `moments` pass or its sampler
# index peaks at 23-29 bytes per site over import, the peak of the set's
# build, and a set holds at most pi/4 * 6/pi^2 = 0.48 sites per cell, so up
# to ~14 bytes per cell and ~0.7 GB at the cap.
SITE_BUDGET = 48_000_000
# relative rounding allowance of a Mobius-kernel log Z or moment against the
# same sum over the sites: 64 ulps, where at most 12 were measured
KERNEL_ROUNDING = 2.0**-46

# calibration
CALIB_RESIDUAL_TOL = 1e-6     # success contract: max relative moment residual
CALIB_TARGET_TOL = 1e-11      # Newton keeps polishing down to this when it can
CALIB_MAX_ITER = 60
