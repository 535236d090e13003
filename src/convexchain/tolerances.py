"""Named numerical tolerances and budgets, in one place so tests and library
agree, and `check_budget`, the one rule by which every budget refuses."""

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
# Limit-shape guards, by the ~1 minute and ~2 GB rules below (2-core x86
# host).  Mesh, in curve parameters or polyline points: a mixed-curve mesh
# cell takes 10-19 us (lambda_ell -0.7 to 100), so 30-60 s at the cap; a
# 3e6-point `curve` CSV peaks ~0.6 GB over the import.
MESH_BUDGET = 3_000_000
# Mesh points a `mixed-shapes` csv or json row is priced at against
# MESH_BUDGET: a row is one `shapes.mixed_length`, 7.5 ms at lambda_ell =
# -0.7 (about 620 mesh cells at 12.4 us), 3.8 ms at -0.69 and under 0.6 ms
# from -0.5 up, so the cap is 3,000 rows: 3,000 rows at -0.7 took 31 s
# with their json output.
MIXED_ROW_POINTS = 1_000
# Pairs of one phase of a nearest-point search (`shapes._window_min`), ~19
# ns each, so ~30 s for a phase at the cap.  A chain near the curve needs
# ~1,600 pairs per distance at mesh 1000 (280 linear, Euclidean, mixed and
# Valtr lines; one window per point took ~16,000); one away from it still
# grows about with mesh^2: a beta = 0.5 Euclidean line against the circle
# needs ~1.2e6 pairs at mesh 1e4 and ~1.8e8 at mesh 1e5.
PAIR_BUDGET = 1_500_000_000
# Valtr edges k: one draw peaks at 420-440 bytes per edge, so ~1.8 GB.
VALTR_EDGE_BUDGET = 4_000_000
# Valtr edges drawn before an acceptance is expected, k/P with P the
# acceptance of the positivity step: a rejected draw takes 33-72 ns per edge
# (k = 1e4 to 1e6), so ~30-60 s at the cap.  `sample-valtr --count` prices
# its draws' edges here and their lines in GIBBS_ENTRY_BUDGET, as Gibbs
# lines: at that cap 111,000 draws at k = 20 took 35 s, and 99 at k = 2e5
# took 70 s and 1.4 GB.
VALTR_WORK_BUDGET = 800_000_000

# Gibbs / counting
DEFAULT_TRUNCATION = 40.0     # default energy cutoff T for Gibbs site sets
# DP resource guard, in cell updates of one unbounded sweep
# (`counting._dp_cost_estimate`).  The count sweep updates only its cone
# rectangles, about 70% of those, and one float64 count sweep runs ~5.5e8
# priced updates/s on a 2-core x86 host (100x100 and 150x150, 10 layers), so
# the budget refuses calls predicted to take over ~40 s.  Counts past 2^53
# add a uint64 pass, and past 2^64 one prime pass (about the cost of a plain
# pass) per 32 bits.  For max_vertices the same estimate is a looser upper
# bound still: it sweeps only the few vectors a maximal line can use (181 of
# 24,465 at 200x200), each over its cone and strip, 2.7e7 of the 4.1e8
# priced updates, at ~7e8 updates/s.
COUNT_OP_BUDGET = 20_000_000_000
# `sample-gibbs` guard, in support entries: --count draws of E[K] entries
# each, plus GIBBS_DRAW_ENTRIES for what a draw costs whatever its size (a
# draw with its JSON line takes ~0.39 ms at E[K] = 3 and ~2.4 us per entry
# at E[K] = 1500-6000, on a 2-core x86 host).  Whole runs of 2.4e7 entries
# took 59 s and 88 MB (150,000 draws at E[K] = 3.2) and 77 s and 1.13 GB
# (3,900 draws at E[K] = 6,080 over 4.9M sites), so the ~1 minute rule.
GIBBS_ENTRY_BUDGET = 20_000_000
GIBBS_DRAW_ENTRIES = 160
# `jarnik` and `suite --name jarnik` draws, priced in the same entries, add
# a circle distance at --mesh per draw: 0.7-1.0 ms at mesh 1000 (beta 0.05
# to 0.5), under the ~1.9 ms of 0.8 entry per mesh point.  Runs at the
# budget took 26 s and 318 MB (`jarnik`, 14,800 samples), 20 s and 471 MB
# (the suite, 3,470) and 29 s (`jarnik --beta 0.5`, 20,700).  A coarse
# line's pairs grow about with mesh^2, which this linear term misses: a beta
# = 0.5 line takes 4-5 s at mesh 1e5, priced as ~0.2 s.
JARNIK_MESH_ENTRIES = 0.8
# `asymptotics-table` guard, in --ell-grid rows: one c and one e take 0.02-0.10
# ms on a 2-core x86 host (ell = 1e-3, 100, 2.5), and a whole row with its
# output takes 0.15-0.18 ms where rows are slowest (ell in [2, 3]), so the
# same ~1 minute rule; a --format json row holds ~1.1 kB, ~0.35 GB at the cap.
TABLE_ROW_BUDGET = 300_000
# Primitive-vector guard, in cells (n1+1)*(n2+1) of the box that
# `lattice._primitive_grid` sieves for a box or a Gibbs site set: a site set
# holds ~0.30 primitive sites per cell for the linear energy and ~0.48 for
# the Euclidean one, and a site set with its `moments` pass peaks at 40-42
# bytes per site (ru_maxrss of fresh processes less their 28 MB import, at
# 2.5M-9.9M linear and 3.9M-11.9M Euclidean sites): the 24 of the set and
# the 16 of its laws.  That is ~12-13 and ~19 bytes per cell, so the budget
# refuses sets predicted to need over ~0.9 GB.  The build reserves 24 bytes
# of address space per cell, resident only where sites are written
# (`gibbs._site_arrays`).  The `gibbs` caches keep one set each, so a
# process holds at most one cached set and the one being built.  The
# largest current caller is the Jarnik suite's root bracket at Euclidean
# beta 0.05/3, a 2401^2 = 5.8e6-cell box.
SITE_BUDGET = 48_000_000
# relative rounding allowance of a Mobius-kernel log Z or moment against the
# same sum over the sites: 64 ulps, where at most 12 were measured (linear
# rates 0.015-0.7, fugacity 1e-3-2, site sums at T = 60)
KERNEL_ROUNDING = 2.0**-46

# calibration
CALIB_RESIDUAL_TOL = 1e-6     # success contract: max relative moment residual
CALIB_TARGET_TOL = 1e-11      # Newton keeps polishing down to this when it can
CALIB_MAX_ITER = 60
