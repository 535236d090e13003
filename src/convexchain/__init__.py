"""Convex lattice polygonal lines: exact counts, Gibbs sampling, calibration,
and limit-shape geometry."""

from .lattice import (
    ConvexPolyline,
    MultiplicityDistribution,
    omega_to_polyline,
    primitive_vectors_in_box,
)
from .counting import (
    CountTable,
    brute_force_enum,
    count_lines_k,
    line_length,
    max_vertices,
)
from .specialfn import (
    ZETA2,
    ZETA3,
    c_of_ell,
    e_of_ell,
    polylog,
)
from .gibbs import (
    EnergyModel,
    GibbsParams,
    MomentReport,
    log_partition,
    moments,
    sample_omega,
)
from .calibrate import (
    CalibrationError,
    CalibrationResult,
    CalibrationTarget,
    asymptotic_params,
    exact_calibrate,
    predicted_log_pnk,
)
from .shapes import (
    ShapeCurve,
    hausdorff_distance,
    mixed_length,
    normalize,
    overlay_svg,
)
from .experiments import (
    SUITE_NAMES,
    jarnik_greedy_vertex_count,
    run_jarnik,
    run_suite,
    sample_valtr,
    typical_vertex_count,
)

__version__ = "0.1.0"
