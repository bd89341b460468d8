"""Continuous primitive integration on the extended plane.

Distributions are represented by continuous primitives vanishing on the
-inf edges; integrals are corner differences, norms are grid suprema, and
multipliers of bounded variation enter through Stieltjes quadrature.
"""

from .extplane import (
    DEFAULT_CHART,
    FULL_PLANE,
    NEG_INF,
    POS_INF,
    Chart,
    Grid2,
    Interval2,
    axis_nodes,
    ext,
    make_interval,
)
from .primitive import (
    BVFunction,
    CATALOG_BV,
    CATALOG_PRIMITIVES,
    ClosedFormPrimitive,
    CorrectedPrimitive,
    Distribution,
    GridSamplePrimitive,
    Primitive,
    SeparablePrimitive,
    approx_identity,
    catalog_bv,
    catalog_primitive,
    distribution,
    export_grid_csv,
    export_grid_json,
    import_grid_csv,
    import_grid_json,
    sample_primitive,
    validate_primitive,
)
from .integral import (
    IntervalND,
    QuadResult,
    alexiewicz_norm,
    corner_integral,
    corner_integral_nd,
    cumulative,
    ftc_residual,
    improper_example,
    iterated_consistency,
    norm_dual,
    norm_prime,
    total_integral,
)
from .variation import (
    VariationEstimate,
    hk_norm,
    sectional_variation_sup,
    variation_1d,
    variation_trace,
    vitali_variation,
)
from .stieltjes import (
    gdf_identity_check,
    integrate_product,
    mean_value_point,
    parts_primitive,
    rs_line_integral,
    rs_line_section,
    rs_plane_integral,
)
from .operators import (
    LinearAxisMap,
    algebra_product,
    change_of_variables,
    convergence_limit,
    jordan_parts,
    lattice_join,
    lattice_meet,
    order_compare,
    order_leq,
    translate,
)
from .convolution import (
    L1Kernel,
    PoissonKernelL1,
    StepFunction2,
    convolve_bv,
    convolve_l1,
    mollify_step,
    poisson_kernel,
    step_approximate,
)
from .suites import SUITES, run_suite

__version__ = "0.1.0"
