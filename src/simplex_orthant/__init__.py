"""Orthant probabilities for equicorrelated normals and vertex maxima of
random homogeneous polynomials on the zero-centered simplex."""

from .equicorrelated import (
    EquicorrelatedSpec,
    InverseDiagonalPair,
    ResourceBudgetError,
    TvBound,
    covariance_matrix,
    inverse_diag_offdiag,
    inverse_matrix,
    tv_bound_frobenius,
)
from .normal import (
    birnbaum_lower_mills,
    gordon_upper_mills,
    log_std_normal_cdf,
    pdf_of_quantile,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_quantile_from_log,
)
from .orthant import (
    BoundReport,
    OrthantEstimate,
    best_estimate,
    bound_high_rho_lower,
    bound_high_rho_upper,
    bound_low_rho_lower,
    bound_low_rho_upper,
    closed_form,
    density_integral,
    monte_carlo,
    scaled_ratio,
    steck_quadrature,
    theorem_bounds,
    trivariate_closed_form,
)
from .simplex import (
    BombieriPolynomial,
    EdgeFrame,
    ExperimentReport,
    SimplexGeometry,
    TvReport,
    build_geometry,
    derivative_inner_product,
    directional_derivative,
    edge_frame,
    epsilon_n,
    estimate_union_probability,
    estimate_vertex_probability,
    independent_union_approx,
    is_vertex_max,
    rho_n,
    sample_polynomial,
    tv_pipeline,
)

__version__ = "0.1.0"
