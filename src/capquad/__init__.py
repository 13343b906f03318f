"""Positive cubature rules and sampling-inequality checks on spherical caps."""

from .geometry import (
    Cap,
    Collar,
    GeometryError,
    RhoBall,
    Sphere,
    SpherePoint,
    boundary_distance,
    collar_rho,
    collar_rho6,
    delta_r,
    domain_measure,
    geodesic_distance,
    map_T,
    north_pole,
    poly_D,
    rho,
    rho1,
    rho2,
    rho3,
    rho4,
    rho5,
    rho_ball_contains,
)
from .points import (
    NodeSet,
    covering_multiplicity,
    is_maximal_separable,
    is_separable,
    ring_lattice,
    tau_statistic,
)
from .polys import (
    PolyCoeffs,
    PolySpace,
    compose_with_T,
    eval_basis,
    eval_poly,
    project_onto,
    random_polynomial,
)
from .quadrature import (
    ProductRule,
    QuadratureError,
    build_rule,
    integrate,
    integrate_adaptive,
    rho_ball_volume,
)
from .solver import (
    CubatureRule,
    Infeasible,
    solve_weights,
    verify_exactness,
    weight_sharpness,
)
from .verify import (
    DoublingWeight,
    VerificationReport,
    bernstein_check_d1,
    change_of_variables_check,
    compute_Wn,
    estimate_doubling,
    large_sieve_constant,
    maxmin_equivalence,
    mz_bracket,
    osc_constant,
    weighted_mz,
)

__version__ = "0.1.0"
