"""heisgeo: numerical surface geometry of the Lorentzian Heisenberg group.

Ambient frame/connection/curvature with an independent coordinate
cross-check path, fundamental forms and shape operators of immersed patches,
generators for the classified constant-angle families, and residual suites
that turn the classification's identities into machine checks."""

from .ambient import (
    Frame, SpaceParams, christoffel_coords, commutator_fd, connection_table,
    curvature, curvature_fd, curvature_frame, frame_at, frame_metric,
    from_frame_components, metric_eval, metric_matrix, riemann_coords,
    sectional_curvature, to_frame_components, wedge, wedge_frame)
from .errors import (
    AmbientError, ConfigError, DegenerateAdaptedFrame, DegenerateInducedMetric,
    DegenerateNormal, DegeneratePlane, FamilyError, HeisgeoError,
    InvalidCombination, InvalidParameterDomain, NonFiniteJet,
    NonFiniteResidual, NotAHelixPatch, OutOfDomain, QuadratureFailure,
    SingularConformalFactor, SingularMetric, SurfaceError, UnknownFamily,
    UnsupportedKappa, VerifyError)
from .families import (
    EtaSpec, HelixProfile, ProfileFunctions, build_profile, family_from_config,
    make_cmc_cylinder, make_helix_surface, make_minimal_plane, predicted_mu,
    predicted_mu_at_patch, profile_residuals, profile_u_from_patch_u)
from .surface import (
    FirstFundamentalForm, GeometryReport, PatchJet, SampleRecord,
    ShapeOperator2x2, SurfacePatch, angle_function, causal_character,
    gaussian_curvature, geometry_report, induced_metric, mean_curvature,
    second_fundamental_form, shape_operator, tangent_part_T,
    tangent_rotation_J, unit_normal)
from .verify import (
    DEFAULT_SEED, DEFAULT_TOLERANCES, SUITE_NAMES, CheckResult,
    ParallelCheckInput, ResidualSuite, check_ambient, check_claims,
    check_codazzi, check_gauss, check_helix_ode, check_parallel,
    curvature_from_table, curvature_table, default_family_matrix,
    parallel_equations_residuals, run_suite)

__version__ = "0.1.0"
