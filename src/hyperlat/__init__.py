"""Exact arithmetic of even lattices and lattice point counts on hyperboloids.

The package computes, with exact integer/rational arithmetic wherever the
objects are discrete: discriminant forms of even lattices, Weil
representation matrices, theta series of definite lattices, Siegel local
densities and the truncated singular series, cusp data of isotropic planes,
and exact lattice point counts in caps of the hyperboloid Q = -n, compared
against the predicted main term.
"""

from .lattices import (
    IntegerLattice,
    LatticeError,
    Signature,
    direct_sum,
    e8,
    hyperbolic_plane,
    is_anisotropic_over_q,
    k3_lattice,
    lattice_from_json,
    load_lattice,
    make_named,
    orthogonal_complement,
    rank1,
    rescale,
)
from .fqm import (
    FiniteQuadraticModule,
    FqmError,
    Subgroup,
    discriminant_group,
    isotropic_subgroups,
    orthogonal_subgroup,
    overlattice,
    quotient_module,
    quotient_with_projection,
    subgroup_generated,
)
from .weil import (
    WeilAction,
    WeilError,
    intertwining_defect,
    pullback_matrix,
    pushforward_matrix,
    rho_S,
    rho_T,
    verify_relations,
)
from .qseries import (
    BoundaryCoefficient,
    QSeriesError,
    VectorQSeries,
    a_coeff,
    e2_series,
    multiply,
    theta_series,
    u_coeff,
)
from .densities import (
    DensityError,
    EisensteinCoefficient,
    GuardExceeded,
    LocalDensityReport,
    SingularSeries,
    StabilizationError,
    count_solutions_naive,
    count_solutions_split,
    eisenstein_coefficient,
    is_representable,
    local_density,
    quadratic_congruence_count,
    singular_series,
)
from .cusps import (
    CuspDatum,
    CuspError,
    cusp_datum,
    find_isotropic_planes,
    isotropic_planes,
    project_class,
)
from .hyperboloid import (
    CountReport,
    ExperimentSummary,
    PointCount,
    SplittingFrame,
    Window,
    admissible_values,
    box_scan_count,
    count_range,
    enumerate_points,
    equidistribution_run,
    mu_a0,
    mu_a0_closed,
    mu_infty,
    mu_infty_closed,
    splitting_frame,
    unit_sphere_area,
)
from .predict import (
    K3Prediction,
    PredictError,
    PredictionInput,
    PredictionResult,
    RepresentabilityResult,
    degree_prediction,
    elliptic_census_prediction,
    k3_lattices,
    k3_predict,
    k3_sublattice,
    predict_count,
    represents_on_coset,
)

__version__ = "0.1.0"
