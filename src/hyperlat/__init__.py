"""Exact arithmetic of even lattices and lattice point counts on hyperboloids.

The package computes, with exact integer/rational arithmetic wherever the
objects are discrete: discriminant forms of even lattices, Weil
representation matrices, theta series of definite lattices, Siegel local
densities and the truncated singular series, cusp data of isotropic planes,
and exact lattice point counts in caps of the hyperboloid Q = -n, compared
against the predicted main term.

``import hyperlat`` loads no submodule.  Each public name below is resolved
on first access (``from hyperlat import theta_series`` imports
``hyperlat.qseries`` and nothing else of the package), so a program pays the
import cost of numpy only when it uses a module that needs it.
"""

import importlib

_EXPORTS = {
    "exactla": ("InputError", "NodeGuardExceeded"),
    "lattices": (
        "IntegerLattice", "LatticeError", "Signature", "direct_sum", "e8",
        "hyperbolic_plane", "is_anisotropic_over_q", "k3_lattice",
        "lattice_from_json", "load_lattice", "make_named",
        "orthogonal_complement", "rank1", "rescale",
    ),
    "fqm": (
        "FiniteQuadraticModule", "FqmError", "Subgroup", "discriminant_group",
        "isotropic_subgroups", "orthogonal_subgroup", "overlattice",
        "quotient_module", "quotient_with_projection", "subgroup_generated",
    ),
    "weil": (
        "WeilAction", "WeilError", "intertwining_defect", "pullback_matrix",
        "pushforward_matrix", "rho_S", "rho_T", "verify_relations",
    ),
    "qseries": (
        "BoundaryCoefficient", "QSeriesError", "VectorQSeries", "a_coeff",
        "e2_series", "multiply", "theta_series", "u_coeff",
    ),
    "densities": (
        "DensityError", "EisensteinCoefficient", "GuardExceeded",
        "LocalDensityReport", "PredictionResult", "SingularSeries",
        "StabilizationError", "count_solutions_naive", "count_solutions_split",
        "eisenstein_coefficient", "is_representable", "local_density",
        "singular_series",
    ),
    "cusps": (
        "CuspDatum", "CuspError", "cusp_datum", "find_isotropic_planes",
        "isotropic_planes", "project_class",
    ),
    "hyperboloid": (
        "CountReport", "ExperimentSummary", "PointCount", "SplittingFrame",
        "Window", "admissible_values", "box_scan_count", "count_range",
        "enumerate_points", "equidistribution_run", "mu_a0", "mu_a0_closed",
        "mu_infty", "mu_infty_closed", "splitting_frame", "unit_sphere_area",
    ),
    "predict": (
        "K3Prediction", "PredictError", "PredictionInput",
        "RepresentabilityResult", "degree_prediction",
        "elliptic_census_prediction", "k3_lattices", "k3_predict",
        "k3_sublattice", "represents_on_coset",
    ),
}
# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
