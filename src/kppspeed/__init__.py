"""Periodic principal eigenvalues and spreading speeds of space-time
periodic Fisher-KPP equations: a numerical laboratory for the dependence of
the directional speed c*_e on the diffusion, drift, and growth coefficients.
"""

from .expressions import Expression, parse_expression
from .fields import (CellGeometry, CoefficientSet, PeriodicField,
                     ellipticity_bounds, gradient_drift, spatial_average,
                     temporal_average)
from .operators import ActionFamily, Grid, assemble_action, build_grid
from .eigen import (AdjointPair, EigenResult, adjoint_eigenpair, dk_dB_at_zero,
                    principal_eigen_floquet, principal_eigen_steady,
                    principal_eigenvalue)
from .variational import compjlambda_lower_bound, k0_rayleigh
from .speed import SpeedResult, shear_speed, spreading_speed
from .simulate import CauchyRun, FrontEstimate, front_speed, smooth_bump, solve_cauchy
from .scenario import ExperimentReport, Scenario, load_scenario, write_report
from .experiments import EXPERIMENTS, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Expression", "parse_expression",
    "CellGeometry", "CoefficientSet", "PeriodicField", "ellipticity_bounds",
    "gradient_drift", "spatial_average", "temporal_average",
    "ActionFamily", "Grid", "assemble_action", "build_grid",
    "AdjointPair", "EigenResult", "adjoint_eigenpair", "dk_dB_at_zero",
    "principal_eigen_floquet", "principal_eigen_steady", "principal_eigenvalue",
    "compjlambda_lower_bound", "k0_rayleigh",
    "SpeedResult", "shear_speed", "spreading_speed",
    "CauchyRun", "FrontEstimate", "front_speed", "smooth_bump", "solve_cauchy",
    "ExperimentReport", "Scenario", "load_scenario", "write_report",
    "EXPERIMENTS", "run_experiment",
]
