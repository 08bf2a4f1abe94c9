"""kpblab: pseudospectral solver and norm laboratory for the KPB-II equation.

The equation (u_t + u_xxx - u_xx + u u_x)_x + u_yy = 0 is integrated in mild
form on a periodic box under the zero-x-mean constraint.  Modules:

- ``spectral_core``: grid, transforms, dealiasing, KP projection, symbol
- ``semigroup``: free group U(t) and dissipative semigroup W(t) multipliers
- ``solver``: Picard iteration on the Duhamel formula; ETD2RK cross-check
- ``modes``: the mode form of a trajectory, the columns the norms transform
- ``norms``: anisotropic Sobolev, space-time, and Bourgain norms
- ``illposedness``: second-Picard-iterate norm-growth counterexample
- ``verify``: randomized ratio checks of the linear/bilinear estimates
- ``cli``: batch front-end (``kpblab solve|illposed|verify|norms``)
- ``states``: the streamed ``states.npz`` file that ``solve`` writes and
  ``norms`` reads
"""

__version__ = "0.1.0"

from .spectral_core import (
    Grid2D,
    SpectralField,
    make_grid,
    forward_transform,
    inverse_transform,
    dealias,
    project_zero_x_mean,
    dispersion_values,
    is_kp_admissible,
    l2_norm,
)
from .semigroup import (
    free_table,
    semigroup_table,
    heat_table,
    apply_U,
    apply_W,
    apply_heat,
)
from .solver import (
    Trajectory,
    PicardReport,
    nonlinearity,
    picard_step,
    solve_states,
    solve_picard,
    solve_etd,
    l2_history,
)
from .norms import (
    WindowedPower,
    sobolev_norm,
    spacetime_norm,
    bourgain_norm,
    equivalence_gap,
)
from .illposedness import (
    Rectangle,
    RectanglePair,
    IllposedResult,
    ScalingStudy,
    rectangle_pair,
    build_phi_N,
    resonance_chi,
    kernel_K,
    second_iterate_hat,
    second_iterate_norm,
    scaling_study,
    chi_bound_check,
)
from .verify import (
    RatioReport,
    free_estimate_ratio,
    smoothing_ratio,
    bilinear_ratio,
    run_suite,
)
from . import illposedness, norms, semigroup, solver, spectral_core

# Every tolerance and window parameter in play, as each manifest names it.
TOLERANCES = {
    "hermitian_tol": spectral_core.HERMITIAN_TOL,
    "kp_admissibility_tol": spectral_core.KP_ADMISSIBLE_TOL,
    "semigroup_admissibility_tol": semigroup.ADMISSIBLE_TOL,
    "taper_alpha": norms.TAPER_FRACTION,
    "min_time_steps_for_norms": norms.MIN_STEPS,
    "min_quadrature_cells": illposedness.MIN_CELLS,
    "min_chi_samples": illposedness.MIN_CHI_SAMPLES,
    "etd_phi_series_cutoff": solver.PHI_SERIES_CUTOFF,
}

__all__ = [
    "__version__", "TOLERANCES",
    "Grid2D", "SpectralField", "make_grid",
    "forward_transform", "inverse_transform", "dealias",
    "project_zero_x_mean", "dispersion_values", "is_kp_admissible", "l2_norm",
    "free_table", "semigroup_table", "heat_table",
    "apply_U", "apply_W", "apply_heat",
    "Trajectory", "PicardReport", "nonlinearity", "picard_step",
    "solve_states", "solve_picard", "solve_etd", "l2_history",
    "WindowedPower", "sobolev_norm", "spacetime_norm", "bourgain_norm",
    "equivalence_gap",
    "Rectangle", "RectanglePair", "IllposedResult", "ScalingStudy",
    "rectangle_pair", "build_phi_N", "resonance_chi", "kernel_K",
    "second_iterate_hat", "second_iterate_norm", "scaling_study",
    "chi_bound_check",
    "RatioReport", "free_estimate_ratio", "smoothing_ratio", "bilinear_ratio",
    "run_suite",
]
