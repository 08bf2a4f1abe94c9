"""kpblab: pseudospectral solver and norm laboratory for the KPB-II equation.

The equation (u_t + u_xxx - u_xx + u u_x)_x + u_yy = 0 is integrated in mild
form on a periodic box under the zero-x-mean constraint.  Modules:

- ``spectral_core``: grid, transforms, dealiasing, KP projection, symbol
- ``semigroup``: free group U(t) and dissipative semigroup W(t) multipliers
- ``solver``: Picard iteration on the Duhamel formula; ETD2RK cross-check
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
    DispersionSymbol,
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
    PropagatorTable,
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
    solve_picard,
    solve_etd,
    l2_history,
)
from .norms import (
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

__all__ = [
    "__version__",
    "Grid2D", "SpectralField", "DispersionSymbol", "make_grid",
    "forward_transform", "inverse_transform", "dealias",
    "project_zero_x_mean", "dispersion_values", "is_kp_admissible", "l2_norm",
    "PropagatorTable", "free_table", "semigroup_table", "heat_table",
    "apply_U", "apply_W", "apply_heat",
    "Trajectory", "PicardReport", "nonlinearity", "picard_step",
    "solve_picard", "solve_etd", "l2_history",
    "sobolev_norm", "spacetime_norm", "bourgain_norm", "equivalence_gap",
    "Rectangle", "RectanglePair", "IllposedResult", "ScalingStudy",
    "rectangle_pair", "build_phi_N", "resonance_chi", "kernel_K",
    "second_iterate_hat", "second_iterate_norm", "scaling_study",
    "chi_bound_check",
    "RatioReport", "free_estimate_ratio", "smoothing_ratio", "bilinear_ratio",
    "run_suite",
]
