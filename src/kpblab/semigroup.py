"""Free KP-II group U(t) and the KPB-II semigroup W(t) as diagonal multipliers.

U(t) multiplies each mode by exp(i t P(xi, eta)) and is unitary on L^2.
W(t) multiplies by exp(i t P(xi, eta) - xi^2 |t|); the |t| in the damping
extends the semigroup to negative times as a contraction in both directions.

Each table is a read-only (nx, ny) array, computed on request.
"""

from __future__ import annotations

import numpy as np

from .spectral_core import Grid2D, SpectralField, dispersion_values, is_kp_admissible

__all__ = [
    "free_table",
    "semigroup_table",
    "heat_table",
    "apply_U",
    "apply_W",
    "apply_heat",
]

ADMISSIBLE_TOL = 1e-10


def w_multiplier(P: np.ndarray, xi: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(i t P - xi^2 |t|), with ``xi`` and ``t`` broadcast against ``P``.

    ``semigroup_table`` passes the full grid (xi as a column), ``free_table``
    xi = 0, the solver its half-spectrum columns, and ``verify``'s free
    evolutions a column of times against the mode form of their datum.
    """
    return np.exp(1j * t * P - xi ** 2 * abs(t))


def free_table(grid: Grid2D, t: float) -> np.ndarray:
    """Multiplier table for the free group U(t): exp(i t P)."""
    table = w_multiplier(dispersion_values(grid), 0.0, float(t))
    table.setflags(write=False)
    return table


def semigroup_table(grid: Grid2D, t: float) -> np.ndarray:
    """Multiplier table for W(t): exp(i t P - xi^2 |t|)."""
    table = w_multiplier(dispersion_values(grid), grid.xi[:, None], float(t))
    table.setflags(write=False)
    return table


def heat_table(grid: Grid2D, t: float) -> np.ndarray:
    """Multiplier table for the damping factor exp(-xi^2 |t|)."""
    column = np.exp(-(grid.xi ** 2)[:, None] * abs(float(t)))
    return np.broadcast_to(column, (grid.nx, grid.ny))


def _require_admissible(f: SpectralField, op: str) -> None:
    if not is_kp_admissible(f, tol=ADMISSIBLE_TOL):
        raise ValueError(
            f"{op} requires a KP-admissible field (zero xi=0 line); "
            "apply project_zero_x_mean first")


def apply_U(f: SpectralField, t: float) -> SpectralField:
    """Apply the free group U(t).  Preserves the L^2 norm."""
    _require_admissible(f, "apply_U")
    return SpectralField(grid=f.grid, coeffs=f.coeffs * free_table(f.grid, t))


def apply_W(f: SpectralField, t: float) -> SpectralField:
    """Apply the dissipative semigroup W(t) (|t| damping for t < 0)."""
    _require_admissible(f, "apply_W")
    return SpectralField(grid=f.grid, coeffs=f.coeffs * semigroup_table(f.grid, t))


def apply_heat(f: SpectralField, t: float) -> SpectralField:
    """Apply only the damping factor exp(-xi^2 |t|)."""
    _require_admissible(f, "apply_heat")
    return SpectralField(grid=f.grid, coeffs=f.coeffs * heat_table(f.grid, t))
