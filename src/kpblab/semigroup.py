"""Free KP-II group U(t) and the KPB-II semigroup W(t) as diagonal multipliers.

U(t) multiplies each mode by exp(i t P(xi, eta)) and is unitary on L^2.
W(t) multiplies by exp(i t P(xi, eta) - xi^2 |t|); the |t| in the damping
extends the semigroup to negative times as a contraction in both directions.

Each table is computed on request and is read-only.
"""

from __future__ import annotations

import numpy as np

from .spectral_core import Grid2D, SpectralField, dispersion_values, is_kp_admissible

__all__ = [
    "PropagatorTable",
    "free_table",
    "semigroup_table",
    "heat_table",
    "apply_U",
    "apply_W",
    "apply_heat",
]

ADMISSIBLE_TOL = 1e-10


class PropagatorTable:
    """Per-mode multiplier table for one propagator at one time (read-only)."""

    __slots__ = ("t", "factors")

    def __init__(self, t: float, factors: np.ndarray):
        factors.setflags(write=False)
        self.t = t
        self.factors = factors


def w_multiplier(P: np.ndarray, xi: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(i t P - xi^2 |t|), with ``xi`` and ``t`` broadcast against ``P``.

    ``semigroup_table`` passes the full grid (xi as a column), ``free_table``
    xi = 0, the solver its half-spectrum columns, and ``verify``'s free
    evolutions a column of times against the mode form of their datum.
    """
    return np.exp(1j * t * P - xi ** 2 * abs(t))


def free_table(grid: Grid2D, t: float) -> PropagatorTable:
    """Multiplier table for the free group U(t): exp(i t P)."""
    t = float(t)
    return PropagatorTable(t, w_multiplier(dispersion_values(grid).values, 0.0, t))


def semigroup_table(grid: Grid2D, t: float) -> PropagatorTable:
    """Multiplier table for W(t): exp(i t P - xi^2 |t|)."""
    t = float(t)
    P = dispersion_values(grid).values
    return PropagatorTable(t, w_multiplier(P, grid.xi[:, None], t))


def heat_table(grid: Grid2D, t: float) -> PropagatorTable:
    """Multiplier table for the damping factor exp(-xi^2 |t|)."""
    t = float(t)
    column = np.exp(-(grid.xi ** 2)[:, None] * abs(t))
    return PropagatorTable(t, np.broadcast_to(column, (grid.nx, grid.ny)))


def _require_admissible(f: SpectralField, op: str) -> None:
    if not is_kp_admissible(f, tol=ADMISSIBLE_TOL):
        raise ValueError(
            f"{op} requires a KP-admissible field (zero xi=0 line); "
            "apply project_zero_x_mean first")


def apply_U(f: SpectralField, t: float) -> SpectralField:
    """Apply the free group U(t).  Preserves the L^2 norm."""
    _require_admissible(f, "apply_U")
    return SpectralField(grid=f.grid, coeffs=f.coeffs * free_table(f.grid, t).factors)


def apply_W(f: SpectralField, t: float) -> SpectralField:
    """Apply the dissipative semigroup W(t) (|t| damping for t < 0)."""
    _require_admissible(f, "apply_W")
    return SpectralField(grid=f.grid, coeffs=f.coeffs * semigroup_table(f.grid, t).factors)


def apply_heat(f: SpectralField, t: float) -> SpectralField:
    """Apply only the damping factor exp(-xi^2 |t|)."""
    _require_admissible(f, "apply_heat")
    return SpectralField(grid=f.grid, coeffs=f.coeffs * heat_table(f.grid, t).factors)
