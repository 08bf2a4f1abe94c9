"""Periodic 2-D spectral grid, transforms, dealiasing, and the KP dispersion symbol.

The physical domain is the box [-Lx, Lx) x [-Ly, Ly) sampled on nx x ny points.
Fourier coefficients are indexed by signed integer frequencies (kx, ky); the
radian wavenumbers are xi = (pi/Lx) * kx and eta = (pi/Ly) * ky.

Conventions
-----------
forward:  coeffs[k] = sum_j u(x_j, y_j) * exp(-i (xi*x_j + eta*y_j))
inverse:  u(x_j)    = (1/(nx*ny)) * sum_k coeffs[k] * exp(+i (xi*x_j + eta*y_j))

Because the box starts at -Lx (not 0), the raw FFT picks up a phase
(-1)^(kx+ky) relative to this convention; the grid precomputes that sign
table once and both transforms apply it.  With this choice a coefficient is
the plain Riemann sum for the continuum Fourier integral at that mode, i.e.
``uhat(xi, eta) ~= coeffs * dx * dy``, and Parseval reads

    ||u||_{L^2(box)}^2 = sum_k |coeffs[k]|^2 * dx * dy / (nx * ny).

The KP symbol P(xi, eta) = xi^3 - eta^2/xi is singular on the line xi = 0;
fields evolved by it must have that line projected to zero (zero mean in x
along every y line), which is what :func:`project_zero_x_mean` enforces.
:func:`dispersion_values` tabulates P as a read-only (nx, ny) array with 0
on that line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid2D",
    "SpectralField",
    "make_grid",
    "forward_transform",
    "inverse_transform",
    "dealias",
    "project_zero_x_mean",
    "dispersion_values",
    "l2_norm",
    "hermitian_defect",
    "is_kp_admissible",
    "reflected_coeffs",
]

HERMITIAN_TOL = 1e-10
KP_ADMISSIBLE_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Immutable periodic grid with precomputed wavenumber tables.

    Attributes
    ----------
    nx, ny : int
        Even mode counts (>= 8) along x and y.
    Lx, Ly : float
        Box half-lengths; the domain is [-Lx, Lx) x [-Ly, Ly).
    dealias_fraction : float
        Fraction of the Nyquist band kept by the dealias mask (default 2/3).
    kx_int, ky_int : ndarray
        Signed integer frequencies in FFT order, shapes (nx,), (ny,).
    xi, eta : ndarray
        Radian wavenumbers (pi/Lx)*kx_int, (pi/Ly)*ky_int.
    x, y : ndarray
        Physical coordinates.
    dealias_mask : ndarray of bool, shape (nx, ny)
        True on retained modes: |kx| <= f*nx/2 and |ky| <= f*ny/2.
    phase : ndarray, shape (nx, ny)
        The (-1)^(kx+ky) sign table relating the raw FFT to the
        box-centred transform convention.
    """

    nx: int
    ny: int
    Lx: float
    Ly: float
    dealias_fraction: float
    kx_int: np.ndarray
    ky_int: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    dealias_mask: np.ndarray
    phase: np.ndarray

    @property
    def dx(self) -> float:
        return 2.0 * self.Lx / self.nx

    @property
    def dy(self) -> float:
        return 2.0 * self.Ly / self.ny

    @property
    def cell_measure(self) -> float:
        """Parseval measure per coefficient: dx*dy/(nx*ny)."""
        return self.dx * self.dy / (self.nx * self.ny)


def make_grid(nx: int, ny: int, Lx: float, Ly: float,
              dealias_fraction: float = 2.0 / 3.0) -> Grid2D:
    """Build a :class:`Grid2D`.

    Raises
    ------
    ValueError
        If a mode count is odd or < 8, a box size is not positive and
        finite, or the dealias fraction is outside (0, 1].
    """
    for name, n in (("nx", nx), ("ny", ny)):
        if n < 8:
            raise ValueError(f"{name} must be >= 8, got {n}")
        if n % 2 != 0:
            raise ValueError(f"{name} must be even, got {n}")
    for name, L in (("Lx", Lx), ("Ly", Ly)):
        if not 0 < L < math.inf:  # written so that NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {L}")
    if not 0.0 < dealias_fraction <= 1.0:
        raise ValueError(f"dealias_fraction must be in (0, 1], got {dealias_fraction}")

    kx_int = np.fft.fftfreq(nx, d=1.0 / nx).astype(np.int64)
    ky_int = np.fft.fftfreq(ny, d=1.0 / ny).astype(np.int64)
    xi = (np.pi / Lx) * kx_int.astype(float)
    eta = (np.pi / Ly) * ky_int.astype(float)
    x = -Lx + (2.0 * Lx / nx) * np.arange(nx)
    y = -Ly + (2.0 * Ly / ny) * np.arange(ny)

    cut_x = dealias_fraction * (nx // 2)
    cut_y = dealias_fraction * (ny // 2)
    mask = (np.abs(kx_int)[:, None] <= cut_x) & (np.abs(ky_int)[None, :] <= cut_y)

    phase = ((-1.0) ** (kx_int[:, None] + ky_int[None, :])).astype(float)

    for arr in (kx_int, ky_int, xi, eta, x, y, mask, phase):
        arr.setflags(write=False)
    return Grid2D(nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly),
                  dealias_fraction=float(dealias_fraction),
                  kx_int=kx_int, ky_int=ky_int, xi=xi, eta=eta, x=x, y=y,
                  dealias_mask=mask, phase=phase)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex Fourier coefficients of one real field u(x, y) at one time."""

    grid: Grid2D
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.nx, self.grid.ny)
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {expected}")


def forward_transform(u_phys: np.ndarray, grid: Grid2D) -> SpectralField:
    """Transform a real sample array to spectral coefficients."""
    if u_phys.shape != (grid.nx, grid.ny):
        raise ValueError(
            f"field shape {u_phys.shape} does not match grid ({grid.nx}, {grid.ny})")
    coeffs = np.fft.fft2(u_phys) * grid.phase
    return SpectralField(grid=grid, coeffs=coeffs)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Transform back to a real sample array.

    Raises
    ------
    ValueError
        If the coefficients are not Hermitian-symmetric within 1e-10
        (relative), i.e. do not represent a real field.
    """
    defect = hermitian_defect(f)
    scale = float(np.max(np.abs(f.coeffs))) or 1.0
    if defect > HERMITIAN_TOL * scale:
        raise ValueError(
            f"spectrum is not Hermitian-symmetric (defect {defect:.3e}, "
            f"scale {scale:.3e}); field would not be real")
    u = np.fft.ifft2(f.coeffs * f.grid.phase)
    return np.ascontiguousarray(u.real)


def reflected_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Return the array R with R[k] = coeffs[-k] (indices mod grid size)."""
    return np.roll(coeffs[::-1, ::-1], shift=(1, 1), axis=(0, 1))


def hermitian_defect(f: SpectralField) -> float:
    """Max |coeffs(-k) - conj(coeffs(k))| over all modes."""
    return float(np.max(np.abs(reflected_coeffs(f.coeffs) - np.conj(f.coeffs))))


def is_kp_admissible(f: SpectralField, tol: float = KP_ADMISSIBLE_TOL) -> bool:
    """True when the xi = 0 coefficient line vanishes (zero x-mean per y line)."""
    line = np.max(np.abs(f.coeffs[0, :]))
    scale = float(np.max(np.abs(f.coeffs))) or 1.0
    return bool(line <= tol * scale)


def dealias(f: SpectralField) -> SpectralField:
    """Zero the modes outside the grid's dealias mask; retained modes are untouched."""
    return SpectralField(grid=f.grid, coeffs=np.where(f.grid.dealias_mask, f.coeffs, 0.0))


def project_zero_x_mean(f: SpectralField) -> SpectralField:
    """Zero the xi = 0 coefficient line, making the field KP-admissible."""
    coeffs = f.coeffs.copy()
    coeffs[0, :] = 0.0
    return SpectralField(grid=f.grid, coeffs=coeffs)


def symbol(xi, eta):
    """P(xi, eta) = xi^3 - eta^2/xi pointwise; xi must be nonzero."""
    return xi ** 3 - eta ** 2 / xi


def dispersion_values(grid: Grid2D) -> np.ndarray:
    """The read-only (nx, ny) table of P(xi, eta) = xi^3 - eta^2/xi per
    mode, with 0 at xi = 0.

    Modes on the xi = 0 line are projected out before any use of the symbol,
    so the stored placeholder never influences an admissible field.
    """
    xi = grid.xi[:, None]
    nonzero = xi != 0.0
    values = np.where(nonzero, symbol(np.where(nonzero, xi, 1.0), grid.eta[None, :]), 0.0)
    values.setflags(write=False)
    return values


def l2_norm(f: SpectralField) -> float:
    """L^2(box) norm via Parseval."""
    return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2) * f.grid.cell_measure))
