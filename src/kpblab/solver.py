"""Picard iteration on the Duhamel formula for KPB-II, plus an ETD cross-check.

The mild formulation solved here is

    u(t) = W(t) phi - (1/2) * int_0^t W(t - t') d/dx(u^2(t')) dt',

discretised on a uniform time grid with trapezoidal quadrature for the
integral; the propagator W is applied exactly (diagonal multiplier) at every
quadrature node.  Picard iteration starts from the zero trajectory, so the
first iterate is exactly W(t) phi and the second iterate carries the first
nonlinear correction.

``solve_etd`` integrates the same dynamics with a second-order exponential
time differencing scheme (exact on the linear part) and serves as an
independent discretisation for cross-validation.

Every field evolved here is real, so its spectrum is Hermitian and half of
it determines the rest.  Both solvers work on the ``rfft2`` half spectrum,
shape (nx, ny//2 + 1): the columns ky = 0 .. ny/2 of the full (nx, ny)
array, with ``rfft2``/``irfft2`` as the transforms.  ``_full`` expands a
half spectrum by conjugate mirroring at the ``Trajectory`` boundary only:
``Trajectory``, ``picard_step``, ``nonlinearity`` and ``l2_history`` take and
return full spectra, and the solvers' trajectories are exactly Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .semigroup import _w_multiplier
from .spectral_core import Grid2D, SpectralField, dispersion_values

__all__ = [
    "Trajectory",
    "PicardReport",
    "nonlinearity",
    "picard_step",
    "solve_picard",
    "solve_etd",
    "l2_history",
]

_MIN_SOLVE_STEPS = 8  # smallest M (time steps) of a solve
_PHI_SERIES_CUTOFF = 1e-2  # |z| below which phi1, phi2 use their Taylor series


@dataclass(eq=False)
class Trajectory:
    """States on a uniform time grid t_0 = 0 < ... < t_M = T.

    ``coeffs`` has shape (M+1, nx, ny); row k holds the spectral coefficients
    of the state at ``times[k]``.
    """

    grid: Grid2D
    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("need at least two time samples")
        if self.times[0] != 0.0:
            raise ValueError("time grid must start at 0")
        steps = np.diff(self.times)
        if np.any(steps <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
            raise ValueError("time grid must be uniform")
        expected = (self.times.size, self.grid.nx, self.grid.ny)
        if self.coeffs.shape != expected:
            raise ValueError(f"state array shape {self.coeffs.shape} != {expected}")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    def state(self, k: int) -> SpectralField:
        return SpectralField(grid=self.grid, coeffs=self.coeffs[k])


@dataclass
class PicardReport:
    """Convergence record for one Picard solve."""

    iterations: int
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False


def _half(coeffs: np.ndarray, grid: Grid2D) -> np.ndarray:
    """The half-spectrum columns ky = 0 .. ny/2 of full coefficients (a view)."""
    return coeffs[..., :grid.ny // 2 + 1]


def _full(half: np.ndarray, ny: int, out: np.ndarray | None = None) -> np.ndarray:
    """Expand half spectra (..., nx, ny//2 + 1) to full (..., nx, ny) spectra.

    Column ky = -j is the conjugate of column j read at -kx.  The ky = 0 and
    Nyquist columns are their own mirrors: their kx < 0 rows are rebuilt
    from the kx > 0 rows and their self-conjugate modes kx = 0, -nx/2 keep
    only the real part, so the result is exactly Hermitian.
    """
    h = half.shape[-1]
    m = half.shape[-2] // 2
    if out is None:
        out = np.empty(half.shape[:-1] + (ny,), dtype=complex)
    out[..., :h] = half
    np.conjugate(half[..., :1, h - 2:0:-1], out=out[..., :1, h:])
    np.conjugate(half[..., :0:-1, h - 2:0:-1], out=out[..., 1:, h:])
    edges = out[..., ::h - 1]  # the ky = 0 and Nyquist columns (views)
    np.conjugate(edges[..., m - 1:0:-1, :], out=edges[..., m + 1:, :])
    edges[..., ::m, :].imag = 0.0
    return out


def _prepared_data(phi: SpectralField) -> np.ndarray:
    """Half spectrum of the dealiased, KP-projected initial data.

    Band-limiting the data to the dealias mask makes the semi-discrete energy
    identity <d/dx(u^2), u> = 0 exact, which is what keeps the discrete L^2
    history nonincreasing.
    """
    grid = phi.grid
    c = np.where(_half(grid.dealias_mask, grid), _half(phi.coeffs, grid), 0.0)
    c[0, :] = 0.0
    return c


def _dx_table(grid: Grid2D) -> np.ndarray:
    """Half-grid multiplier i xi, zero off the dealias mask and on xi = 0."""
    table = np.where(_half(grid.dealias_mask, grid), 1j * grid.xi[:, None], 0.0)
    table[0, :] = 0.0
    return table


def _dx_product(a: np.ndarray, b: np.ndarray, grid: Grid2D,
                table: np.ndarray) -> np.ndarray:
    """Half spectrum of d/dx(u v), dealiased and KP-projected, from the half
    spectra ``a`` of u and ``b`` of v; leading axes are a batch.  Passing the
    same array twice squares with one inverse transform.

    The grid's sign table is left out on both sides: it only shifts the
    samples by half a period, which commutes with the pointwise product.
    """
    shape = (grid.nx, grid.ny)
    u = np.fft.irfft2(a, s=shape)
    v = u if b is a else np.fft.irfft2(b, s=shape)
    w = np.fft.rfft2(u * v)
    w *= table
    return w


def _nonlin(half: np.ndarray, grid: Grid2D, table: np.ndarray) -> np.ndarray:
    """Half spectrum of d/dx(u^2), dealiased and KP-projected."""
    return _dx_product(half, half, grid, table)


def _dx_product_full(a: np.ndarray, b: np.ndarray, grid: Grid2D) -> np.ndarray:
    """``_dx_product`` for full spectra in and out (leading axes batch)."""
    ha = _half(a, grid)
    hb = ha if b is a else _half(b, grid)
    return _full(_dx_product(ha, hb, grid, _dx_table(grid)), grid.ny)


def nonlinearity(f: SpectralField) -> SpectralField:
    """Return the spectral field of d/dx(u^2) for the real field behind ``f``."""
    return SpectralField(grid=f.grid, coeffs=_dx_product_full(f.coeffs, f.coeffs, f.grid))


def _picard_tables(phi: SpectralField,
                   times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-solve invariants of a Picard update, on the half grid:
    W(t_k) phi for every k, the one-step factor W(dt), and ``_dx_table``."""
    grid = phi.grid
    P = _half(dispersion_values(grid).values, grid)
    phi_c = _prepared_data(phi)
    w_phi = np.empty((times.size,) + phi_c.shape, dtype=complex)
    w_phi[0] = phi_c
    for k in range(1, times.size):
        np.multiply(_w_multiplier(P, grid.xi[:, None], times[k]), phi_c, out=w_phi[k])
    w_dt = _w_multiplier(P, grid.xi[:, None], float(times[1] - times[0]))
    return w_phi, w_dt, _dx_table(grid)


def _picard_update(prev: np.ndarray, out: np.ndarray, grid: Grid2D, dt: float,
                   w_phi: np.ndarray, w_dt: np.ndarray, table: np.ndarray,
                   g_0: np.ndarray) -> None:
    """Write into ``out`` the Picard update of the half-spectrum iterate
    ``prev``, given g_0 = d/dx(prev[0]^2), which is left unchanged."""
    out[0] = w_phi[0]
    g_prev = g_0
    acc = np.zeros_like(w_phi[0])
    tmp = np.empty_like(acc)
    for k in range(1, len(prev)):
        g_k = _nonlin(prev[k], grid, table)
        # acc = W(dt) acc + (dt/2) (W(dt) g_{k-1} + g_k), in place
        acc *= w_dt
        np.multiply(g_prev, w_dt, out=tmp)
        tmp += g_k
        tmp *= 0.5 * dt
        acc += tmp
        np.multiply(acc, 0.5, out=tmp)
        np.subtract(w_phi[k], tmp, out=out[k])
        g_prev = g_k


def picard_step(prev: Trajectory, phi: SpectralField) -> Trajectory:
    """One Picard update: insert ``prev`` into the Duhamel right-hand side.

    next(t_k) = W(t_k) phi - (1/2) * trapezoid over [0, t_k] of
    W(t_k - t') d/dx(prev(t')^2).  The running integral A_k satisfies the
    recurrence A_k = W(dt) A_{k-1} + (dt/2) (W(dt) g_{k-1} + g_k) with
    g_j = d/dx(prev(t_j)^2), which reproduces the trapezoid weights while
    only ever applying the one-step propagator.
    """
    grid = prev.grid
    w_phi, w_dt, table = _picard_tables(phi, prev.times)
    half = _half(prev.coeffs, grid)
    out = np.empty_like(w_phi)
    _picard_update(half, out, grid, prev.dt, w_phi, w_dt, table,
                   _nonlin(half[0], grid, table))
    return Trajectory(grid=grid, times=prev.times, coeffs=_full(out, grid.ny))


def _half_energy(half: np.ndarray) -> np.ndarray:
    """Per-row sum of |c|^2 over the full spectra behind half spectra
    (K, nx, ny//2 + 1): Parseval column weight 1 for ky = 0 and the Nyquist
    column, 2 for the others, whose mirrors the half spectrum omits."""
    weights = np.full(2 * half.shape[-1], 2.0)
    weights[:2] = weights[-2:] = 1.0
    v = half.view(np.float64)
    return np.einsum("kij,kij,j->k", v, v, weights)


def l2_history(traj: Trajectory) -> np.ndarray:
    """Per-time L^2 norms of the trajectory states (Parseval)."""
    c = np.ascontiguousarray(traj.coeffs, dtype=complex)
    v = c.reshape(c.shape[0], -1).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", v, v) * traj.grid.cell_measure)


def _time_grid(T: float, M: int) -> np.ndarray:
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if M < _MIN_SOLVE_STEPS:
        raise ValueError(f"M must be >= {_MIN_SOLVE_STEPS}, got {M}")
    return np.linspace(0.0, T, M + 1)


def solve_picard(phi: SpectralField, T: float, M: int, tol: float = 1e-10,
                 max_iter: int = 25) -> tuple[Trajectory, PicardReport]:
    """Iterate ``picard_step`` from the zero trajectory until the sup-in-time
    L^2 difference of successive iterates drops below ``tol``.

    The iterates stay on the half grid and only the last one is expanded.
    Non-convergence within ``max_iter`` is reported, not raised; a
    non-finite residual ends the iteration at once, unconverged.
    """
    times = _time_grid(T, M)
    if not tol > 0:  # written so that NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    grid = phi.grid
    dt = float(times[1] - times[0])
    w_phi, w_dt, table = _picard_tables(phi, times)
    # Row 0 of every iterate is the datum, so every update shares
    # g_0 = d/dx(phi^2).
    g_0 = _nonlin(w_phi[0], grid, table)
    prev = np.zeros_like(w_phi)
    nxt = np.empty_like(w_phi)
    report = PicardReport(iterations=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if report.iterations == 0:
                nxt[...] = w_phi  # d/dx(0^2) = 0: the update of the zero start
            else:
                _picard_update(prev, nxt, grid, dt, w_phi, w_dt, table, g_0)
            prev -= nxt  # prev is free now: it holds the difference
            res = float(np.sqrt(np.max(_half_energy(prev) * grid.cell_measure)))
            prev, nxt = nxt, prev
            report.iterations += 1
            report.residual_history.append(res)
            if res <= tol:
                report.converged = True
                break
            if not math.isfinite(res):
                break
    return Trajectory(grid=grid, times=times, coeffs=_full(prev, grid.ny)), report


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with a series branch near 0 to avoid cancellation."""
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs = np.where(small, z, 0.0)
    series = 1.0 + zs / 2 + zs ** 2 / 6 + zs ** 3 / 24 + zs ** 4 / 120 + zs ** 5 / 720
    zb = np.where(small, 1.0, z)
    direct = (np.exp(zb) - 1.0) / zb
    return np.where(small, series, direct)


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2 with a series branch near 0."""
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs = np.where(small, z, 0.0)
    series = 0.5 + zs / 6 + zs ** 2 / 24 + zs ** 3 / 120 + zs ** 4 / 720 + zs ** 5 / 5040
    zb = np.where(small, 1.0, z)
    direct = (np.exp(zb) - 1.0 - zb) / zb ** 2
    return np.where(small, series, direct)


def solve_etd(phi: SpectralField, T: float, M: int,
              include_nonlinearity: bool = True) -> Trajectory:
    """Second-order exponential time differencing (ETD2RK) for the same dynamics.

    Per step, with L = iP - xi^2 and N(u) = -(1/2) d/dx(u^2):

        a       = e^{dt L} u_n + dt * phi1(dt L) * N(u_n)
        u_{n+1} = a + dt * phi2(dt L) * (N(a) - N(u_n))

    The linear part is propagated exactly, so with the nonlinearity switched
    off the scheme reproduces W(t_k) phi to rounding accuracy.  Stepping
    stops at the first non-finite state; the rows after it are NaN.
    """
    grid = phi.grid
    times = _time_grid(T, M)
    dt = float(times[1])
    P = _half(dispersion_values(grid).values, grid)
    L = 1j * P - (grid.xi ** 2)[:, None]
    E = _w_multiplier(P, grid.xi[:, None], dt)
    f1 = dt * _phi1(dt * L)
    f2 = dt * _phi2(dt * L)
    table = _dx_table(grid)

    def rhs(c: np.ndarray) -> np.ndarray:
        return -0.5 * _nonlin(c, grid, table)

    out = np.empty((M + 1, grid.nx, grid.ny), dtype=complex)
    u = _prepared_data(phi)
    _full(u, grid.ny, out=out[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, M + 1):
            if include_nonlinearity:
                n0 = rhs(u)
                a = E * u + f1 * n0
                u = a + f2 * (rhs(a) - n0)
            else:
                u = E * u
            _full(u, grid.ny, out=out[k])
            if not np.all(np.isfinite(u)):
                out[k + 1:] = np.nan
                break
    return Trajectory(grid=grid, times=times, coeffs=out)
