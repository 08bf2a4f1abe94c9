"""Anisotropic Sobolev, space-time, and Bourgain norms on discrete fields.

Squared-norm weight tables (per mode, multiplying |coeff|^2):

    H^{s1,s2}    : (1+xi^2)^{s1} (1+eta^2)^{s2}
    H^{b,s1,s2}  : (1+tau^2)^{b} (1+xi^2)^{s1} (1+eta^2)^{s2}
    X^{b,s1,s2}  : (1+sigma^2+xi^4)^{b} (1+xi^2)^{s1} (1+eta^2)^{s2},
                   sigma = tau - P(nu)

since <i sigma + xi^2>^2 = 1 + sigma^2 + xi^4 literally.  Time-dependent
norms apply a fixed raised-cosine taper (Tukey window, 10% of the interval
at each end) before the discrete time transform; this replaces the
non-computable infimum over extensions of the restricted norm, and every
comparison in this package uses the same window so ratios are like-to-like.

The discrete time-frequency grid is tau_j = 2*pi*j/(M*dt) (FFT bins), and
sigma is reduced modulo the tau-grid period into [-pi/dt, pi/dt) so the
modulation weight is evaluated on the same aliased bins the transform
actually populates.

The time-dependent norms transform and weight only the modes that are
nonzero at some time.  Skipping the others is exact: a mode that is zero at
every time has a zero time transform, so with the (finite) weights above it
adds 0 to every weighted sum.  Band-limited fields occupy a few percent of
the grid and dealiased solver states under half of it.

Trajectories of real fields are Hermitian, u(t, -k) = conj(u(t, k)), and
then their transform satisfies uhat(tau, -k) = conj(uhat(-tau, k)).  The
weights agree at (tau, -k) and (-tau, k): they are even in xi, eta and tau,
and sigma changes sign because P is odd.  So a conjugate pair whose mirror
equals the conjugate of its first mode bit for bit at every time is
transformed once, on the first mode, and counted twice (Parseval weight 2).
Every other occupied mode is transformed once with weight 1: the
self-conjugate modes, pairs that are not exact (one holding NaN included)
and modes whose mirror is unoccupied.  The kx = -nx/2 row is never paired:
the mirror of (-nx/2, ky) is (-nx/2, -ky) on the grid, with the same xi, so
P is even along that row and sigma = tau - P does not mirror.  The solver's
and the free trajectories are exactly Hermitian, so they are transformed on
their Hermitian half.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral_core import SpectralField, dispersion_values
from .solver import Trajectory

__all__ = [
    "sobolev_norm",
    "spacetime_norm",
    "bourgain_norm",
    "equivalence_gap",
]

_MIN_STEPS = 16
_TAPER_FRACTION = 0.2  # total cosine fraction; 10% at each end


def time_window(n: int) -> np.ndarray:
    """The fixed taper applied before every time transform.

    The symmetric Tukey window of ``scipy.signal.windows.tukey(n,
    alpha=_TAPER_FRACTION)``, evaluated with the same three-segment formula
    so the values are bit-identical (a cosine rise, ones, a cosine fall).
    """
    if n < 2:
        return np.ones(n)
    alpha = _TAPER_FRACTION
    k = np.arange(n, dtype=float)
    width = int(math.floor(alpha * (n - 1) / 2.0))
    w = np.ones(n)
    head = k[:width + 1]
    tail = k[n - width - 1:]
    w[:width + 1] = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * head / alpha / (n - 1))))
    w[n - width - 1:] = 0.5 * (1 + np.cos(
        np.pi * (-2.0 / alpha + 1 + 2.0 * tail / alpha / (n - 1))))
    return w


def sobolev_weight(grid, s1: float, s2: float) -> np.ndarray:
    wx = (1.0 + grid.xi ** 2) ** s1
    wy = (1.0 + grid.eta ** 2) ** s2
    return wx[:, None] * wy[None, :]


def sobolev_norm(f: SpectralField, s1: float, s2: float) -> float:
    """H^{s1,s2} norm: weighted Parseval sum."""
    w = sobolev_weight(f.grid, s1, s2)
    total = np.sum(w * np.abs(f.coeffs) ** 2) * f.grid.cell_measure
    return float(np.sqrt(total))


def _check_time_samples(traj: Trajectory) -> None:
    if traj.n_times - 1 < _MIN_STEPS:
        raise ValueError(
            f"time-dependent norms need at least {_MIN_STEPS} time steps, "
            f"got {traj.n_times - 1}")


def _taper_transform(columns: np.ndarray,
                     dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(tau, uhat) for time samples ``columns`` of shape (n_t, n_cols), which
    are tapered in place: tau the FFT bin frequencies and uhat =
    dt * FFT_t(window * columns)."""
    n_t = columns.shape[0]
    columns *= time_window(n_t)[:, None]
    uhat = np.fft.fft(columns, axis=0)
    uhat *= dt
    tau = 2.0 * np.pi * np.fft.fftfreq(n_t, d=dt)
    return tau, uhat


def windowed_time_transform(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Taper the trajectory in time and apply the discrete time transform.

    Returns (tau, uhat) with tau the FFT bin frequencies (shape (n_t,)) and
    uhat = dt * FFT_t(window * states) of shape (n_t, nx, ny), normalised so
    that sum_j |uhat_j|^2 / (n_t * dt) is the quadrature of the windowed
    squared time signal.  Every mode is transformed; the norms transform
    only the columns ``_windowed_power`` picks.
    """
    tau, uhat = _taper_transform(traj.coeffs.reshape(traj.n_times, -1).copy(), traj.dt)
    return tau, uhat.reshape(traj.coeffs.shape)


def _on_modes(table: np.ndarray, grid, cols: np.ndarray) -> np.ndarray:
    """A per-mode table (anything that broadcasts to (nx, ny)) at the flat
    mode indices ``cols``."""
    return np.broadcast_to(table, (grid.nx, grid.ny)).reshape(-1)[cols]


def _mode_pairs(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat mode indices (first, mirror) of the conjugate pairs of an nx x ny grid.

    first[i] and mirror[i], the flat index of -first[i], are a conjugate
    pair whose weights agree at tau and -tau.  The modes that are never
    paired are the self-conjugate ones and the whole kx = -nx/2 row.
    """
    mirror = (((-np.arange(nx)) % nx)[:, None] * ny
              + ((-np.arange(ny)) % ny)[None, :]).reshape(-1)
    index = np.arange(nx * ny)
    first = index < mirror
    first[(nx // 2) * ny:(nx // 2 + 1) * ny] = False
    return np.flatnonzero(first), mirror[first]


_PAIR_BLOCK = 2 ** 14  # complex values per gathered block of the pair check


def _windowed_power(traj: Trajectory) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
    """(tau, |uhat|^2, cols, colw): the windowed transform's power on the
    flat modes ``cols``, each of which counts colw times in a weighted sum.

    Each occupied mode is transformed once.  An exact pair, an occupied
    first mode whose mirror equals its conjugate bit for bit at every time,
    is transformed on the first mode with weight 2; every other occupied
    mode with weight 1.  cols lists the exact first modes, then the other
    occupied modes in flat order.  The pairs are compared over blocks of
    time rows, so the check holds no full-size copy of the mirrors, and the
    complex transform is released once its squared modulus is formed.
    """
    flat = traj.coeffs.reshape(traj.n_times, -1)
    occupied = np.any(flat, axis=0)
    first, mirror = _mode_pairs(traj.grid.nx, traj.grid.ny)
    paired = occupied[first]
    first, mirror = first[paired], mirror[paired]
    exact = np.ones(first.size, dtype=bool)
    step = max(1, _PAIR_BLOCK // max(first.size, 1))
    for t in range(0, traj.n_times, step):
        rows = flat[t:t + step]
        mirrored = np.take(rows, mirror, axis=1)
        exact &= np.all(np.take(rows, first, axis=1)
                        == np.conjugate(mirrored, out=mirrored), axis=0)
    first = first[exact]
    rest = occupied  # the occupied modes outside the exact pairs
    rest[first] = False
    rest[mirror[exact]] = False
    cols = np.concatenate((first, np.flatnonzero(rest)))
    colw = np.ones(cols.size)
    colw[:first.size] = 2.0
    tau, uhat = _taper_transform(np.take(flat, cols, axis=1), traj.dt)
    power = np.abs(uhat)
    power **= 2
    return tau, power, cols, colw


def _sobolev_on(traj: Trajectory, s1: float, s2: float, cols: np.ndarray,
                colw: np.ndarray) -> np.ndarray:
    """The H^{s1,s2} weight on the modes ``cols``, times their weights ``colw``."""
    return _on_modes(sobolev_weight(traj.grid, s1, s2), traj.grid, cols) * colw


def _squared_sum(traj: Trajectory, weight: np.ndarray, power: np.ndarray) -> float:
    """mu * sum(weight * power); ``weight``, shaped like ``power``, is overwritten."""
    mu = traj.grid.cell_measure / (traj.n_times * traj.dt)
    weight *= power
    return float(np.sum(weight) * mu)


def spacetime_norm(traj: Trajectory, b: float, s1: float, s2: float) -> float:
    """H^{b,s1,s2} norm of the tapered trajectory."""
    _check_time_samples(traj)
    tau, power, cols, colw = _windowed_power(traj)
    wt = (1.0 + tau ** 2) ** b
    ws = _sobolev_on(traj, s1, s2, cols, colw)
    return float(np.sqrt(_squared_sum(traj, wt[:, None] * ws[None, :], power)))


def _wrapped_sigma(traj: Trajectory, tau: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sigma = tau - P(nu) on the modes ``cols``, reduced into the principal
    tau band [-pi/dt, pi/dt)."""
    P = _on_modes(dispersion_values(traj.grid).values, traj.grid, cols)
    sigma = tau[:, None] - P[None, :]
    half_band = np.pi / traj.dt
    sigma += half_band
    np.mod(sigma, 2.0 * half_band, out=sigma)
    sigma -= half_band
    return sigma


def bourgain_norm(traj: Trajectory, b: float, s1: float, s2: float) -> float:
    """X^{b,s1,s2} norm with sigma = tau - P(nu) per (tau, nu) bin."""
    _check_time_samples(traj)
    tau, power, cols, colw = _windowed_power(traj)
    weight = _wrapped_sigma(traj, tau, cols)
    xi4 = _on_modes((traj.grid.xi ** 4)[:, None], traj.grid, cols)[None, :]
    # (1 + sigma^2 + xi^4)^b (1 + xi^2)^s1 (1 + eta^2)^s2, in place
    weight **= 2
    weight += 1.0
    weight += xi4
    weight **= b
    weight *= _sobolev_on(traj, s1, s2, cols, colw)[None, :]
    return float(np.sqrt(_squared_sum(traj, weight, power)))


def equivalence_gap(traj: Trajectory, b: float, s1: float, s2: float) -> float:
    """Ratio X^{b,s1,s2} / (||U(-t)u||_{H^{b,s1,s2}} + ||u||_{L^2_t H^{s1+2b,s2}}).

    All three terms are evaluated from one windowed transform: conjugating by
    the free group exactly shifts tau to sigma on the discrete bins, so the
    first denominator term carries weight (1+sigma^2)^b and the second
    (1+xi^2)^{2b}.  The weight splitting (1+sigma^2+xi^4)^b vs the two-term
    sum pins the ratio inside fixed bounds (within [1/3, 3] for |b| <= 1/2).
    Both sides zero returns 1 by convention.
    """
    _check_time_samples(traj)
    tau, power, cols, colw = _windowed_power(traj)
    ws = _sobolev_on(traj, s1, s2, cols, colw)[None, :]
    xi2 = _on_modes((traj.grid.xi ** 2)[:, None], traj.grid, cols)[None, :]
    shifted_w = _wrapped_sigma(traj, tau, cols)
    shifted_w **= 2
    shifted_w += 1.0  # 1 + sigma^2
    weight = shifted_w + xi2 ** 2
    weight **= b
    weight *= ws
    full = _squared_sum(traj, weight, power)
    shifted_w **= b
    shifted_w *= ws
    shifted = _squared_sum(traj, shifted_w, power)
    weight[...] = (1.0 + xi2) ** (2.0 * b) * ws
    elliptic = _squared_sum(traj, weight, power)

    denom = np.sqrt(shifted) + np.sqrt(elliptic)
    numer = np.sqrt(full)
    if denom == 0.0 and numer == 0.0:
        return 1.0
    return float(numer / denom)
