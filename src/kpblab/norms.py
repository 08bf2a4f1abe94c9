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
sigma is reduced modulo the tau-grid period into [-pi/dt, pi/dt)
(``wrapped_sigma``) so the modulation weight is evaluated on the same
aliased bins the transform actually populates.

The time-dependent norms transform a trajectory's mode form (``modes``):
only the modes that are nonzero at some time, and an exact conjugate pair
once, on its first mode, counted twice.  Both are exact.  A mode that is
zero at every time has a zero time transform, so with the (finite) weights
above it adds 0 to every weighted sum.  A Hermitian trajectory,
u(t, -k) = conj(u(t, k)), has uhat(tau, -k) = conj(uhat(-tau, k)), and the
weights agree at (tau, -k) and (-tau, k): they are even in xi, eta and
tau, and sigma changes sign because P is odd.  The solver's and the free
trajectories are exactly Hermitian, so they are transformed on their
Hermitian half.

A ``WindowedPower`` is the windowed transform's power of a mode form
(``WindowedPower.of_modes``, or ``of`` for an in-memory trajectory), and
its ``spacetime``, ``bourgain`` and ``gap`` methods are the three
time-dependent norms, so one transform serves all three.  ``kpblab norms``
builds the form of a saved trajectory from the band states of
``states.npz`` (``solver.band_form``) and calls ``of_modes``.
``spacetime_norm``, ``bourgain_norm`` and ``equivalence_gap`` are the
methods on the power of one in-memory trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modes import ModeForm
from .spectral_core import Grid2D, SpectralField, dispersion_values
from .solver import Trajectory

__all__ = [
    "WindowedPower",
    "sobolev_norm",
    "spacetime_norm",
    "bourgain_norm",
    "equivalence_gap",
]

MIN_STEPS = 16
TAPER_FRACTION = 0.2  # total cosine fraction; 10% at each end
_TRANSFORM_BLOCK = 2 ** 20  # bytes of tapered samples transformed at a time


def time_window(n: int) -> np.ndarray:
    """The fixed taper applied before every time transform.

    The symmetric Tukey window of ``scipy.signal.windows.tukey(n,
    alpha=TAPER_FRACTION)``, evaluated with the same three-segment formula
    so the values are bit-identical (a cosine rise, ones, a cosine fall).
    """
    if n < 2:
        return np.ones(n)
    alpha = TAPER_FRACTION
    k = np.arange(n, dtype=float)
    width = int(math.floor(alpha * (n - 1) / 2.0))
    w = np.ones(n)
    head = k[:width + 1]
    tail = k[n - width - 1:]
    w[:width + 1] = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * head / alpha / (n - 1))))
    w[n - width - 1:] = 0.5 * (1 + np.cos(
        np.pi * (-2.0 / alpha + 1 + 2.0 * tail / alpha / (n - 1))))
    return w


def check_steps(n_times: int) -> None:
    """Raise ``ValueError`` unless ``n_times`` samples make the ``MIN_STEPS``
    time steps that every time-dependent norm needs."""
    if n_times - 1 < MIN_STEPS:
        raise ValueError(
            f"time-dependent norms need at least {MIN_STEPS} time steps, "
            f"got {n_times - 1}")


def sobolev_weight(grid, s1: float, s2: float) -> np.ndarray:
    wx = (1.0 + grid.xi ** 2) ** s1
    wy = (1.0 + grid.eta ** 2) ** s2
    return wx[:, None] * wy[None, :]


def sobolev_norm(f: SpectralField, s1: float, s2: float) -> float:
    """H^{s1,s2} norm: weighted Parseval sum."""
    w = sobolev_weight(f.grid, s1, s2)
    total = np.sum(w * np.abs(f.coeffs) ** 2) * f.grid.cell_measure
    return float(np.sqrt(total))


def _bin_frequencies(n_t: int, dt: float) -> np.ndarray:
    """tau, the FFT bin frequencies of ``n_t`` samples ``dt`` apart."""
    return 2.0 * np.pi * np.fft.fftfreq(n_t, d=dt)


def taper_transform(columns: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(tau, uhat) for time samples ``columns`` of shape (n_t, n_cols), which
    are left unchanged: tau the FFT bin frequencies and uhat =
    dt * FFT_t(window * columns), transformed in place in a tapered copy of
    the samples.  Each column gets its own 1-D transform, so a block of
    columns transforms bit for bit as it does among all of them."""
    n_t = columns.shape[0]
    uhat = np.multiply(columns, time_window(n_t)[:, None], dtype=complex)
    np.fft.fft(uhat, axis=0, out=uhat)
    uhat *= dt
    return _bin_frequencies(n_t, dt), uhat


def _squared_modulus_into(out: np.ndarray, uhat: np.ndarray) -> None:
    """Write |uhat|^2 into ``out``, a block of columns of a larger array.
    It is taken half the rows of ``uhat`` at a time, in a contiguous
    scratch that is then copied into ``out``: numpy runs a strided output
    through buffered loops.  The scratch, a quarter of ``uhat``'s bytes,
    is allocated after the transform has released its own buffers."""
    half = -(-len(uhat) // 2)
    scratch = np.empty((half, uhat.shape[1]))
    for t in range(0, len(uhat), half):
        rows = uhat[t:t + half]
        square = np.abs(rows, out=scratch[:len(rows)])
        square **= 2
        out[t:t + half] = square


def wrapped_sigma(tau: np.ndarray, P: np.ndarray, dt: float) -> np.ndarray:
    """sigma = tau - P on (tau, P), tau the bin frequencies of samples
    ``dt`` apart and P the symbol on a mode form's columns, reduced into
    the principal tau band [-pi/dt, pi/dt)."""
    sigma = tau[:, None] - P[None, :]
    half_band = np.pi / dt
    sigma += half_band
    np.mod(sigma, 2.0 * half_band, out=sigma)
    sigma -= half_band
    return sigma


def _on_modes(table: np.ndarray, grid, cols: np.ndarray) -> np.ndarray:
    """A per-mode table (anything that broadcasts to (nx, ny)) at the flat
    mode indices ``cols``."""
    return np.broadcast_to(table, (grid.nx, grid.ny)).reshape(-1)[cols]


@dataclass(eq=False)
class WindowedPower:
    """The power |uhat|^2 (n_times, cols.size) of a windowed time transform
    on the flat modes ``cols`` of a mode form, each of which counts
    ``colw`` times in a weighted sum, at the bin frequencies ``tau``.
    uhat = dt * FFT_t(window * states), normalised so that
    sum_j |uhat_j|^2 / (n_times * dt) is the quadrature of the windowed
    squared time signal.

    ``sigma`` is None after construction, and ``bourgain`` and ``gap``
    then each wrap sigma = tau - P on ``cols`` themselves
    (``wrapped_sigma``).  A caller that already holds that array for
    these bins and columns may set it: the verify suites share one per
    suite among the free evolutions of their cases.  The methods read it
    and never write it.
    """

    grid: Grid2D
    dt: float
    n_times: int
    tau: np.ndarray
    power: np.ndarray
    cols: np.ndarray
    colw: np.ndarray
    sigma: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def of(cls, traj: Trajectory) -> WindowedPower:
        """The windowed power of ``traj``'s mode form, gathered from the
        array of ``traj.coeffs``' time rows (``ModeForm.gather``)."""
        form = ModeForm.gather(traj.grid, traj.coeffs.reshape(traj.n_times, -1))
        return cls.of_modes(form, traj.dt)

    @classmethod
    def of_modes(cls, form: ModeForm, dt: float) -> WindowedPower:
        """The windowed power of the mode form ``form`` sampled every
        ``dt``, whose time steps are counted first (``check_steps``).  The
        form is left unchanged.  ``power`` is allocated once, and blocks of
        about ``_TRANSFORM_BLOCK`` bytes of columns are tapered and
        transformed (``taper_transform``) one at a time, and each squared
        modulus is copied into its columns of ``power``
        (``_squared_modulus_into``); so no complex copy of the whole form
        is made, and the bits are those of one block.
        """
        values = form.values
        n_t = len(values)
        check_steps(n_t)
        power = np.empty(values.shape)
        step = max(1, _TRANSFORM_BLOCK // (16 * n_t))
        for start in range(0, values.shape[1], step):
            _squared_modulus_into(power[:, start:start + step],
                                  taper_transform(values[:, start:start + step], dt)[1])
        return cls(form.grid, dt, n_t, _bin_frequencies(n_t, dt), power,
                   form.cols, form.colw)

    def _sobolev(self, s1: float, s2: float) -> np.ndarray:
        """The H^{s1,s2} weight on the modes ``cols``, times ``colw``."""
        weight = sobolev_weight(self.grid, s1, s2)
        return _on_modes(weight, self.grid, self.cols) * self.colw

    def _squared_sum(self, weight: np.ndarray) -> float:
        """mu * sum(weight * power); ``weight`` is overwritten."""
        mu = self.grid.cell_measure / (self.n_times * self.dt)
        weight *= self.power
        return float(np.sum(weight) * mu)

    def _sigma_weight(self) -> np.ndarray:
        """1 + sigma^2 on (tau, cols), in a new array: sigma is ``sigma``
        when it is set, and is wrapped here (``wrapped_sigma``) when not."""
        if self.sigma is None:
            P = _on_modes(dispersion_values(self.grid), self.grid, self.cols)
            weight = wrapped_sigma(self.tau, P, self.dt)
            weight **= 2
        else:
            weight = np.square(self.sigma)
        weight += 1.0
        return weight

    def spacetime(self, b: float, s1: float, s2: float) -> float:
        """H^{b,s1,s2} norm of the tapered trajectory."""
        wt = (1.0 + self.tau ** 2) ** b
        ws = self._sobolev(s1, s2)
        return float(np.sqrt(self._squared_sum(wt[:, None] * ws[None, :])))

    def bourgain(self, b: float, s1: float, s2: float) -> float:
        """X^{b,s1,s2} norm with sigma = tau - P(nu) per (tau, nu) bin."""
        weight = self._sigma_weight()
        xi4 = _on_modes((self.grid.xi ** 4)[:, None], self.grid, self.cols)[None, :]
        # (1 + sigma^2 + xi^4)^b (1 + xi^2)^s1 (1 + eta^2)^s2, in place
        weight += xi4
        weight **= b
        weight *= self._sobolev(s1, s2)[None, :]
        return float(np.sqrt(self._squared_sum(weight)))

    def gap(self, b: float, s1: float, s2: float) -> float:
        """Ratio X^{b,s1,s2} / (||U(-t)u||_{H^{b,s1,s2}} + ||u||_{L^2_t H^{s1+2b,s2}}).

        All three terms come from the one windowed transform: conjugating
        by the free group exactly shifts tau to sigma on the discrete bins,
        so the first denominator term carries weight (1+sigma^2)^b and the
        second (1+xi^2)^{2b}.  The weight splitting (1+sigma^2+xi^4)^b vs
        the two-term sum pins the ratio inside fixed bounds (within
        [1/3, 3] for |b| <= 1/2).  Both sides zero returns 1 by convention.
        """
        ws = self._sobolev(s1, s2)[None, :]
        xi2 = _on_modes((self.grid.xi ** 2)[:, None], self.grid, self.cols)[None, :]
        shifted_w = self._sigma_weight()
        weight = shifted_w + xi2 ** 2
        weight **= b
        weight *= ws
        full = self._squared_sum(weight)
        shifted_w **= b
        shifted_w *= ws
        shifted = self._squared_sum(shifted_w)
        weight[...] = (1.0 + xi2) ** (2.0 * b) * ws
        elliptic = self._squared_sum(weight)

        denom = np.sqrt(shifted) + np.sqrt(elliptic)
        numer = np.sqrt(full)
        if denom == 0.0 and numer == 0.0:
            return 1.0
        return float(numer / denom)


def spacetime_norm(traj: Trajectory, b: float, s1: float, s2: float) -> float:
    """H^{b,s1,s2} norm of the tapered trajectory (``WindowedPower.spacetime``)."""
    return WindowedPower.of(traj).spacetime(b, s1, s2)


def bourgain_norm(traj: Trajectory, b: float, s1: float, s2: float) -> float:
    """X^{b,s1,s2} norm of the tapered trajectory (``WindowedPower.bourgain``)."""
    return WindowedPower.of(traj).bourgain(b, s1, s2)


def equivalence_gap(traj: Trajectory, b: float, s1: float, s2: float) -> float:
    """The equivalence-gap ratio of the tapered trajectory (``WindowedPower.gap``)."""
    return WindowedPower.of(traj).gap(b, s1, s2)
