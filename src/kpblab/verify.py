"""Randomized numeric checks of the linear and bilinear estimates.

Each check evaluates a left-hand/right-hand norm ratio on concrete inputs and
reports the max and median over a seeded suite; stability of the max under
resolution refinement is the computable surrogate for "the constant C exists
and is finite".  A violation (positive numerator over a zero denominator)
would falsify the estimate; suites count such events and the contract is that
none occur.

The time cutoff psi is the C^1 bump equal to 1 on [-1, 1], cos^2-tapered to 0
on 1 <= |t| <= 2, and 0 outside [-2, 2].  Trajectories are built on [0, 4]
with the cutoff centred at t = 2, so psi(t-2) W(t-2) phi covers the support
of psi exactly; time shifts leave every windowed norm unchanged.

Random fields are band-limited to integer modes |k| <= 8 with complex
Gaussian coefficients damped by a power-law decay exponent drawn from
{0, 1, 2}, Hermitian-symmetrized and KP-projected.  The generator fixes
continuum-normalized hat values on the mode box, so the same draw embeds as
the identical physical field on any refinement of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .norms import _on_modes, _taper_transform, bourgain_norm, sobolev_norm
from .semigroup import _w_multiplier
from .solver import Trajectory, _dx_product_full
from .spectral_core import Grid2D, SpectralField, dispersion_values, make_grid

__all__ = [
    "RatioReport",
    "psi_cutoff",
    "random_field",
    "free_trajectory",
    "free_estimate_ratio",
    "smoothing_ratio",
    "bilinear_ratio",
    "free_suite",
    "smoothing_suite",
    "bilinear_suite",
    "run_suite",
]

_BAND = 8
_XI_SWEEP = (0.0, 1.0, 4.0, 16.0)
_DELTA_SWEEP = (0.1, 0.25, 0.5)
_B_SWEEP = (0.0, 0.25, 0.5)
_S1_SWEEP = (-0.4, -0.2, 0.0)


@dataclass(frozen=True)
class RatioReport:
    """Aggregate of one randomized estimate suite."""

    estimate_id: str
    samples: int
    max_ratio: float
    median_ratio: float
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.max_ratio >= self.median_ratio >= 0.0):
            raise ValueError("require max_ratio >= median_ratio >= 0")


def psi_cutoff(t):
    """C^1 cutoff: 1 on [-1,1], cos^2 taper on 1<=|t|<=2, 0 outside."""
    t = np.abs(np.asarray(t, dtype=float))
    taper = np.cos(0.5 * np.pi * (t - 1.0)) ** 2
    return np.where(t <= 1.0, 1.0, np.where(t < 2.0, taper, 0.0))


def random_field(grid: Grid2D, rng: np.random.Generator,
                 decay: int | None = None) -> SpectralField:
    """Band-limited Hermitian random field, KP-projected.

    Continuum hat values are drawn on the integer-mode box |k| <= 8 and
    converted to grid coefficients, so refining the grid reproduces the same
    physical field exactly.
    """
    if decay is None:
        decay = int(rng.integers(0, 3))
    n = 2 * _BAND + 1
    draw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kx = np.arange(-_BAND, _BAND + 1)
    ky = np.arange(-_BAND, _BAND + 1)
    xi = (np.pi / grid.Lx) * kx
    eta = (np.pi / grid.Ly) * ky
    weight = (1.0 + xi[:, None] ** 2 + eta[None, :] ** 2) ** (-0.5 * decay)
    hat = draw * weight
    hat = 0.5 * (hat + np.conj(hat[::-1, ::-1]))  # Hermitian symmetrization
    hat[_BAND, :] = 0.0  # KP projection: no xi = 0 content

    coeffs = np.zeros((grid.nx, grid.ny), dtype=complex)
    coeffs[np.ix_(kx % grid.nx, ky % grid.ny)] = hat / (grid.dx * grid.dy)
    return SpectralField(grid=grid, coeffs=coeffs)


def free_trajectory(phi: SpectralField, T: float, M: int,
                    cutoff: bool = True) -> Trajectory:
    """psi(t - T/2) W(t - T/2) phi sampled on [0, T] (cutoff optional).

    W acts mode by mode, so only the modes where phi is nonzero are
    evaluated, all times at once; every other mode stays exactly zero.
    """
    grid = phi.grid
    times = np.linspace(0.0, T, M + 1)
    shifted = (times - 0.5 * T)[:, None]
    amp = psi_cutoff(shifted) if cutoff else 1.0
    coeffs = phi.coeffs.reshape(-1)
    cols = np.flatnonzero(coeffs)
    P = _on_modes(dispersion_values(grid).values, grid, cols)
    xi = _on_modes(grid.xi[:, None], grid, cols)
    out = np.zeros((M + 1, grid.nx * grid.ny), dtype=complex)
    out[:, cols] = amp * _w_multiplier(P, xi, shifted) * coeffs[cols]
    return Trajectory(grid=grid, times=times, coeffs=out.reshape(M + 1, grid.nx, grid.ny))


def free_estimate_ratio(phi: SpectralField, b: float, s1: float, s2: float,
                        M: int = 48) -> float:
    """||psi(t) W(t) phi||_{X^{b,s1,s2}} / ||phi||_{H^{s1+2b-1,s2}}."""
    if not 0.0 <= b <= 0.5:
        raise ValueError(f"b must be in [0, 1/2], got {b}")
    denom = sobolev_norm(phi, s1 + 2.0 * b - 1.0, s2)
    if denom == 0.0:
        return 0.0
    traj = free_trajectory(phi, T=4.0, M=M)
    return bourgain_norm(traj, b, s1, s2) / denom


def _y_norm(samples: np.ndarray, dt: float, xi: float, b: float) -> float:
    """Y^b_xi norm of a windowed time signal: weight (1 + tau^2 + xi^4)^b."""
    n = samples.size
    tau, ghat = _taper_transform(samples[:, None].copy(), dt)
    w = (1.0 + tau ** 2 + xi ** 4) ** b
    return math.sqrt(float(np.sum(w[:, None] * np.abs(ghat) ** 2)) / (n * dt))


def smoothing_ratio(f_samples: np.ndarray, xi: float, delta: float) -> float:
    """||K_xi||_{Y^{1/2}} / (<xi>^{-2 delta} ||f||_{Y^{-1/2+delta}}).

    ``f_samples`` holds time samples of f on a uniform grid over [-2, 2]
    (odd length, so t = 0 is a node).  K_xi(t) = psi(t) int_0^t
    e^{-|t-t'| xi^2} f(t') dt' is the trapezoid rule on the sample grid,
    accumulated walking out from t = 0 on each side: with a = e^{-dt xi^2},
    the sum one node further out is A' = a A + (dt/2)(a f + f'), and K is
    -A for t < 0.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    f = np.asarray(f_samples, dtype=complex)
    if f.ndim != 1 or f.size < 17 or f.size % 2 == 0:
        raise ValueError("need a 1-D odd-length signal with at least 17 samples")
    if not np.any(f):
        return 0.0
    n = f.size
    t = np.linspace(-2.0, 2.0, n)
    dt = t[1] - t[0]
    mid = n // 2

    a = math.exp(-dt * xi * xi)
    half = 0.5 * dt

    def walk(values: list[complex]) -> list[complex]:
        sums = [0j]
        for prev, cur in zip(values, values[1:]):
            sums.append(a * sums[-1] + half * (a * prev + cur))
        return sums

    past = walk(f[mid::-1].tolist())
    K = np.array([-v for v in past[:0:-1]] + walk(f[mid:].tolist())) * psi_cutoff(t)

    left = _y_norm(K, dt, xi, 0.5)
    right = (1.0 + xi * xi) ** (-delta) * _y_norm(f, dt, xi, -0.5 + delta)
    if right == 0.0:
        return 0.0 if left == 0.0 else math.inf
    return left / right


def bilinear_ratio(u: Trajectory, v: Trajectory, s1: float, s2: float,
                   delta: float, eps: float) -> float:
    """||d/dx(uv)||_{X^{-1/2+delta, s1-2delta+eps, s2}} over the product of
    ||u||_{X^{1/2,s1,s2}} and ||v||_{X^{1/2,s1,s2}}.

    d/dx(uv) is multiplied on the alias-free band grid of
    ``solver._dx_product_full``: the smallest even grid that holds the
    product's band, 34 x 34 for two fields in |k| <= 8.  There it is exact
    up to rounding and zero outside |k| <= 16, so the numerator's norm
    transforms 528 columns, the Hermitian half of 33 * 32 = 1056 modes.  On
    the 32 x 32 suite grid (refine = 1) the band does not fit, and the
    product is taken on the whole grid.

    Returns 0 when both sides vanish and inf on a violation (nonzero
    numerator over a zero denominator).
    """
    if not (-0.5 + 8.0 * delta <= s1 <= 0.0):
        raise ValueError(f"s1 must lie in [-1/2 + 8 delta, 0], got {s1}")
    if s2 < 0.0:
        raise ValueError(f"s2 must be >= 0, got {s2}")
    if not 0.0 < eps <= delta / 10.0:
        raise ValueError(f"eps must be in (0, delta/10], got {eps}")
    if u.grid is not v.grid or u.n_times != v.n_times:
        raise ValueError("u and v must share grid and time grid")
    prod = Trajectory(grid=u.grid, times=u.times,
                      coeffs=_dx_product_full(u.coeffs, v.coeffs, u.grid))

    numer = bourgain_norm(prod, -0.5 + delta, s1 - 2.0 * delta + eps, s2)
    denom = bourgain_norm(u, 0.5, s1, s2) * bourgain_norm(v, 0.5, s1, s2)
    if denom == 0.0:
        return 0.0 if numer == 0.0 else math.inf
    return numer / denom


def _report(estimate_id: str, ratios: list[float], params: dict) -> RatioReport:
    arr = np.asarray(ratios, dtype=float)
    return RatioReport(
        estimate_id=estimate_id,
        samples=int(arr.size),
        max_ratio=float(np.max(arr)) if arr.size else 0.0,
        median_ratio=float(np.median(arr)) if arr.size else 0.0,
        params=params,
    )


def _suite_grid(refine: int) -> Grid2D:
    return make_grid(32 * refine, 32 * refine, np.pi, np.pi)


def free_suite(suite_size: int, seed: int, s1: float = 0.0, s2: float = 0.0,
               refine: int = 1) -> tuple[RatioReport, list[dict]]:
    """free_estimate_ratio over random fields, cycling b in {0, 1/4, 1/2}."""
    grid = _suite_grid(refine)
    rows = []
    ratios = []
    for k in range(suite_size):
        rng = np.random.default_rng([int(seed), k])
        phi = random_field(grid, rng)
        b = _B_SWEEP[k % len(_B_SWEEP)]
        r = free_estimate_ratio(phi, b, s1, s2, M=48 * refine)
        ratios.append(r)
        rows.append({"estimate_id": "free", "seed": k,
                     "params": {"b": b, "s1": s1, "s2": s2}, "ratio": r})
    report = _report("free", ratios,
                     {"b": list(_B_SWEEP), "s1": s1, "s2": s2})
    return report, rows


def smoothing_suite(suite_size: int, seed: int,
                    refine: int = 1) -> tuple[RatioReport, list[dict]]:
    """smoothing_ratio over random signals, sweeping (xi, delta) pairs."""
    n = 256 * refine + 1
    pairs = [(x, d) for x in _XI_SWEEP for d in _DELTA_SWEEP]
    rows = []
    ratios = []
    for k in range(suite_size):
        rng = np.random.default_rng([int(seed), k])
        decay = int(rng.integers(0, 3))
        m = np.arange(-_BAND, _BAND + 1)
        amp = (rng.standard_normal(m.size) + 1j * rng.standard_normal(m.size))
        amp *= (1.0 + np.abs(m)) ** (-float(decay))
        t = np.linspace(-2.0, 2.0, n)
        f = (amp[None, :] * np.exp(0.5j * np.pi * m[None, :] * t[:, None])).sum(axis=1)
        xi, delta = pairs[k % len(pairs)]
        r = smoothing_ratio(f, xi, delta)
        ratios.append(r)
        rows.append({"estimate_id": "smoothing", "seed": k,
                     "params": {"xi": xi, "delta": delta}, "ratio": r})
    report = _report("smoothing", ratios,
                     {"xi": list(_XI_SWEEP), "delta": list(_DELTA_SWEEP)})
    return report, rows


def bilinear_suite(suite_size: int, seed: int, s2: float = 0.0,
                   refine: int = 1) -> tuple[RatioReport, list[dict]]:
    """bilinear_ratio over random free-evolution pairs, cycling s1.

    delta is capped per s1 so the precondition s1 >= -1/2 + 8 delta holds:
    delta = min(0.05, (s1 + 1/2)/8), eps = delta/10.
    """
    grid = _suite_grid(refine)
    rows = []
    ratios = []
    for k in range(suite_size):
        rng = np.random.default_rng([int(seed), k])
        s1 = _S1_SWEEP[k % len(_S1_SWEEP)]
        delta = min(0.05, (s1 + 0.5) / 8.0)
        eps = delta / 10.0
        u = free_trajectory(random_field(grid, rng), T=4.0, M=48 * refine)
        v = free_trajectory(random_field(grid, rng), T=4.0, M=48 * refine)
        r = bilinear_ratio(u, v, s1, s2, delta, eps)
        ratios.append(r)
        rows.append({"estimate_id": "bilinear", "seed": k,
                     "params": {"s1": s1, "s2": s2, "delta": delta, "eps": eps},
                     "ratio": r})
    report = _report("bilinear", ratios,
                     {"s1": list(_S1_SWEEP), "s2": s2, "delta": 0.05, "eps": 0.005})
    return report, rows


_SUITES = {
    "free": free_suite,
    "smoothing": smoothing_suite,
    "bilinear": bilinear_suite,
}


def run_suite(estimate_id: str, suite_size: int, seed: int,
              refine: int = 1) -> tuple[RatioReport, list[dict]]:
    """Dispatch a named suite ("free", "smoothing", or "bilinear")."""
    try:
        runner = _SUITES[estimate_id]
    except KeyError:
        raise ValueError(
            f"unknown estimate_id {estimate_id!r}; "
            f"expected one of {sorted(_SUITES)}") from None
    return runner(suite_size, seed, refine=refine)
