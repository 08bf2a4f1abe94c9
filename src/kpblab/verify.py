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

Every datum of a free or bilinear suite lies on the same columns (the
Hermitian half of the mode box off kx = 0) and is evolved at the same
times, and the products of two of them all lie on one column set of
their own.  So ``run_suite`` keeps a memo keyed by content (``_shared``):
the multiplier psi(t-2) W(t-2) and the wrapped sigma = tau - P of a
column set are built once per suite, by the first case that needs them,
and each later case's free evolutions and Bourgain norms take them.  A
datum off those columns builds its own, kept under its own key.  Either
way every ratio has the same bits; outside ``run_suite`` nothing is kept.
"""

from __future__ import annotations

import copy
import math
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .modes import ModeForm
from .norms import WindowedPower, sobolev_norm, taper_transform, wrapped_sigma
from .semigroup import w_multiplier
from .solver import Trajectory, dx_product
from .spectral_core import Grid2D, SpectralField, dispersion_values, make_grid

__all__ = [
    "RatioReport",
    "psi_cutoff",
    "random_field",
    "free_trajectory",
    "free_estimate_ratio",
    "smoothing_ratio",
    "bilinear_ratio",
    "run_suite",
]

_BAND = 8
_XI_SWEEP = (0.0, 1.0, 4.0, 16.0)
_DELTA_SWEEP = (0.1, 0.25, 0.5)
_B_SWEEP = (0.0, 0.25, 0.5)
_S1_SWEEP = (-0.4, -0.2, 0.0)
_XI_DELTA_SWEEP = tuple((xi, delta) for xi in _XI_SWEEP for delta in _DELTA_SWEEP)


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


# The tables that the cases of the running suite share, by key: a dict
# that ``_shared`` fills, and None outside ``run_suite``.  A context
# variable, not a parameter: the free cases reach it through the public
# ``free_estimate_ratio``, and a suite run in another thread holds its own.
_suite_memo: ContextVar[dict | None] = ContextVar("_suite_memo", default=None)


def _shared(key, build):
    """``build()``; inside ``run_suite`` the result is kept under ``key``
    until the suite returns, and a later call with an equal key returns it
    without building."""
    memo = _suite_memo.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _evolution_table(grid: Grid2D, cols: np.ndarray, T: float, M: int,
                    cutoff: bool) -> tuple[np.ndarray, np.ndarray]:
    """(times, multiplier): the M + 1 times of [0, T] and psi(t - T/2)
    W(t - T/2) on (times, cols), the flat modes ``cols`` (W alone without
    the cutoff)."""
    times = np.linspace(0.0, T, M + 1)
    shifted = (times - 0.5 * T)[:, None]
    amp = psi_cutoff(shifted) if cutoff else 1.0
    P = dispersion_values(grid).reshape(-1)[cols]
    xi = grid.xi[cols // grid.ny]
    return times, amp * w_multiplier(P, xi, shifted)


def _windowed_power(form: ModeForm, dt: float) -> WindowedPower:
    """``WindowedPower.of_modes(form, dt)`` with its wrapped sigma set
    (``norms.wrapped_sigma``), one per grid, time axis and column set in a
    suite (``_shared``)."""
    power = WindowedPower.of_modes(form, dt)
    grid, cols = form.grid, form.cols
    power.sigma = _shared(
        ("sigma", grid, power.n_times, dt, cols.tobytes()),
        lambda: wrapped_sigma(power.tau, dispersion_values(grid).reshape(-1)[cols], dt))
    return power


def _free_modes(phi: SpectralField, T: float, M: int,
                cutoff: bool = True) -> tuple[np.ndarray, ModeForm]:
    """(times, mode form) of psi(t - T/2) W(t - T/2) phi sampled on [0, T].

    The columns and weights are those of phi's own mode form, gathered as
    one time row (``ModeForm.gather``), and its values are phi there.  W
    acts mode by mode, so only those modes are evaluated, all times at
    once: the values are the multiplier table of those columns
    (``_evolution_table``) times phi.  Inside ``run_suite`` the table is
    kept per column set (``_shared``), so the suite's first free evolution
    on a set builds it and every later one takes it; the product is the
    same either way.  P is odd and xi^2 even, so the mirror of an exact
    pair stays the conjugate of its first mode at every time, and the
    evolution has phi's columns and weights.
    """
    grid = phi.grid
    datum = ModeForm.gather(grid, phi.coeffs.reshape(1, -1))
    cols = datum.cols
    times, multiplier = _shared(("free", grid, T, M, cutoff, cols.tobytes()),
                                lambda: _evolution_table(grid, cols, T, M, cutoff))
    return times, ModeForm(grid, cols, datum.colw, multiplier * datum.values[0])


def free_trajectory(phi: SpectralField, T: float, M: int,
                    cutoff: bool = True) -> Trajectory:
    """psi(t - T/2) W(t - T/2) phi sampled on [0, T] (cutoff optional).

    The expansion of the free evolution's mode form: the modes where phi is
    nonzero carry it, every other mode stays exactly zero, and where phi at
    -k is the conjugate of phi at k bit for bit, the mode -k is written as
    the conjugate of mode k.  The verify suites take the mode form itself.
    """
    times, modes = _free_modes(phi, T, M, cutoff)
    coeffs = modes.expand().reshape(M + 1, phi.grid.nx, phi.grid.ny)
    return Trajectory(grid=phi.grid, times=times, coeffs=coeffs)


def free_estimate_ratio(phi: SpectralField, b: float, s1: float, s2: float,
                        M: int = 48) -> float:
    """||psi(t) W(t) phi||_{X^{b,s1,s2}} / ||phi||_{H^{s1+2b-1,s2}}, the
    numerator on the free evolution's mode form."""
    if not 0.0 <= b <= 0.5:
        raise ValueError(f"b must be in [0, 1/2], got {b}")
    denom = sobolev_norm(phi, s1 + 2.0 * b - 1.0, s2)
    if denom == 0.0:
        return 0.0
    times, modes = _free_modes(phi, T=4.0, M=M)
    power = _windowed_power(modes, float(times[1] - times[0]))
    return power.bourgain(b, s1, s2) / denom


def _y_norm(samples: np.ndarray, dt: float, xi: float, b: float) -> float:
    """Y^b_xi norm of a windowed time signal: weight (1 + tau^2 + xi^4)^b."""
    n = samples.size
    tau, ghat = taper_transform(samples[:, None], dt)
    w = (1.0 + tau ** 2 + xi ** 4) ** b
    return math.sqrt(float(np.sum(w[:, None] * np.abs(ghat) ** 2)) / (n * dt))


def _walk(f: np.ndarray, dt: float, xi: float) -> np.ndarray:
    """int_0^t e^{-|t-t'| xi^2} f(t') dt' at every node t of the samples
    ``f``, ``dt`` apart on a grid of odd length centred on t = 0, by the
    trapezoid rule walking out from t = 0 on each side: with
    a = e^{-dt xi^2}, the sum one node further out is
    A' = a A + (dt/2)(a f + f'), and the integral is -A for t < 0.

    The walk is a recursive-doubling scan of that recurrence, both sides
    at once.  Each node starts with its step term (dt/2)(a f + f'); the
    stage of offset s = 2^j adds a^s times the value s nodes further in,
    after which a node holds the last 2s step terms, each times a to the
    power of its distance.  The multipliers are only a^(2^j), so a power
    of a only ever shrinks (to 0 at large xi) and nothing overflows.
    """
    mid = f.size // 2
    a = math.exp(-dt * xi * xi)
    sides = np.stack([f[mid::-1], f[mid:]])  # into the past, into the future
    sums = np.zeros_like(sides)
    sums[:, 1:] = 0.5 * dt * (a * sides[:, :-1] + sides[:, 1:])
    s, power = 1, a
    while s <= mid:
        sums[:, s:] += power * sums[:, :-s]
        s, power = 2 * s, power * power
    return np.concatenate([-sums[0, :0:-1], sums[1]])


def smoothing_ratio(f_samples: np.ndarray, xi: float, delta: float) -> float:
    """||K_xi||_{Y^{1/2}} / (<xi>^{-2 delta} ||f||_{Y^{-1/2+delta}}).

    ``f_samples`` holds time samples of f on a uniform grid over [-2, 2]
    (odd length, so t = 0 is a node).  K_xi(t) = psi(t) int_0^t
    e^{-|t-t'| xi^2} f(t') dt', the integral by the trapezoid rule on the
    sample grid (``_walk``).
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    f = np.asarray(f_samples, dtype=complex)
    if f.ndim != 1 or f.size < 17 or f.size % 2 == 0:
        raise ValueError("need a 1-D odd-length signal with at least 17 samples")
    if not np.any(f):
        return 0.0
    t = np.linspace(-2.0, 2.0, f.size)
    dt = t[1] - t[0]
    K = _walk(f, dt, xi) * psi_cutoff(t)

    left = _y_norm(K, dt, xi, 0.5)
    right = (1.0 + xi * xi) ** (-delta) * _y_norm(f, dt, xi, -0.5 + delta)
    if right == 0.0:
        return 0.0 if left == 0.0 else math.inf
    return left / right


def bilinear_ratio(u: Trajectory, v: Trajectory, s1: float, s2: float,
                   delta: float, eps: float) -> float:
    """||d/dx(uv)||_{X^{-1/2+delta, s1-2delta+eps, s2}} over the product of
    ||u||_{X^{1/2,s1,s2}} and ||v||_{X^{1/2,s1,s2}}.

    u and v are reduced to their mode forms, each gathered from its
    coeffs' time rows (``ModeForm.gather``), and the ratio is taken on
    those as the bilinear suite takes it on its free evolutions.
    ``solver.dx_product`` multiplies d/dx(uv) on the smallest even grid
    with no prime factor above 5 that holds the product's band without
    aliasing, 36 x 36 for two fields in |k| <= 8, and gathers its mode
    form straight from there.  On a grid that holds that band grid, such
    as the 64 x 64 suite grid (refine = 2), the product is exact up to
    rounding and zero outside |k| <= 16, so the numerator's norm
    transforms 528 columns, the Hermitian half of 33 * 32 = 1056 modes.
    The 32 x 32 suite grid (refine = 1) holds neither 36 nor 34 points, so
    the product is taken on the whole grid with its 2/3 dealias table:
    the numerator is the product cut to |k| <= 10, 210 columns, not the
    exact product.

    Returns 0 when both sides vanish and inf on a violation (nonzero
    numerator over a zero denominator).
    """
    if not (-0.5 + 8.0 * delta <= s1 <= 0.0):
        raise ValueError(f"s1 must lie in [-1/2 + 8 delta, 0], got {s1}")
    if s2 < 0.0:
        raise ValueError(f"s2 must be >= 0, got {s2}")
    if not 0.0 < eps <= delta / 10.0:
        raise ValueError(f"eps must be in (0, delta/10], got {eps}")
    if u.grid is not v.grid or not np.array_equal(u.times, v.times):
        raise ValueError("u and v must share grid and time grid")
    forms = [ModeForm.gather(traj.grid, traj.coeffs.reshape(traj.n_times, -1))
             for traj in (u, v)]
    return _bilinear_modes(u.dt, *forms, s1, s2, delta, eps)


def _bilinear_modes(dt: float, u: ModeForm, v: ModeForm,
                    s1: float, s2: float, delta: float, eps: float) -> float:
    """``bilinear_ratio`` of the mode forms u and v sampled every ``dt``."""
    prod = dx_product(u, v)
    numer = _windowed_power(prod, dt).bourgain(
        -0.5 + delta, s1 - 2.0 * delta + eps, s2)
    denom = (_windowed_power(u, dt).bourgain(0.5, s1, s2)
             * _windowed_power(v, dt).bourgain(0.5, s1, s2))
    if denom == 0.0:
        return 0.0 if numer == 0.0 else math.inf
    return numer / denom


def _free_case(grid: Grid2D, rng: np.random.Generator, k: int, refine: int):
    """free_estimate_ratio of a random field, cycling b in {0, 1/4, 1/2}."""
    phi = random_field(grid, rng)
    b = _B_SWEEP[k % len(_B_SWEEP)]
    return ({"b": b, "s1": 0.0, "s2": 0.0},
            free_estimate_ratio(phi, b, 0.0, 0.0, M=48 * refine))


def _smoothing_case(grid: Grid2D, rng: np.random.Generator, k: int, refine: int):
    """smoothing_ratio of a random signal, sweeping (xi, delta) pairs."""
    decay = int(rng.integers(0, 3))
    m = np.arange(-_BAND, _BAND + 1)
    amp = (rng.standard_normal(m.size) + 1j * rng.standard_normal(m.size))
    amp *= (1.0 + np.abs(m)) ** (-float(decay))
    t = np.linspace(-2.0, 2.0, 256 * refine + 1)
    f = (amp[None, :] * np.exp(0.5j * np.pi * m[None, :] * t[:, None])).sum(axis=1)
    xi, delta = _XI_DELTA_SWEEP[k % len(_XI_DELTA_SWEEP)]
    return {"xi": xi, "delta": delta}, smoothing_ratio(f, xi, delta)


def _bilinear_case(grid: Grid2D, rng: np.random.Generator, k: int, refine: int):
    """bilinear_ratio of a random free-evolution pair, cycling s1, on their
    mode forms.

    delta is capped per s1 so the precondition s1 >= -1/2 + 8 delta holds:
    delta = min(0.05, (s1 + 1/2)/8), eps = delta/10.
    """
    s1 = _S1_SWEEP[k % len(_S1_SWEEP)]
    delta = min(0.05, (s1 + 0.5) / 8.0)
    eps = delta / 10.0
    times, u = _free_modes(random_field(grid, rng), T=4.0, M=48 * refine)
    _, v = _free_modes(random_field(grid, rng), T=4.0, M=48 * refine)
    return ({"s1": s1, "s2": 0.0, "delta": delta, "eps": eps},
            _bilinear_modes(float(times[1] - times[0]), u, v, s1, 0.0, delta, eps))


# estimate_id -> (case function (grid, rng, k, refine) -> (params, ratio),
# the report's params)
_SUITES = {
    "free": (_free_case, {"b": list(_B_SWEEP), "s1": 0.0, "s2": 0.0}),
    "smoothing": (_smoothing_case,
                  {"xi": list(_XI_SWEEP), "delta": list(_DELTA_SWEEP)}),
    "bilinear": (_bilinear_case,
                 {"s1": list(_S1_SWEEP), "s2": 0.0, "delta": 0.05, "eps": 0.005}),
}


def run_suite(estimate_id: str, suite_size: int, seed: int,
              refine: int = 1) -> tuple[RatioReport, list[dict]]:
    """The named suite ("free", "smoothing" or "bilinear"): its report and
    one row per case.  Case k draws from the generator seeded [seed, k], so
    the first cases of a larger suite are those of a smaller one.  The free
    and bilinear cases draw on the 32 refine x 32 refine grid on the box
    [-pi, pi)^2, built once per suite; the smoothing cases take
    256 refine + 1 time samples.  While the cases run, ``_suite_memo``
    holds the tables that ``_shared`` keeps for them: the free-evolution
    multipliers and the wrapped sigmas, one per column set, so each is
    built once per call and dropped when it returns.
    """
    try:
        case, params = _SUITES[estimate_id]
    except KeyError:
        raise ValueError(
            f"unknown estimate_id {estimate_id!r}; "
            f"expected one of {sorted(_SUITES)}") from None
    for name, value, least in (("seed", seed, 0), ("suite_size", suite_size, 1),
                               ("refine", refine, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    grid = make_grid(32 * refine, 32 * refine, np.pi, np.pi)
    rows = []
    token = _suite_memo.set({})
    try:
        for k in range(suite_size):
            case_params, ratio = case(grid, np.random.default_rng([int(seed), k]),
                                      k, refine)
            rows.append({"estimate_id": estimate_id, "seed": k,
                         "params": case_params, "ratio": ratio})
    finally:
        _suite_memo.reset(token)
    ratios = [row["ratio"] for row in rows]
    report = RatioReport(estimate_id=estimate_id, samples=suite_size,
                         max_ratio=float(np.max(ratios)),
                         median_ratio=float(np.median(ratios)),
                         params=copy.deepcopy(params))
    return report, rows
