"""Second-Picard-iterate norm growth: the explicit counterexample machinery.

Data concentrated on two frequency rectangles

    D_1 = [N/2, N) x [-6N^2, 6N^2),
    D_2 = [N, 2N) x [sqrt(3) N^2, (sqrt(3)+1) N^2),

with flat amplitude N^{-3/2-s} (plus the conjugate mirrors at negative xi so
the field is real), produces a second Picard iterate whose spectral density
on the output window

    xi in [3N/2, 3N],  eta in [(sqrt(3)-6) N^2, (sqrt(3)+7) N^2]

is an explicit double integral of the interaction kernel

    K(t) = (e^{-t(xi1^2+xi2^2)} e^{i t chi} - e^{-t xi^2}) / (-2 xi1 xi2 + i chi),
    chi  = 3 xi xi1 xi2 + (xi1 eta - xi eta1)^2 / (xi xi1 xi2),   xi2 = xi - xi1,

over the interaction set k(xi,eta) = k1 u k2 with
k1 = {nu1 in D_2 : nu - nu1 in D_1} and k2 the reflected copy.  Everything
here is continuum quadrature: k1 is itself a rectangle (an intersection of
two rectangles), the amplitude is constant on it, and the integrand is
invariant under nu1 -> nu - nu1, so the full integral is exactly twice the
midpoint-rule sum over k1.

Evaluating the H^{s,0} norm of the second iterate at t_N = N^{-3-eps0} for a
sweep of N and fitting log-norm against log N measures the growth exponent;
the analytic prediction for the slope is (-1 - 2 eps0 - 2 s)/2, positive for
s < -1/2 - eps0 (norm inflation) and negative above.

Continuum norms carry the same (2 pi)^{-2} Plancherel factor as the discrete
Parseval convention in spectral_core, so grid and continuum values of
||phi_N||_{H^{s,0}} are directly comparable.

Rectangle membership is closed-left, open-right on both axes (a fixed
measure-zero convention, for determinism).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .spectral_core import Grid2D, SpectralField, _symbol

__all__ = [
    "Rectangle",
    "RectanglePair",
    "IllposedResult",
    "ScalingStudy",
    "rectangle_pair",
    "output_window",
    "interaction_rectangle",
    "build_phi_N",
    "PhiHat",
    "resonance_chi",
    "kernel_K",
    "second_iterate_hat",
    "second_iterate_norm",
    "scaling_study",
    "chi_bound_check",
]

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Rectangle:
    """Half-open frequency rectangle [xi_min, xi_max) x [eta_min, eta_max)."""

    xi_min: float
    xi_max: float
    eta_min: float
    eta_max: float

    def contains(self, xi, eta):
        return ((xi >= self.xi_min) & (xi < self.xi_max)
                & (eta >= self.eta_min) & (eta < self.eta_max))

    @property
    def area(self) -> float:
        return (self.xi_max - self.xi_min) * (self.eta_max - self.eta_min)


@dataclass(frozen=True)
class RectanglePair:
    """The two data rectangles D_1, D_2 at frequency scale N."""

    N: float
    D1: Rectangle
    D2: Rectangle


def rectangle_pair(N: float) -> RectanglePair:
    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    n2 = N * N
    return RectanglePair(
        N=float(N),
        D1=Rectangle(N / 2, N, -6 * n2, 6 * n2),
        D2=Rectangle(N, 2 * N, _SQRT3 * n2, (_SQRT3 + 1) * n2),
    )


def output_window(N: float) -> tuple[float, float, float, float]:
    """(xi_lo, xi_hi, eta_lo, eta_hi) of the lower-bound window."""
    n2 = N * N
    return 1.5 * N, 3.0 * N, (_SQRT3 - 6) * n2, (_SQRT3 + 7) * n2


def _k1_bounds(pair: RectanglePair, xi, eta):
    """(x_lo, x_hi, y_lo, y_hi) of k1(xi, eta), elementwise over array arguments.

    nu1 in k1 means xi1 in [N, 2N) and xi - xi1 in [N/2, N), and likewise in
    eta; both constraints are intervals, so k1 is their product.  The xi
    bounds depend on xi only and the eta bounds on eta only; k1 is empty
    where a lower bound is not below its upper bound.
    """
    return (np.maximum(pair.D2.xi_min, xi - pair.D1.xi_max),
            np.minimum(pair.D2.xi_max, xi - pair.D1.xi_min),
            np.maximum(pair.D2.eta_min, eta - pair.D1.eta_max),
            np.minimum(pair.D2.eta_max, eta - pair.D1.eta_min))


def interaction_rectangle(N: float, xi: float, eta: float) -> Rectangle | None:
    """The rectangle k1(xi, eta) = D_2 intersected with (nu - D_1), or None."""
    xlo, xhi, ylo, yhi = (float(b) for b in _k1_bounds(rectangle_pair(N), xi, eta))
    if xlo >= xhi or ylo >= yhi:
        return None
    return Rectangle(xlo, xhi, ylo, yhi)


@dataclass(frozen=True)
class PhiHat:
    """Continuum descriptor of phi_N: flat amplitude on D_1 u D_2 u mirrors."""

    N: float
    s: float
    amplitude: float
    rectangles: RectanglePair

    def __call__(self, xi, eta):
        d1, d2 = self.rectangles.D1, self.rectangles.D2
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        inside = (d1.contains(xi, eta) | d2.contains(xi, eta)
                  | d1.contains(-xi, -eta) | d2.contains(-xi, -eta))
        return np.where(inside, self.amplitude, 0.0)

    def sobolev_norm(self, s1: float, s2: float = 0.0) -> float:
        """Exact continuum H^{s1,s2} norm (1-D quadrature per rectangle)."""
        # Imported here, its only use: scipy.integrate costs most of the
        # package's import time, which every command pays.
        from scipy.integrate import quad

        def weight(x: float, s: float) -> float:
            try:
                return (1.0 + x * x) ** s
            except OverflowError:  # a weight past the float range is inf
                return math.inf

        total = 0.0
        for rect in (self.rectangles.D1, self.rectangles.D2):
            fx = quad(weight, rect.xi_min, rect.xi_max, args=(s1,), epsrel=1e-12)[0]
            fy = quad(weight, rect.eta_min, rect.eta_max, args=(s2,), epsrel=1e-12)[0]
            total += fx * fy
        total *= 2.0 * self.amplitude ** 2  # conjugate mirrors double the mass
        return math.sqrt(total / (4.0 * math.pi ** 2))


def build_phi_N(N: float, s: float, grid: Grid2D | None = None):
    """phi_N with hat value N^{-3/2-s} on D_1 u D_2 (mirrored to negative xi).

    With ``grid`` omitted, returns the continuum :class:`PhiHat` descriptor.
    With a grid, returns the SpectralField whose transform samples the same
    indicator; the grid must carry at least 8x8 modes inside each rectangle.
    """
    if N < 4:
        raise ValueError(f"N must be >= 4, got {N}")
    pair = rectangle_pair(N)
    amp = float(N) ** (-1.5 - s)
    descriptor = PhiHat(N=float(N), s=float(s), amplitude=amp, rectangles=pair)
    if grid is None:
        return descriptor

    for rect in (pair.D1, pair.D2):
        n_xi = np.count_nonzero((grid.xi >= rect.xi_min) & (grid.xi < rect.xi_max))
        n_eta = np.count_nonzero((grid.eta >= rect.eta_min) & (grid.eta < rect.eta_max))
        if n_xi < 8 or n_eta < 8:
            raise ValueError(
                f"grid resolves rectangle [{rect.xi_min},{rect.xi_max})x"
                f"[{rect.eta_min},{rect.eta_max}) with only {n_xi}x{n_eta} modes "
                "(need at least 8x8)")

    # hat values / (dx dy) is the coefficient normalization of spectral_core
    coeffs = (descriptor(grid.xi[:, None], grid.eta[None, :]).astype(complex)
              / (grid.dx * grid.dy))
    return SpectralField(grid=grid, coeffs=coeffs)


def _require_nonzero(*arrays) -> None:
    for a in arrays:
        if np.any(np.asarray(a) == 0.0):
            raise ValueError("xi, xi1 and xi - xi1 must all be nonzero")


def _chi_into(out: np.ndarray, xi, xi1, eta, eta1) -> np.ndarray:
    """Write chi at the broadcast nodes into ``out`` and return it.

    The factor xi xi1 (xi - xi1) keeps the broadcast shape of (xi, xi1), so
    a caller that puts xi1 on its own axis pays for it once per xi1.
    """
    prod = xi * xi1 * (xi - xi1)
    np.subtract(xi1 * eta, xi * eta1, out=out)
    out *= out
    out /= prod
    out += 3.0 * prod
    return out


def resonance_chi(xi, xi1, eta, eta1):
    """chi = 3 xi xi1 (xi-xi1) + (xi1 eta - xi eta1)^2 / (xi xi1 (xi-xi1))."""
    xi, xi1, eta, eta1 = (np.asarray(a, dtype=float) for a in (xi, xi1, eta, eta1))
    _require_nonzero(xi, xi1, xi - xi1)
    chi = _chi_into(np.empty(np.broadcast(xi, xi1, eta, eta1).shape), xi, xi1, eta, eta1)
    if chi.ndim == 0:
        return float(chi)
    return chi


def _direct_exp_ih(t, chi, phase, h) -> np.ndarray:
    """Write e^{ih}, h = t chi / 2, into ``phase`` with one cosine and one sine
    per node; ``h`` is a float buffer of the same shape, and may be ``chi``
    itself.  Returns ``phase``."""
    np.multiply(chi, 0.5 * t, out=h)
    np.cos(h, out=phase.real)
    np.sin(h, out=phase.imag)
    return phase


def _kernel_factors(t, xi, xi1):
    """(cross, g, e1) of :func:`_kernel`: cross = 2 xi1 (xi - xi1) and, with
    a = t cross, g = 2 e^{-t xi^2} e^a and e1 = e^{-t xi^2} expm1(a).

    All three depend on (t, xi, xi1) alone and keep that broadcast shape,
    so a caller that puts xi1 on its own axis pays for them once per xi1.
    """
    cross = 2.0 * xi1 * (xi - xi1)
    decay = np.exp(-t * xi * xi)
    return cross, 2.0 * decay * np.exp(t * cross), decay * np.expm1(t * cross)


def _kernel(den, phase, scratch, g, e1) -> np.ndarray:
    """K at the nodes, in place of phase = e^{ih}, h = t chi / 2.

    K = e^{-t xi^2} (e^z - 1) / (i chi - cross) with cross = 2 xi1 xi2 and
    z = a + 2 i h, a = t cross.  The half-angle form

        e^z - 1 = expm1(a) + 2 i e^a sin h e^{ih},   sin h = Im e^{ih},

    has no cancellation near z = 0.  Multiplying numerator and denominator
    by -i gives

        K = (g sin h e^{ih} - i e1) / (chi + i cross)

    with g and e1 from :func:`_kernel_factors`, so the numerator is two
    real scalings of e^{ih} and one real subtraction, and no complex
    temporary is made.  ``den`` holds chi + i cross, ``scratch`` is a float
    buffer of the node shape.  K overwrites ``phase``, which is returned.
    """
    np.multiply(phase.imag, g, out=scratch)
    phase.real *= scratch
    phase.imag *= scratch
    phase.imag -= e1
    phase /= den
    return phase


def kernel_K(t, xi, xi1, eta, eta1):
    """K = (e^{-t(xi1^2+xi2^2)} e^{i t chi} - e^{-t xi^2}) / (-2 xi1 xi2 + i chi).

    Evaluated as e^{-t xi^2} expm1(t (2 xi1 xi2 + i chi)) / (-2 xi1 xi2 + i chi),
    which is exact (xi^2 = xi1^2 + xi2^2 + 2 xi1 xi2) and avoids cancellation
    of the two exponentials for small t; see :func:`_kernel`.
    """
    # a trailing unit axis keeps scalar arguments inside array arithmetic
    t, xi, xi1, eta, eta1 = (np.asarray(a, dtype=float)[..., None]
                             for a in (t, xi, xi1, eta, eta1))
    _require_nonzero(xi, xi1, xi - xi1)
    shape = np.broadcast_shapes(*(a.shape for a in (t, xi, xi1, eta, eta1)))
    cross, g, e1 = _kernel_factors(t, xi, xi1)
    chi = _chi_into(np.empty(shape), xi, xi1, eta, eta1)
    den = chi + 1j * cross
    # once den holds chi, chi's buffer serves as h and as the kernel's scratch
    phase = _direct_exp_ih(t, chi, np.empty(shape, dtype=complex), chi)
    out = _kernel(den, phase, chi, g, e1)[..., 0]
    if out.ndim == 0:
        return complex(out)
    return out


def _midpoints(lo, hi, cells: int):
    """Midpoint nodes and cell width for [lo, hi) split into ``cells`` parts."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    h = (hi - lo) / cells
    offsets = (np.arange(cells) + 0.5)
    return lo[..., None] + offsets * h[..., None], h


_MIN_CELLS = 64
_MIN_N = 8  # smallest N of a norm evaluation
_MIN_CHI_SAMPLES = 10_000
_BLOCK_NODES = 32 * 1024  # inner nodes per kernel call in _window_density
_PHASE_Q = 8  # eta1 nodes per B table of the separable phase in _window_density


def _check_cells(cells: int) -> None:
    if cells < _MIN_CELLS:
        raise ValueError(f"cells must be >= {_MIN_CELLS}, got {cells}")


def _check_norm_args(N: float, cells: int) -> None:
    if N < _MIN_N:
        raise ValueError(f"N must be >= {_MIN_N}, got {N}")
    _check_cells(cells)


def second_iterate_hat(N: float, s: float, t: float, xi: float, eta: float,
                       cells: int) -> complex:
    """Spectral density of the second Picard iterate at one (xi, eta).

    i xi e^{i t P(xi,eta)} times the midpoint-rule integral of
    phihat(nu1) phihat(nu-nu1) K(t, xi, xi1, eta, eta1) over k(xi,eta);
    by the nu1 -> nu - nu1 symmetry this is twice the k1 part.  Returns 0
    when the interaction set is empty.
    """
    _check_cells(cells)
    if N < 4:
        raise ValueError(f"N must be >= 4, got {N}")
    rect = interaction_rectangle(N, xi, eta)
    if rect is None:
        return 0.0 + 0.0j
    amp = float(N) ** (-1.5 - s)
    x_nodes, hx = _midpoints(np.float64(rect.xi_min), np.float64(rect.xi_max), cells)
    y_nodes, hy = _midpoints(np.float64(rect.eta_min), np.float64(rect.eta_max), cells)
    K = kernel_K(t, xi, x_nodes[:, None], eta, y_nodes[None, :])
    integral = 2.0 * amp * amp * np.sum(K) * hx * hy
    prefactor = 1j * xi * np.exp(1j * t * _symbol(xi, eta))
    return complex(prefactor * integral)


def _full_columns(pair: RectanglePair, y_lo, y_hi) -> np.ndarray:
    """Outer-eta columns whose k1 eta interval is all of D_2's, [eta_min, eta_max)."""
    return (y_lo == pair.D2.eta_min) & (y_hi == pair.D2.eta_max)


def _powers(first, base, n: int) -> np.ndarray:
    """first * base**k for k = 0 .. n-1, by repeated doubling.

    ``base`` has shape (..., m); the power index k is a new axis in front
    of the last one, so each product runs over the m values of that axis.
    """
    out = np.empty(base.shape[:-1] + (n,) + base.shape[-1:], dtype=complex)
    out[..., 0, :] = first
    k, step = 1, base[..., None, :]
    while k < n:
        m = min(k, n - k)
        np.multiply(out[..., :m, :], step, out=out[..., k:k + m, :])
        step = step * step
        k += m
    return out


def _separable_exp_ih(x, x_mid, half_a, eta, c0, dy, e_tab, out) -> None:
    """Write e^{ih} = A B E at the full-column nodes of one block into ``out``.

    ``eta`` is a (rows, 1) column of outer eta, ``half_a`` is t / (2 prod)
    at the xi1 nodes ``x_mid``, ``e_tab`` the row's (P, Q, cells) table E
    and ``out`` a (rows, P, Q, cells) buffer, the nodes (eta, eta1, xi1)
    with eta1 index j = Q p + q; see :func:`_window_density`.
    """
    a_eta = half_a * x_mid * eta
    w = np.exp(-2j * x * dy * a_eta)
    b_tab = _powers(1.0, w, _PHASE_Q)
    a_tab = _powers(np.exp(1j * a_eta * (x_mid * eta - 2.0 * x * c0)),
                    b_tab[:, -1] * w, e_tab.shape[0])
    np.multiply(a_tab[:, :, None], b_tab[:, None], out=out)
    out *= e_tab


def _window_density(N: float, s: float, t: float, cells: int) -> tuple[np.ndarray, float, float]:
    """|uhat_2|^2-weighted H^{s,0} integrand sampled on the output window.

    Returns (table, hx, hy): ``table[i, j]`` is xi^2 (1+xi^2)^s |I(xi_i, eta_j)|^2
    at window midpoints, with I the bare k-set integral (prefactor modulus
    xi folded into the weight).  Vectorized one outer-xi row at a time, in
    blocks of outer eta: a block covers (rows, cells, cells) inner nodes
    (eta, eta1, xi1), with rows = _BLOCK_NODES // cells^2 (8 at cells=64, 2
    at cells=128, at least 1).  xi1 is the inner axis, so every node-sized
    operation runs over ``cells`` values, and the factors of (t, xi, xi1)
    alone (:func:`_kernel_factors`, the phase tables) are per-row vectors
    along it.

    A block allocates no node-sized array.  The call allocates three block
    buffers once: the complex phase e^{ih} (padded to P Q eta1 nodes, see
    below), the complex denominator chi + i cross, whose imaginary part is
    set once per row, and a float scratch.  chi goes to the scratch first,
    where its four passes run on contiguous memory, and is copied into the
    denominator; the scratch then holds h or g sin h.  The row's table E
    (below) has its own buffer, rebuilt in place.  The buffers belong to
    the call, so calls on concurrent threads share nothing.  The whole
    call's allocations peak at 1.78 MiB at cells=64 and 2.12 MiB at
    cells=128 (tracemalloc, N=16), about a 2 MiB L2; numpy's iterator
    buffers, at most 8192 elements per operand, are the largest transient
    allocations of a block.  Each eta's sum runs over its own (eta1, xi1)
    slab, whatever the block size.

    Separable phase.  A full column is an outer eta whose k1 eta interval is
    all of D_2 (:func:`_full_columns`; 54 of 64 columns at cells=64): the
    set is the same in every row, and all full columns share the same eta1
    nodes eta1_j = c0 + j dy, j = Q p + q (Q = _PHASE_Q, P = ceil(cells/Q),
    padded and trimmed).  With prod = xi xi1 (xi - xi1) and a = t / (2 prod),

        h = 1.5 t prod + a xi1^2 eta^2 - 2 a xi xi1 eta eta1 + a xi^2 eta1^2,

    so e^{ih} = A(eta, xi1, p) B(eta, xi1, q) E(xi1, j) with
    A = e^{i a xi1 eta (xi1 eta - 2 xi c0)} w^{Q p},  B = w^q,
    w = e^{-2 i a xi xi1 eta dy}, and E = e^{i (1.5 t prod + a xi^2 eta1_j^2)}
    built once per row; the phase buffer holds the product as (eta, p, q,
    xi1).  A and B come from one exp each by repeated multiplication, so a
    full-column node costs two complex multiplies where the clipped
    columns (and kernel_K) pay one sine and one cosine.  Only the
    source of e^{ih} differs: both kinds of column go through the same block
    loop, chi and :func:`_kernel`.  Against the direct sine and cosine, each
    table cell agrees to within 1e-13 relative (9.7e-14 at most over
    N in {16, 128} and cells in {64, 67, 96}) and the norm to about 1e-16.

    The quadrature runs under its own errstate (it may run on a worker
    thread, which a caller's errstate does not reach): it stops at the first
    row whose value is not finite and leaves that row and the rest NaN.
    """
    xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
    xi_nodes, hx = _midpoints(np.float64(xi_lo), np.float64(xi_hi), cells)
    eta_nodes, hy = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)

    amp2 = float(N) ** (2.0 * (-1.5 - s))
    table = np.zeros((cells, cells))

    pair = rectangle_pair(N)
    x_lo, x_hi, y_lo, y_hi = _k1_bounds(pair, xi_nodes, eta_nodes)
    y_mid, wy = _midpoints(y_lo, y_hi, cells)

    rows = max(1, _BLOCK_NODES // (cells * cells))
    is_full = _full_columns(pair, y_lo, y_hi)
    clipped = np.flatnonzero(~is_full & (y_lo < y_hi))  # empty columns stay 0
    full = np.flatnonzero(is_full)  # never empty: 11 of the window's 13 N^2
    eta1 = y_mid[full[0]]  # the same nodes in every full column
    c0, dy = eta1[0], wy[full[0]]
    n_p = -(-cells // _PHASE_Q)
    eta1_sq = np.zeros(n_p * _PHASE_Q)
    eta1_sq[:cells] = eta1 * eta1
    eta1_sq = eta1_sq.reshape(n_p, _PHASE_Q, 1)
    eta_col = eta_nodes[:, None, None]
    y_mid = y_mid[:, :, None]

    # Per-call buffers: concurrent calls (scaling_study's threads) share none.
    phase_buf = np.empty((rows, n_p, _PHASE_Q, cells), dtype=complex)
    phase = phase_buf.reshape(rows, -1, cells)[:, :cells]
    den = np.empty((rows, cells, cells), dtype=complex)
    scratch = np.empty((rows, cells, cells))
    e_tab = np.empty((n_p, _PHASE_Q, cells), dtype=complex)  # the row's E

    sums = np.zeros(cells, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, x in enumerate(xi_nodes):
            if x_lo[i] >= x_hi[i]:
                continue
            x_mid, wx = _midpoints(x_lo[i], x_hi[i], cells)
            prod = x * x_mid * (x - x_mid)
            half_a = 0.5 * t / prod
            e_tab.real = 0.0
            np.multiply(eta1_sq, half_a * x * x, out=e_tab.imag)
            e_tab.imag += (1.5 * t) * prod
            np.exp(e_tab, out=e_tab)
            cross, g, e1 = _kernel_factors(t, x, x_mid)
            den.imag[...] = cross
            for cols, separable in ((clipped, False), (full, True)):
                for j in range(0, cols.size, rows):
                    block = cols[j:j + rows]
                    n = block.size
                    chi = _chi_into(scratch[:n], x, x_mid, eta_col[block], y_mid[block])
                    den.real[:n] = chi
                    if separable:
                        _separable_exp_ih(x, x_mid, half_a, eta_nodes[block, None],
                                          c0, dy, e_tab, phase_buf[:n])
                    else:
                        _direct_exp_ih(t, chi, phase[:n], chi)
                    K = _kernel(den[:n], phase[:n], scratch[:n], g, e1)
                    sums[block] = K.sum(axis=(1, 2))
            mod2 = sums.real * sums.real + sums.imag * sums.imag
            mod2 *= (2.0 * amp2 * wx * wy) ** 2
            table[i, :] = x * x * (1.0 + x * x) ** s * mod2
            if not np.isfinite(table[i]).all():
                table[i:] = np.nan
                break
    return table, hx, hy


@dataclass(frozen=True)
class IllposedResult:
    """One (N, s, eps0) evaluation of the second-iterate norm at t_N."""

    N: float
    s: float
    eps0: float
    t_N: float
    norm_u2: float
    norm_phi: float
    quadrature_cells: int


def second_iterate_norm(N: float, s: float, eps0: float, cells: int) -> IllposedResult:
    """H^{s,0} norm of the second iterate at t_N = N^{-3-eps0} over the window.

    The squared norm is the midpoint-rule integral of
    xi^2 (1+xi^2)^s |I(xi,eta)|^2 over the output window, divided by
    (2 pi)^2 to match the Parseval convention of the discrete norms.
    """
    _check_norm_args(N, cells)
    t_N = float(N) ** (-(3.0 + eps0))
    table, hx, hy = _window_density(N, s, t_N, cells)
    norm_sq = float(np.sum(table)) * hx * hy / (4.0 * math.pi ** 2)
    phi = build_phi_N(N, s)
    return IllposedResult(
        N=float(N), s=float(s), eps0=float(eps0), t_N=t_N,
        norm_u2=math.sqrt(norm_sq), norm_phi=phi.sobolev_norm(s, 0.0),
        quadrature_cells=int(cells),
    )


@dataclass(frozen=True)
class ScalingStudy:
    """Fitted growth exponent of ||u_2(t_N)||_{H^{s,0}} against N."""

    slope: float
    intercept: float
    results: tuple[IllposedResult, ...]


def scaling_study(N_list, s: float, eps0: float, cells: int,
                  threads: int | None = None) -> ScalingStudy:
    """Least-squares slope of log norm_u2 vs log N over an increasing N sweep.

    The N values run on ``threads`` worker threads (None: ``os.cpu_count()``);
    numpy releases the GIL in the kernel, and the results do not depend on it.
    """
    Ns = [float(N) for N in N_list]
    if len(Ns) < 4:
        raise ValueError(f"need at least 4 values of N, got {len(Ns)}")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N_list must be strictly increasing, without duplicates")
    _check_norm_args(Ns[0], cells)  # the smallest N: fail before any quadrature
    with ThreadPoolExecutor(max_workers=threads or os.cpu_count() or 1) as pool:
        results = tuple(pool.map(
            lambda N: second_iterate_norm(N, s, eps0, cells), Ns))
    logN = np.log([r.N for r in results])
    logU = np.log([r.norm_u2 for r in results])
    slope, intercept = np.polyfit(logN, logU, 1)
    return ScalingStudy(slope=float(slope), intercept=float(intercept),
                        results=results)


def chi_bound_check(N: float, samples: int, seed: int = 0) -> float:
    """max over random interaction tuples of |chi| / N^3.

    (xi, eta) is drawn uniformly in the output window, (xi1, eta1) uniformly
    in k1(xi, eta), then reflected to k2 with probability 1/2 (chi is
    invariant under the reflection).  Every interior window point has a
    nonempty k1, so the boundary guard below drops nothing almost surely.
    The sampled ratio distribution is exactly N-independent because chi scales
    as N^3 under (xi, eta) -> (N xi', N^2 eta').
    """
    if samples < _MIN_CHI_SAMPLES:
        raise ValueError(f"samples must be >= {_MIN_CHI_SAMPLES}, got {samples}")
    rng = np.random.default_rng([int(seed), int(N)])
    xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)

    xi = rng.uniform(xi_lo, xi_hi, size=samples)
    eta = rng.uniform(eta_lo, eta_hi, size=samples)
    x_lo, x_hi, y_lo, y_hi = _k1_bounds(rectangle_pair(N), xi, eta)
    ok = (x_lo < x_hi) & (y_lo < y_hi)  # boundary fibers are measure zero
    xi, eta = xi[ok], eta[ok]
    x_lo, x_hi, y_lo, y_hi = x_lo[ok], x_hi[ok], y_lo[ok], y_hi[ok]

    xi1 = rng.uniform(x_lo, x_hi)
    eta1 = rng.uniform(y_lo, y_hi)
    flip = rng.random(xi.size) < 0.5
    xi1 = np.where(flip, xi - xi1, xi1)
    eta1 = np.where(flip, eta - eta1, eta1)

    chi = resonance_chi(xi, xi1, eta, eta1)
    return float(np.max(np.abs(chi)) / float(N) ** 3)
