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

from .spectral_core import Grid2D, SpectralField, symbol

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
_GAUSS_NODES = 16  # Gauss-Legendre nodes per rectangle side in PhiHat.sobolev_norm


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

    def sobolev_norm(self, s: float) -> float:
        """Continuum H^{s,0} norm.

        Each rectangle contributes its eta side's length times the integral
        of (1+xi^2)^s over its xi side, by a fixed 16-node Gauss-Legendre
        rule.  The weight's poles at +-i stay far from both xi sides,
        [N/2, N) and [N, 2N), at every N (Bernstein ellipse parameter at
        least 3 + 2 sqrt(2)), so the rule's error is far below rounding.  On
        s in {-0.7, -0.5, -0.3, 0, 0.5, 2} and N from 8 to 65536 the norm
        agrees with one built on adaptive quadrature (scipy.integrate.quad,
        epsrel 1e-12) within 4.4e-16 relative.  At s = 0 each integral is
        exactly its side's length.  A weight past the float range makes the
        norm inf.  There is no eta weight: the eta side of D_1 straddles 0,
        next to the poles, where no fixed rule converges.
        """
        # Imported here: numpy.polynomial adds to the import time every
        # command pays, and only this norm needs it.
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(_GAUSS_NODES)
        total = 0.0
        for rect in (self.rectangles.D1, self.rectangles.D2):
            half = 0.5 * (rect.xi_max - rect.xi_min)
            xi = 0.5 * (rect.xi_min + rect.xi_max) + half * nodes
            with np.errstate(over="ignore"):
                fx = half * float(np.sum(weights * (1.0 + xi * xi) ** s))
            total += fx * (rect.eta_max - rect.eta_min)
        # The conjugate mirrors double the mass.  The amplitude stays outside
        # the root, so its square cannot underflow to 0 against an inf total.
        return self.amplitude * math.sqrt(2.0 * total) / (2.0 * math.pi)


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


def _chi_into(out: np.ndarray, xi, xi1, eta, eta1, scale=1.0) -> np.ndarray:
    """Write chi / scale at the broadcast nodes into ``out`` and return it.

    The factor xi xi1 (xi - xi1) keeps the broadcast shape of (xi, xi1), so
    a caller that puts xi1 on its own axis pays for it once per xi1, and so
    does a ``scale`` of that shape.  A scale of 1 leaves every bit of chi.
    """
    prod = xi * xi1 * (xi - xi1)
    np.subtract(xi1 * eta, xi * eta1, out=out)
    out *= out
    out /= prod * scale
    out += 3.0 * prod / scale
    return out


def resonance_chi(xi, xi1, eta, eta1):
    """chi = 3 xi xi1 (xi-xi1) + (xi1 eta - xi eta1)^2 / (xi xi1 (xi-xi1))."""
    xi, xi1, eta, eta1 = (np.asarray(a, dtype=float) for a in (xi, xi1, eta, eta1))
    _require_nonzero(xi, xi1, xi - xi1)
    chi = _chi_into(np.empty(np.broadcast(xi, xi1, eta, eta1).shape), xi, xi1, eta, eta1)
    if chi.ndim == 0:
        return float(chi)
    return chi


def _kernel_factors(t, xi, xi1):
    """(g, c, r) of :func:`_kernel`: with cross = 2 xi1 (xi - xi1),
    a = t cross and e1 = e^{-t xi^2} expm1(a),

        g = 2 e^{-t xi^2} e^a = 2 e^{-t (xi1^2 + xi2^2)},
        c = cross / g,   r = e1 / g = -expm1(-a) / 2.

    g is one exponential and r holds no e^{-t xi^2}, so all three are
    finite wherever 1 / g is: t (xi1^2 + xi2^2) below about 709.  All three
    depend on (t, xi, xi1) alone and keep that broadcast shape, so a caller
    that puts xi1 on its own axis pays for them once per xi1.
    """
    cross = 2.0 * xi1 * (xi - xi1)
    g = 2.0 * np.exp(-t * (xi1 * xi1 + (xi - xi1) ** 2))
    return g, cross / g, -0.5 * np.expm1(-t * cross)


def _kernel(den, phase, out, out_imag, r) -> np.ndarray:
    """K at the nodes, into ``out``, from phase = e^{ih}, h = t chi / 2.

    K = e^{-t xi^2} (e^z - 1) / (i chi - cross) with cross = 2 xi1 xi2 and
    z = a + 2 i h, a = t cross.  The half-angle form

        e^z - 1 = expm1(a) + 2 i e^a sin h e^{ih},   sin h = Im e^{ih},

    has no cancellation near z = 0.  Multiplying numerator and denominator
    by -i / g, with g, c and r from :func:`_kernel_factors`, gives

        K = (sin h e^{ih} - i r) / (chi / g + i c),

    so the numerator is one product of e^{ih} by the real sin h and one
    real subtraction, and no complex temporary is made.  The product's
    cross terms are cos h * 0 and sin h * 0, which add +-0 and leave the
    bits of the two real products.  ``den`` holds chi / g + i c
    and ``out_imag`` is ``out.imag``, passed in so that a caller that
    evaluates K into the same buffers many times builds the view once.
    ``out`` may be ``phase`` itself; it is returned.
    """
    np.multiply(phase, phase.imag, out=out)
    out_imag -= r
    out /= den
    return out


def kernel_K(t, xi, xi1, eta, eta1):
    """K = (e^{-t(xi1^2+xi2^2)} e^{i t chi} - e^{-t xi^2}) / (-2 xi1 xi2 + i chi).

    Evaluated as e^{-t xi^2} expm1(t (2 xi1 xi2 + i chi)) / (-2 xi1 xi2 + i chi),
    which is exact (xi^2 = xi1^2 + xi2^2 + 2 xi1 xi2) and avoids cancellation
    of the two exponentials for small t; see :func:`_kernel`.  K is NaN
    where 1 / g overflows (:func:`_kernel_factors`): t (xi1^2 + xi2^2) past
    about 709.
    """
    # a trailing unit axis keeps scalar arguments inside array arithmetic
    t, xi, xi1, eta, eta1 = (np.asarray(a, dtype=float)[..., None]
                             for a in (t, xi, xi1, eta, eta1))
    _require_nonzero(xi, xi1, xi - xi1)
    shape = np.broadcast_shapes(*(a.shape for a in (t, xi, xi1, eta, eta1)))
    g, c, r = _kernel_factors(t, xi, xi1)
    chi = _chi_into(np.empty(shape), xi, xi1, eta, eta1)
    den = np.empty(shape, dtype=complex)
    np.divide(chi, g, out=den.real)
    den.imag[...] = c
    h = np.multiply(chi, 0.5 * t, out=chi)
    phase = np.empty(shape, dtype=complex)
    np.cos(h, out=phase.real)
    np.sin(h, out=phase.imag)
    out = _kernel(den, phase, phase, phase.imag, r)[..., 0]
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


MIN_CELLS = 64
_MIN_N = 8  # smallest N of a norm evaluation
MIN_CHI_SAMPLES = 10_000
_ROW_NODES = 16 * 1024  # inner nodes per row, and per kernel call, of _window_density


def _check_cells(cells: int) -> None:
    if cells < MIN_CELLS:
        raise ValueError(f"cells must be >= {MIN_CELLS}, got {cells}")


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
    amp = build_phi_N(N, s).amplitude
    rect = interaction_rectangle(N, xi, eta)
    if rect is None:
        return 0.0 + 0.0j
    x_nodes, hx = _midpoints(np.float64(rect.xi_min), np.float64(rect.xi_max), cells)
    y_nodes, hy = _midpoints(np.float64(rect.eta_min), np.float64(rect.eta_max), cells)
    K = kernel_K(t, xi, x_nodes[:, None], eta, y_nodes[None, :])
    integral = 2.0 * amp * amp * np.sum(K) * hx * hy
    prefactor = 1j * xi * np.exp(1j * t * symbol(xi, eta))
    return complex(prefactor * integral)


def _row_shape(cells: int) -> tuple[int, int]:
    """(Q, group) of :func:`_window_density`: a row holds Q eta1 nodes of
    ``group`` outer-eta columns, about _ROW_NODES nodes in all.

    Q = _ROW_NODES / MIN_CELLS^2 = 4 lets a row at the smallest ``cells``
    hold every column: 64 columns at cells=64, 61 at 67, 32 at 128.
    """
    n_q = _ROW_NODES // (MIN_CELLS * MIN_CELLS)
    return n_q, max(1, _ROW_NODES // (n_q * cells))


def _phase_seeds(pair, scratch, step, t, x, x_mid, eta, c0, dy, col) -> None:
    """Write row 0 of e^{ih}, h = t chi / 2, into pair[0], its row ratio
    R_0 into pair[1] and the step S into ``step``, at the nodes (eta1, eta,
    xi1) of a group of outer-eta columns, with no sine or cosine per node.

    ``eta`` and ``c0`` are (n, 1) columns and ``dy`` an (m, 1) column of
    the group's distinct eta1 steps, column b's being dy[col[b]]: the eta1
    nodes of column b are c0[b] + j dy[col[b]], j = Q p + q, q < Q, and
    row p holds q = 0 .. Q - 1.  ``x_mid`` holds the xi1 nodes of the outer
    xi ``x``.  ``pair`` is a complex (2, Q, n, cells) buffer, Q >= 3,
    ``step`` a complex (n, cells) or (Q, n, cells) one, and ``scratch`` a
    complex buffer of at least 6 n cells values, which the call overwrites;
    the seed phases are made in ``pair`` and their exponentials in
    ``scratch``.  Row p+1 is then row p times R_p, and R_{p+1} = R_p S: one
    complex multiply per node each.

    With prod = xi xi1 (xi - xi1) and a = t / (2 prod), h is a quadratic
    in j:

        h_j = alpha + beta j + gamma j^2,  u = xi1 eta - xi c0,  v = xi dy,
        alpha = 1.5 t prod + a u^2,  beta = -2 a u v,  gamma = a v^2.

    So along row 0, e^{ih_q} for q < Q, the ratio of neighbours
    e^{i(beta + gamma (2q + 1))} changes by the constant factor
    e^{2 i gamma}.  The row ratio R_p(q) = e^{i(h_{j+Q} - h_j)} =
    e^{i(beta Q + gamma Q^2 (2p + 1) + 2 gamma Q q)} is a geometric
    sequence in q, and changes by the constant factor S = e^{2 i gamma Q^2}
    from one row to the next.  Row 0 and R_0 come from six seed phases per
    (eta, xi1) by repeated multiplication, side by side in ``pair``.  Three
    of them, 2 gamma Q, 2 gamma and 2 gamma Q^2, depend on (dy, xi1) alone,
    so they take their sine and cosine once per distinct step: every full
    column has D_2's step.  At cells=64, N=16 that is 0.110 sines and as
    many cosines per node.  The rounding of the seeds grows with the
    number of products, at most about j^2 / 2 of them; measured against
    np.exp(1j * h), the largest error is 5.0e-14 (N in {16, 128, 1024},
    cells in {64, 67, 96, 128}, every third xi row, h up to 38).
    """
    n_q = pair.shape[1]
    prod = x * x_mid * (x - x_mid)
    half_a = 0.5 * t / prod
    u = x_mid * eta
    u -= x * c0
    v = x * dy
    vb = v[col]  # v of each column
    w = half_a * u  # beta = -2 w v, gamma = half_a v^2
    # the first values of row 0 and R_0 (alpha, beta Q + gamma Q^2) and
    # their first ratios (beta + gamma, 2 gamma Q) in the memory of pair;
    # the ratio of row 0's ratios (2 gamma) and the step (2 gamma Q^2) are
    # the gamma-only seeds, taken per distinct step
    size, shared = u.size, v.size * u.shape[1]
    flat = pair.reshape(-1)
    ph = flat.view(float)[:3 * size].reshape((3,) + u.shape)
    seeds = scratch.reshape(-1)[:6 * size].reshape((6,) + u.shape)
    np.multiply(w, u, out=ph[0])
    ph[0] += 1.5 * t * prod
    np.multiply(vb * np.array([-2.0 * n_q, -2.0])[:, None, None], w, out=ph[1:])
    gamma = seeds.real[1:3]  # the seeds' real parts hold the gamma terms meanwhile
    np.multiply(vb * vb * np.array([n_q * n_q, 1.0])[:, None, None], half_a, out=gamma)
    ph[1:] += gamma
    np.cos(ph, out=seeds.real[:3])
    np.sin(ph, out=seeds.imag[:3])
    # the gamma-only phases at the distinct steps, in seeds[3:] until the take fills it
    gamma = seeds[3:].reshape(-1).view(float)[:3 * shared].reshape((3, v.size, -1))
    np.multiply(v * v * np.array([2.0 * n_q, 2.0, 2.0 * n_q * n_q])[:, None, None],
                half_a, out=gamma)
    each = flat[2 * size:2 * size + 3 * shared].reshape(gamma.shape)
    np.cos(gamma, out=each.real)
    np.sin(gamma, out=each.imag)
    np.take(each, col, axis=1, out=seeds[3:], mode="clip")  # "raise" would buffer
    ratio = seeds[2:4]
    pair[:, 0] = seeds[0:2]
    for q in range(1, n_q):
        np.multiply(pair[:, q - 1], ratio, out=pair[:, q])
        ratio[0] *= seeds[4]
    step[...] = seeds[5]


def _chi_rows(den, delta, x, x_mid, eta, eta1, dy, g) -> np.ndarray:
    """Write chi / g at row 0 into den.real and the difference of rows 1
    and 0 into ``delta``, and return the constant by which that difference
    grows from one row to the next: the additive twin of
    :func:`_phase_seeds`, whose nodes it shares.

    ``eta1`` holds row 0's eta1 nodes, (Q, n, 1), c0 = eta1[0]; ``den``
    and ``delta`` are complex and float (Q, n, cells), and ``g`` is the
    kernel factor of :func:`_kernel_factors` at the xi1 nodes.  With w_j = u - v j,
    u = xi1 eta - xi c0 and v = xi dy, chi_j = 3 prod + w_j^2 / prod is a
    quadratic in j, so the difference of row p + 1 and row p,

        D_p(q) = (chi_{j+Q} - chi_j) / g = v Q (2 v j + v Q - 2 u) / (prod g),

    is linear in j = Q p + q and grows by 2 (v Q)^2 / (prod g) per row.
    Row p + 1 is then den.real += D_p, D_{p+1} = D_p + constant: two
    passes per node in place of chi's four and its division.
    """
    n_q = delta.shape[0]
    _chi_into(den.real, x, x_mid, eta, eta1, g)
    vq = (x * n_q) * dy
    per_row = vq / (x * x_mid * (x - x_mid) * g)  # v Q / (prod g)
    u = x_mid * eta
    u -= x * eta1[0]
    u *= 2.0
    np.subtract(vq + (2.0 * x * np.arange(n_q))[:, None, None] * dy, u, out=delta)
    delta *= per_row
    per_row *= 2.0 * vq
    return per_row


def _window_density(N: float, s: float, t: float, cells: int) -> tuple[np.ndarray, float, float]:
    """|uhat_2|^2-weighted H^{s,0} integrand sampled on the output window.

    Returns (table, hx, hy): ``table[i, j]`` is xi^2 (1+xi^2)^s |I(xi_i, eta_j)|^2
    at window midpoints, with I the bare k-set integral (prefactor modulus
    xi folded into the weight).  Vectorized one outer-xi row at a time.
    The row's non-empty columns (outer eta) are taken in groups of
    ``group`` in window order, and a group's eta1 nodes in rows of Q
    (:func:`_row_shape`: Q = 4, and every column in one group at cells=64,
    32 columns at cells=128).  A row of a group is (Q, group, cells) inner
    nodes (eta1, eta, xi1), about 16K, and is one call of :func:`_kernel`.
    xi1 is the inner axis, so the factors of (t, xi, xi1) alone
    (:func:`_kernel_factors`) are per-row vectors along it; eta1 is the
    outer axis, so each row is contiguous.

    Each row makes eight large numpy calls and no others: the next phase
    row and row ratio (:func:`_phase_seeds`), the next chi / g and its row
    difference (:func:`_chi_rows`), the kernel's numerator as one product
    into a second buffer, so that the phase row survives, and one real
    subtraction, its complex division, and one sum over (eta1, xi1) into a
    row of per-call column sums.  The views a row uses are made before a
    group's rows; the row factors (the phase step, chi's growth and the
    kernel's r) are written once per group in the row's shape, so that no
    row call broadcasts, and the denominator's imaginary part is set once
    per group.  Every call releases the interpreter lock and lets
    scaling_study's other thread take it, so the calls are few and large.
    On a 2-vCPU Xeon a four-N sweep at cells=64 cost 0.96 s of CPU on one
    thread, and 1.11 s of CPU and 0.63 s of wall time on two, with about
    7.5K voluntary context switches (medians of 10 alternating runs).
    Rows of 10K nodes (two groups per row at cells=64) once made 47K
    switches.

    A row allocates nothing.  The call allocates its buffers once, each
    viewed in the shape of the group at hand: the phase row and row ratio
    side by side, the denominator and numerator side by side, chi's row
    difference and its growth, r and the step.  The group's seeds are made
    in the first two, so no seed array is allocated.  The buffers belong
    to the call, so calls on concurrent threads share nothing.  The whole
    call's allocations peak at 1.92 MiB at cells=64 and 2.15 MiB at
    cells=128 (tracemalloc, N=16).

    Separable phase.  Every column's eta1 nodes are an arithmetic
    progression c0 + j dy with the column's own c0 and dy: D_2's eta side
    in a full column, whose k1 eta interval is all of D_2's (11 of the
    window's 13 N^2), a shorter interval in a clipped one.  So h and chi
    are quadratics in j at every (eta, xi1), and no node of the quadrature
    pays a sine, a cosine or chi's division; only the public
    :func:`kernel_K` evaluates them directly.  Against that direct form,
    each table cell agrees within 6.2e-14 relative (N in {16, 128}, cells
    in {64, 67, 96}).

    The quadrature runs under its own errstate (it may run on a worker
    thread, which a caller's errstate does not reach): it stops at the first
    row whose value is not finite and leaves that row and the rest NaN.
    """
    xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
    xi_nodes, hx = _midpoints(np.float64(xi_lo), np.float64(xi_hi), cells)
    eta_nodes, hy = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)

    amp2 = float(N) ** (2.0 * (-1.5 - s))
    table = np.zeros((cells, cells))

    x_lo, x_hi, y_lo, y_hi = _k1_bounds(rectangle_pair(N), xi_nodes, eta_nodes)
    y_mid, wy = _midpoints(y_lo, y_hi, cells)

    cols = np.flatnonzero(y_lo < y_hi)  # empty columns stay 0
    n_q, group = _row_shape(cells)
    n_p = -(-cells // n_q)  # rows; the last is padded past eta1 node cells - 1
    eta_col, c0, dy = eta_nodes[:, None], y_mid[:, :1], wy[:, None]
    eta1_row0 = y_mid[:, :n_q].T[:, :, None]  # (Q, eta, 1)

    # Per-call buffers, shaped per group: the phase row and its row ratio,
    # the kernel's denominator and numerator, chi's row difference and its
    # growth, the kernel's r and the phase step, the last three in the
    # row's shape so that no row call broadcasts.  Concurrent calls
    # (scaling_study's threads) share none.
    size = n_q * min(group, cols.size) * cells
    pair_buf = np.empty(2 * size, dtype=complex)
    quot_buf = np.empty(2 * size, dtype=complex)
    delta_buf = np.empty(size)
    grow_buf = np.empty(size)
    r_buf = np.empty(size)
    step_buf = np.empty(size, dtype=complex)
    sums = np.empty((n_p, cols.size), dtype=complex)  # per row and column
    groups = []  # (start, columns, their distinct eta1 steps, column -> step)
    for j in range(0, cols.size, group):
        dy_u, col = np.unique(wy[cols[j:j + group]], return_inverse=True)
        groups.append((j, cols[j:j + group], dy_u[:, None], col))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, x in enumerate(xi_nodes):
            if x_lo[i] >= x_hi[i]:
                continue
            x_mid, wx = _midpoints(x_lo[i], x_hi[i], cells)
            g, c, r = _kernel_factors(t, x, x_mid)
            for j, block, dy_u, col in groups:
                n = block.size
                shape = (n_q, n, cells)
                nodes = n_q * n * cells
                phase, ratio = pair = pair_buf[:2 * nodes].reshape((2,) + shape)
                den, num = quot = quot_buf[:2 * nodes].reshape((2,) + shape)
                den_real, num_imag = den.real, num.imag
                delta = delta_buf[:nodes].reshape(shape)
                grow = grow_buf[:nodes].reshape(shape)
                step = step_buf[:nodes].reshape(shape)
                r_row = r_buf[:nodes].reshape(shape)
                r_row[...] = r
                eta = eta_col[block]
                _phase_seeds(pair, quot, step, t, x, x_mid, eta, c0[block], dy_u, col)
                grow[...] = _chi_rows(den, delta, x, x_mid, eta, eta1_row0[:, block],
                                      dy[block], g)
                den.imag[...] = c
                # the last row's nodes past eta1 node cells - 1 are padding
                heads = [num] * (n_p - 1) + [num[:cells - n_q * (n_p - 1)]]
                for p, (K, total) in enumerate(zip(heads, sums[:, j:j + n])):
                    if p:
                        phase *= ratio
                        ratio *= step
                        den_real += delta
                        delta += grow
                    _kernel(den, phase, num, num_imag, r_row)
                    np.add.reduce(K, axis=(0, 2), out=total)
            col_sums = np.add.reduce(sums, axis=0)
            mod2 = col_sums.real * col_sums.real + col_sums.imag * col_sums.imag
            mod2 *= (2.0 * amp2 * wx * wy[cols]) ** 2
            table[i, cols] = x * x * (1.0 + x * x) ** s * mod2
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
        norm_u2=math.sqrt(norm_sq), norm_phi=phi.sobolev_norm(s),
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

    The N values run on ``threads`` worker threads (None: ``os.cpu_count()``;
    fewer than 1 is a ValueError), and the results do not depend on it.
    The threads queue on the interpreter lock between numpy calls: on 2
    CPUs the four-N sweep at cells=64 costs 17% more CPU on two threads
    than on one (0.96 -> 1.11 s user+sys, medians of 10 alternating runs),
    with about 7.5K voluntary context switches (:func:`_window_density`).
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    Ns = [float(N) for N in N_list]
    if len(Ns) < 4:
        raise ValueError(f"need at least 4 values of N, got {len(Ns)}")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N_list must be strictly increasing, without duplicates")
    _check_norm_args(Ns[0], cells)  # the smallest N: fail before any quadrature
    if threads is None:
        threads = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=threads) as pool:
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
    if samples < MIN_CHI_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_CHI_SAMPLES}, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
