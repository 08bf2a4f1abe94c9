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
it determines the rest: the ``rfft2`` half spectrum, the columns
ky = 0 .. ny/2 of the full (nx, ny) array.  Every solver state is also
masked to the dealias band, so the solvers keep less still.  The solver
band is the half spectrum's rows |kx| <= f nx/2, in FFT order, and its
leading columns ky = 0 .. f ny/2, for the grid's dealias fraction f.  At
256^2 and f = 2/3 that is 171 x 86 of the 256 x 129 half-spectrum
entries.  ``_dx_product`` transforms a band in one zeroed half-spectrum
scratch per call: along x on the band's columns only, and along y on the
whole zero-padded half spectrum, where numpy's ``irfft`` takes less time
than on the band's columns for the same bits (see there).  The band
equals ``irfft2``/``rfft2`` of its half spectrum bit for bit.
``_full`` expands a band by conjugate mirroring at the ``Trajectory``
boundary and for the L^2 norms only, and writes +0.0 off it.
``Trajectory``, ``picard_step``, ``nonlinearity`` and ``l2_history`` take
and return full spectra.  ``picard_step`` takes a trajectory that need
not be band-limited, so it passes a whole half spectrum as its band.  The
solvers' trajectories are exactly Hermitian.  ``_band_form`` is the one
way from bands to a mode form (``modes.ModeForm``): ``band_form`` of the
solver's bands, as ``kpblab norms`` reads them from ``states.npz``, and
``dx_product``, the one product of two fields kept as mode forms, as
``verify`` keeps them; ``nonlinearity`` is the product of a field's mode
form with itself.

``solve_states`` is the one path from a datum to the states of either
integrator, one band state at a time with its L^2 norm; ``solve_picard``
and ``solve_etd`` expand and collect them into a ``Trajectory``.  A Picard solve
holds two band trajectories while it iterates (the W(t_k) phi table and
the one iterate, updated in place) and one after; an ETD stream holds
one band state; a collector adds one full (M+1, nx, ny) trajectory.
Whatever keeps a trajectory estimates its bytes before allocating
anything and raises ``ValueError`` when they exceed the machine's
physical memory.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .modes import ModeForm
from .semigroup import w_multiplier
from .spectral_core import Grid2D, SpectralField, dispersion_values

__all__ = [
    "Trajectory",
    "PicardReport",
    "dx_product",
    "nonlinearity",
    "picard_step",
    "solve_states",
    "solve_picard",
    "solve_etd",
    "l2_history",
]

_MIN_SOLVE_STEPS = 8  # smallest M (time steps) of a solve
_COMPACT_BLOCK = 2 ** 20  # bytes of live values a mode form moves at a time
PHI_SERIES_CUTOFF = 1e-2  # |z| below which phi1, phi2 use their Taylor series


def time_step(times: np.ndarray) -> float:
    """The step dt of the uniform time grid t_0 = 0 < ... < t_M in
    ``times``; raises ``ValueError`` if ``times`` is not one."""
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two time samples")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise ValueError("times must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
        raise ValueError("time grid must be uniform")
    return float(times[1] - times[0])


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
        time_step(self.times)
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
    """Convergence record for one Picard solve: one residual per update in
    ``residual_history``, whose length is ``iterations``.

    ``stop_reason`` says why the iteration ended: ``converged`` (the
    residual reached tol), ``max_iter`` (the iteration budget ran out),
    ``non_finite`` or ``residual_grew`` (the last residual is not finite,
    or larger than the one before it).
    """

    residual_history: list[float] = field(default_factory=list)
    stop_reason: str = "max_iter"

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _band(grid: Grid2D) -> tuple[np.ndarray, int]:
    """(rows, cols) of the solver band: the half-spectrum rows the dealias
    mask keeps, in increasing order (row 0, kx = 0, first), and the number
    of leading columns ky = 0 .. cols-1 it keeps."""
    half = grid.dealias_mask[:, :grid.ny // 2 + 1]
    return np.flatnonzero(half[:, 0]), int(np.count_nonzero(half[0]))


def band_shape(grid: Grid2D) -> tuple[int, int]:
    """(rows, cols), the shape of one state on the solver band (``_band``)."""
    rows, cols = _band(grid)
    return rows.size, cols


def _whole(grid: Grid2D) -> tuple[np.ndarray, int]:
    """(rows, cols) of the whole ``rfft2`` half spectrum, as a band."""
    return np.arange(grid.nx), grid.ny // 2 + 1


def _full(band: np.ndarray, rows: np.ndarray, shape: tuple[int, int],
          out: np.ndarray | None = None) -> np.ndarray:
    """Expand band spectra (..., len(rows), C) to full spectra (..., nx, ny).

    ``band`` holds the half-spectrum rows ``rows`` in the columns
    ky = 0 .. C-1.  Column ky = -j is the conjugate of column j read at
    -kx.  The ky = 0 and Nyquist columns are their own mirrors:
    their kx < 0 rows are rebuilt from the kx > 0 rows and their
    self-conjugate modes kx = 0, -nx/2 keep only the real part, so the
    result is exactly Hermitian.  Every entry off the band and its mirror
    is +0.0; ``out``, if given, must already be, as it is after an earlier
    expansion of the same band.
    """
    nx, ny = shape
    h, cols = ny // 2 + 1, band.shape[-1]
    if out is None:
        out = np.zeros(band.shape[:-2] + shape, dtype=complex)
    out[..., rows, :cols] = band
    inner = min(cols, h - 1)  # columns 1 .. inner-1 are mirrored as a whole
    out[..., -rows % nx, ny - inner + 1:] = np.conjugate(band[..., inner - 1:0:-1])
    edges = out[..., ::h - 1] if cols == h else out[..., :1]  # views
    pos = rows[(rows > 0) & (rows < nx // 2)]
    edges[..., -pos % nx, :] = np.conjugate(edges[..., pos, :])
    edges.imag[..., rows[rows % (nx // 2) == 0], :] = 0.0
    return out


def _prepared_data(phi: SpectralField, rows: np.ndarray, cols: int) -> np.ndarray:
    """Band of the dealiased, KP-projected initial data.

    Band-limiting the data to the dealias mask makes the semi-discrete energy
    identity <d/dx(u^2), u> = 0 exact, which is what keeps the discrete L^2
    history nonincreasing.
    """
    grid = phi.grid
    c = np.where(grid.dealias_mask[rows, :cols], phi.coeffs[rows, :cols], 0.0)
    c[0] = 0.0
    return c


def _dx_table(grid: Grid2D, rows: np.ndarray, cols: int) -> np.ndarray:
    """Multiplier i xi on a band, zero off the dealias mask and on xi = 0."""
    table = np.where(grid.dealias_mask[rows, :cols], 1j * grid.xi[rows, None], 0.0)
    table[0] = 0.0
    return table


def _dx_product(a: np.ndarray, b: np.ndarray, shape: tuple[int, int],
                rows: np.ndarray, table: np.ndarray, scratch: bool = False) -> np.ndarray:
    """Band of d/dx(u v), dealiased and KP-projected, from the bands ``a``
    of u and ``b`` of v on a grid of ``shape`` points; leading axes are a
    batch.  A band holds the half-spectrum rows ``rows`` in the leading
    columns that ``table``, its ``_dx_table``, covers.  Passing the same
    array twice squares with one inverse transform.

    A whole half spectrum (every row, ``rows`` 0 .. nx-1, and every column,
    as on a band grid) is transformed as it is: ``ifft`` along x and
    ``irfft`` along y, then ``rfft`` along y and ``fft`` along x.  With
    ``scratch``, such an ``a`` and ``b`` are the caller's scratch: each
    takes its ``ifft`` in place and is dropped before the next is
    transformed, so a caller that binds them to no name of its own holds
    at most one of them, with the product's samples.  A
    narrower band (the solver band) goes through one zeroed half-spectrum
    scratch per call: the band is scattered into its rows and leading
    columns, ``ifft`` runs along x in place on those columns only, and
    ``irfft`` runs on the whole zero-padded scratch: numpy's ``irfft``
    gives the same bits when it pads a shorter input itself, but takes
    about 28% less time on the padded one.  The scratch then takes the
    ``rfft`` of the product, ``fft`` runs along x in place on the band's
    columns, and the band's rows are gathered.  Every line gets the
    arithmetic ``irfft2``/``rfft2`` give it, so the band equals theirs
    bit for bit.  The grid's sign table is left out on both sides: it
    only shifts the samples by half a period, which commutes with the
    pointwise product.
    """
    nx, ny = shape
    cols = table.shape[-1]
    if rows.size == nx and cols == ny // 2 + 1:  # rows are distinct and increasing
        def inverse(c: np.ndarray) -> np.ndarray:
            return np.fft.irfft(np.fft.ifft(c, axis=-2, out=c if scratch else None),
                                n=ny, axis=-1)

        square = b is a
        u = inverse(a)
        del a
        u *= u if square else inverse(b)
        del b
        w = np.fft.rfft(u, axis=-1)
        del u
        np.fft.fft(w, axis=-2, out=w)
        w *= table
        return w

    half = np.zeros(a.shape[:-2] + (nx, ny // 2 + 1), dtype=complex)
    lines = half[..., :cols]  # the band's columns, a view

    def padded_inverse(c: np.ndarray) -> np.ndarray:
        lines[..., rows, :] = c
        np.fft.ifft(lines, axis=-2, out=lines)
        return np.fft.irfft(half, n=ny, axis=-1)

    u = padded_inverse(a)
    if b is a:
        u *= u
    else:
        lines[...] = 0.0
        u *= padded_inverse(b)
    np.fft.rfft(u, axis=-1, out=half)
    np.fft.fft(lines, axis=-2, out=lines)
    w = lines[..., rows, :]
    w *= table
    return w


def _nonlin(band: np.ndarray, grid: Grid2D, rows: np.ndarray,
            table: np.ndarray) -> np.ndarray:
    """Band of d/dx(u^2), dealiased and KP-projected."""
    return _dx_product(band, band, (grid.nx, grid.ny), rows, table)


def _fast_size(band: int, n: int) -> int:
    """Points along an axis of n points for a product band |k| <= band:
    2 band + 2 (the band with an empty Nyquist line), rounded up to the
    next even size with no prime factor above 5 when that still fits n."""
    size = fast = 2 * band + 2
    while True:
        rest = fast
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return fast if fast <= n else size
        fast += 2


def _band_extent(grid: Grid2D, *occupied: np.ndarray
                 ) -> tuple[tuple[int, int], tuple[int, int]]:
    """((mx, my), (bx, by)) for the product of fields occupying the flat
    modes ``occupied`` (one index array per field, each mode's mirror
    counting as occupied too): it occupies |kx| <= bx and |ky| <= by, the
    sums of the occupied bands, and is multiplied without aliasing on the
    mx x my band grid.

    Along each axis that grid is the smallest even size with no prime
    factor above 5 that holds 2B + 2 points, the band with its Nyquist
    line empty, so pocketfft transforms it fast: 36 for B = 16, the
    product of two fields in |k| <= 8, where 2B + 2 = 34 = 2 * 17 is slow.
    Where that size does not fit the grid but 2B + 2 does (B = 16 on 34
    points), the band grid is 2B + 2; where neither fits,
    ``_product_layout`` takes the whole grid.
    """
    bx = by = 0
    for modes in occupied:
        kx, ky = np.divmod(modes, grid.ny)
        bx += int(np.max(np.abs(grid.kx_int[kx])))
        by += int(np.max(np.abs(grid.ky_int[ky])))
    return (_fast_size(bx, grid.nx), _fast_size(by, grid.ny)), (bx, by)


def _product_layout(grid: Grid2D, size: tuple[int, int], band: tuple[int, int]
                    ) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """(shape, rows, table) of the product in the band |kx| <= bx, |ky| <=
    by on the mx x my band grid (``size`` and ``band`` as
    ``_band_extent`` gives them): its half spectrum holds the grid's rows
    ``rows`` and ``table.shape[-1]`` leading columns, and ``table`` is the
    grid's own ``_dx_table`` (dealias mask and xi = 0 projection) there,
    zero outside the band, which drops the band grid's Nyquist row and
    column and the empty lines past the band, with the transform scale
    (mx*my)/(nx*ny) restored.  A band grid too large for the grid takes
    the whole grid, whose whole half spectrum is then the band.
    """
    (mx, my), (bx, by) = size, band
    wide = mx > grid.nx or my > grid.ny
    if wide:
        mx, my = grid.nx, grid.ny
    rows = np.fft.fftfreq(mx, d=1.0 / mx).astype(np.int64) % grid.nx
    table = _dx_table(grid, rows, my // 2 + 1)
    if not wide:
        table *= mx * my / (grid.nx * grid.ny)
        table[bx + 1:mx - bx] = 0.0
        table[:, by + 1:] = 0.0
    return (mx, my), rows, table


def _band_form(grid: Grid2D, rows: np.ndarray, cols: int, n: int, blocks) -> ModeForm:
    """The mode form of the n band states that the iterable ``blocks``
    yields as consecutive blocks (m, len(rows), cols) of time rows, each
    the band of a full spectrum that ``_full`` expands, from one pass over
    the blocks.  Its columns, weights and values are those that
    ``ModeForm.gather`` gives of the expanded rows, bit for bit, when no
    mapped entry is NaN (see ``modes`` for the NaN rule).

    The gather map is the gathered form of one row that ``_full`` expands
    from a tag of each band entry: it names the band entry behind each
    column and whether the column holds its conjugate or its real part
    alone (a self-conjugate mode); the entries that ``_full`` rebuilds
    from their mirrors, the kx < 0 rows of the ky = 0 column whose kx > 0
    row is in the band, are never read.  A column that stays zero at
    every time is dropped in place, after the pass, so the values never
    take more than the mapped columns.
    """
    shape = (grid.nx, grid.ny)
    tags = (1.0 + 1.0j) * np.arange(1, rows.size * cols + 1).reshape(rows.size, cols)
    tag_form = ModeForm.gather(grid, _full(tags, rows, shape).reshape(1, -1))
    tag = tag_form.values[0]
    source, conjugated, real = tag.real.astype(np.intp) - 1, tag.imag < 0.0, tag.imag == 0.0
    values = np.empty((n, source.size), dtype=complex)
    live = np.zeros(source.size, dtype=bool)
    t = 0
    for block in blocks:
        chunk = values[t:t + len(block)]
        # mode="clip" (source is in range) lets take write into values unbuffered
        np.take(block.reshape(len(block), -1), source, axis=1, out=chunk, mode="clip")
        np.conjugate(chunk, out=chunk, where=conjugated)
        chunk.imag[:, real] = 0.0
        live |= np.any(chunk, axis=0)
        t += len(block)
    k = int(np.count_nonzero(live))
    if k < live.size:
        # row t's live values move to flat[t k:(t+1) k], below its own
        # row, so each block of rows is copied out before it is overwritten
        flat = values.reshape(-1)
        step = max(1, _COMPACT_BLOCK // (16 * max(k, 1)))
        for t in range(0, n, step):
            end = min(t + step, n)
            flat[t * k:end * k] = values[t:end, live].reshape(-1)
        values = flat[:n * k].reshape(n, k)
    return ModeForm(grid, tag_form.cols[live], tag_form.colw[live], values)


def band_form(grid: Grid2D, n: int, blocks) -> ModeForm:
    """The mode form of the n states on the solver band of ``grid`` (the
    ``solve_states`` bands) that the iterable ``blocks`` yields as
    consecutive blocks (m, rows, cols) of time rows: the gathered form
    (``ModeForm.gather``) of their full spectra, a NaN pair aside (see
    ``modes``), from one pass over the blocks (``_band_form``)."""
    rows, cols = _band(grid)
    return _band_form(grid, rows, cols, n, blocks)


def dx_product(u: ModeForm, v: ModeForm) -> ModeForm:
    """The mode form of d/dx(u v), dealiased and KP-projected, for mode
    forms u and v on one grid and time grid; passing one form twice
    squares it.  No full (n, nx, ny) array is built.

    u and v are placed straight into the half spectra of the band grid of
    ``_band_extent``, laid out by ``_product_layout``, and multiplied
    there: exactly up to rounding, and zero outside the product's band,
    on a band grid that fits.  The two expansions go to ``_dx_product`` as
    its scratch, bound to no name here, so each is freed once it has been
    transformed (CPython 3.11 and later move a call's arguments into the
    callee's frame).  The product's band becomes a mode form
    through ``_band_form``, so the columns, weights and values are those
    of the gathered form of the expanded product, a NaN pair aside.
    Forms on two grids, or with different numbers of time rows, are a
    ValueError.
    """
    grid = u.grid
    n = len(u.values)
    if v.grid is not grid:
        raise ValueError("u and v must be mode forms on one grid")
    if len(v.values) != n:
        raise ValueError(f"u and v must have as many time rows, got {n} and {len(v.values)}")
    if u.cols.size == 0 or v.cols.size == 0:
        return ModeForm(grid, np.zeros(0, dtype=np.intp), np.zeros(0),
                        np.zeros((n, 0), dtype=complex))
    shape, rows, table = _product_layout(grid, *_band_extent(grid, u.cols, v.cols))
    pos = rows[:, None] * grid.ny + np.arange(table.shape[-1])
    if v is u:
        square = u.expand(pos)
        w = _dx_product(square, square, shape, np.arange(shape[0]), table, scratch=True)
    else:
        w = _dx_product(u.expand(pos), v.expand(pos), shape, np.arange(shape[0]), table,
                        scratch=True)
    return _band_form(grid, rows, table.shape[-1], n, (w,))


def nonlinearity(f: SpectralField) -> SpectralField:
    """Return the spectral field of d/dx(u^2) for the real field behind ``f``:
    ``dx_product`` of its mode form with itself, expanded to the grid."""
    form = ModeForm.gather(f.grid, f.coeffs.reshape(1, -1))
    coeffs = dx_product(form, form).expand().reshape(f.coeffs.shape)
    return SpectralField(grid=f.grid, coeffs=coeffs)


def _picard_tables(phi: SpectralField, times: np.ndarray, rows: np.ndarray,
                   cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-solve invariants of a Picard update, on a band: W(t_k) phi
    for every k, the one-step factor W(dt), and ``_dx_table``."""
    grid = phi.grid
    P = dispersion_values(grid)[rows, :cols]
    xi = grid.xi[rows, None]
    phi_c = _prepared_data(phi, rows, cols)
    w_phi = np.empty((times.size,) + phi_c.shape, dtype=complex)
    w_phi[0] = phi_c
    for k in range(1, times.size):
        np.multiply(w_multiplier(P, xi, times[k]), phi_c, out=w_phi[k])
    w_dt = w_multiplier(P, xi, float(times[1] - times[0]))
    return w_phi, w_dt, _dx_table(grid, rows, cols)


def _picard_update(it: np.ndarray, grid: Grid2D, dt: float, w_phi: np.ndarray,
                   w_dt: np.ndarray, rows: np.ndarray, table: np.ndarray,
                   g_0: np.ndarray, change: _BandEnergy | None = None) -> None:
    """Replace the iterate ``it`` on the band ``rows`` by its Picard update,
    one row at a time, given g_0 = d/dx(it[0]^2).  Row k's g_k is formed
    from its old value before the new one is written.  ``change``, if
    given, is fed each row's change, old minus new."""
    g_prev = g_0
    acc = np.zeros_like(w_phi[0])
    tmp = np.empty_like(acc)
    for k in range(len(it)):
        if k == 0:
            np.copyto(tmp, w_phi[0])
        else:
            g_k = _nonlin(it[k], grid, rows, table)
            # acc = W(dt) acc + (dt/2) (W(dt) g_{k-1} + g_k), in place
            acc *= w_dt
            np.multiply(g_prev, w_dt, out=tmp)
            tmp += g_k
            tmp *= 0.5 * dt
            acc += tmp
            np.multiply(acc, 0.5, out=tmp)
            np.subtract(w_phi[k], tmp, out=tmp)  # the new row
            g_prev = g_k
        if change is not None:
            it[k] -= tmp
            change.add(k, it[k])
        it[k] = tmp


def picard_step(prev: Trajectory, phi: SpectralField) -> Trajectory:
    """One Picard update: insert ``prev`` into the Duhamel right-hand side.

    next(t_k) = W(t_k) phi - (1/2) * trapezoid over [0, t_k] of
    W(t_k - t') d/dx(prev(t')^2).  The running integral A_k satisfies the
    recurrence A_k = W(dt) A_{k-1} + (dt/2) (W(dt) g_{k-1} + g_k) with
    g_j = d/dx(prev(t_j)^2), which reproduces the trapezoid weights while
    only ever applying the one-step propagator.
    """
    grid = prev.grid
    rows, cols = _whole(grid)  # prev need not be band-limited
    w_phi, w_dt, table = _picard_tables(phi, prev.times, rows, cols)
    out = np.array(prev.coeffs[..., :cols], dtype=complex)
    _picard_update(out, grid, prev.dt, w_phi, w_dt, rows, table,
                   _nonlin(out[0], grid, rows, table))
    return Trajectory(grid=grid, times=prev.times,
                      coeffs=_full(out, rows, (grid.nx, grid.ny)))


class _BandEnergy:
    """Per-state sums of |c|^2 over the full spectra behind n band states
    (len(rows), C), given in order to ``add``; ``energy`` holds them, bit
    for bit as of all n in one batch.

    The states go two at a time into a two-row half-spectrum batch that is
    zero off the band, weighted 1 in the ky = 0 and Nyquist columns and 2
    in the others, whose mirrors it omits (Parseval).  einsum sums any
    batch of two or more rows in the same per-row order (see
    ``solve_states``).  After an odd count the second row holds a stale
    state whose energy is dropped.
    """

    def __init__(self, grid: Grid2D, rows: np.ndarray, n: int) -> None:
        self.rows = rows
        self.half = np.zeros((2, grid.nx, grid.ny // 2 + 1), dtype=complex)
        self.weights = np.full(2 * self.half.shape[-1], 2.0)
        self.weights[:2] = self.weights[-2:] = 1.0
        self.energy = np.empty(n)

    def add(self, k: int, state: np.ndarray) -> None:
        """Take state k, after states 0 .. k-1."""
        self.half[k % 2, self.rows, :state.shape[-1]] = state
        if k % 2 or k == len(self.energy) - 1:
            v = self.half.view(np.float64)
            sums = np.einsum("kij,kij,j->k", v, v, self.weights)
            self.energy[k - k % 2:k + 1] = sums[:k % 2 + 1]


def _l2_rows(coeffs: np.ndarray, cell_measure: float) -> np.ndarray:
    """L^2 norm (Parseval) of each full spectrum in ``coeffs`` (K, nx, ny)."""
    c = np.ascontiguousarray(coeffs, dtype=complex)
    v = c.reshape(c.shape[0], -1).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", v, v) * cell_measure)


def l2_history(traj: Trajectory) -> np.ndarray:
    """Per-time L^2 norms of the trajectory states (Parseval)."""
    return _l2_rows(traj.coeffs, traj.grid.cell_measure)


def _time_grid(T: float, M: int) -> np.ndarray:
    if not 0 < T < math.inf:  # written so that NaN fails too
        raise ValueError(f"T must be positive and finite, got {T}")
    if M < _MIN_SOLVE_STEPS:
        raise ValueError(f"M must be >= {_MIN_SOLVE_STEPS}, got {M}")
    return np.linspace(0.0, T, M + 1)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def check_memory(solver: str, grid: Grid2D, M: int, band_tables: int,
                 full_tables: int) -> None:
    """Raise ``ValueError`` if the trajectories a solve keeps, ``band_tables``
    (M+1, rows, cols) arrays on the solver band and ``full_tables`` full
    (M+1, nx, ny) complex arrays, exceed physical memory.  Called before
    anything is allocated."""
    rows, cols = _band(grid)
    per_state = (band_tables * rows.size * cols + full_tables * grid.nx * grid.ny) * 16
    needed = (M + 1) * per_state
    memory = _physical_memory()
    if memory is not None and needed > memory:
        raise ValueError(
            f"{solver} with M={M} on a {grid.nx}x{grid.ny} grid would keep "
            f"{needed / 2**30:,.1f} GiB of trajectory, more than the "
            f"{memory / 2**30:,.1f} GiB of physical memory")


def _picard_band(phi: SpectralField, times: np.ndarray, tol: float,
                 max_iter: int) -> tuple[np.ndarray, PicardReport]:
    """(last iterate on the solver band, report) of the Picard solve of
    ``solve_picard`` on the time grid ``times``.

    The solve holds two band trajectories: the W(t_k) phi table, which is
    released on return, and the one iterate, which each update overwrites
    row by row (``_picard_update``).  The residual is the largest L^2 norm
    of a state's change, summed as each row is replaced."""
    if not tol > 0:  # written so that NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    grid = phi.grid
    dt = float(times[1] - times[0])
    rows, cols = _band(grid)
    w_phi, w_dt, table = _picard_tables(phi, times, rows, cols)
    report = PicardReport()
    history = report.residual_history
    with np.errstate(over="ignore", invalid="ignore"):
        # Row 0 of every iterate is the datum, so every update shares
        # g_0 = d/dx(phi^2).
        g_0 = _nonlin(w_phi[0], grid, rows, table)
        change = _BandEnergy(grid, rows, len(times))  # every iteration refills it
        for _ in range(max_iter):
            if not history:
                # d/dx(0^2) = 0: the update of the zero start is W(t_k) phi,
                # and its change 0 - W(t_k) phi squares like W(t_k) phi
                it = w_phi.copy()
                for k, row in enumerate(it):
                    change.add(k, row)
            else:
                _picard_update(it, grid, dt, w_phi, w_dt, rows, table, g_0, change)
            res = float(np.sqrt(np.max(change.energy * grid.cell_measure)))
            history.append(res)
            if not math.isfinite(res):
                report.stop_reason = "non_finite"
            elif res <= tol:
                report.stop_reason = "converged"
            elif len(history) > 1 and res > history[-2]:
                report.stop_reason = "residual_grew"
            else:
                continue
            break
    return it, report


def solve_states(phi: SpectralField, T: float, M: int, integrator: str = "picard",
                 tol: float = 1e-10, max_iter: int = 25
                 ) -> tuple[np.ndarray, PicardReport | None, Iterator]:
    """(times, report, states) of a solve on the grid t_k = k T / M that
    keeps no full trajectory.

    ``states`` yields (k, u_k, its L^2 norm) for k = 0, 1, ...: u_k is the
    state at ``times[k]`` on the solver band, a (rows, cols) array of
    ``band_shape(grid)`` that the caller must not modify; ``_full``
    expands it to the full (nx, ny) spectrum.  The norm is taken of that
    expansion, in one reused buffer: row 0 of a two-row batch whose row 1
    stays zero.  einsum sums a one-row batch in a single pass but a
    longer one in chunks, and only the batch keeps ``l2_history``'s
    summation order, so the norms equal it bit for bit.

    ``"picard"`` iterates before this returns, on two band tables (see
    ``_picard_band``), and keeps only the last band iterate; ``report`` is
    its ``PicardReport``.  ``"etd"`` steps as the states are drawn and
    stops after the first one that is not finite; ``report`` is None, and
    ``tol`` and ``max_iter`` are unread.  The arguments and a Picard
    solve's memory estimate are checked before anything is allocated.
    """
    grid = phi.grid
    if integrator == "picard":
        check_memory(integrator, grid, M, band_tables=2, full_tables=0)
    elif integrator != "etd":
        raise ValueError(f"integrator must be picard or etd, got {integrator!r}")
    times = _time_grid(T, M)
    if integrator == "picard":
        band, report = _picard_band(phi, times, tol, max_iter)
        band_states = enumerate(band)
    else:
        band_states, report = _etd_states(phi, times), None
    rows, _ = _band(grid)

    def states():
        buf = np.zeros((2, grid.nx, grid.ny), dtype=complex)
        for k, u in band_states:
            _full(u, rows, (grid.nx, grid.ny), out=buf[0])
            yield k, u, float(_l2_rows(buf, grid.cell_measure)[0])

    return times, report, states()


def _collect(phi: SpectralField, T: float, M: int, integrator: str,
             **options) -> tuple[Trajectory, PicardReport | None]:
    """(``solve_states`` collected into a ``Trajectory``, NaN after an early
    ETD stop; its report).  What the solve keeps is checked to fit first."""
    grid = phi.grid
    band_tables = 2 if integrator == "picard" else 0
    check_memory(f"solve_{integrator}", grid, M, band_tables, full_tables=1)
    times, report, states = solve_states(phi, T, M, integrator, **options)
    rows, _ = _band(grid)
    out = np.zeros((times.size, grid.nx, grid.ny), dtype=complex)
    for k, band, _ in states:
        _full(band, rows, (grid.nx, grid.ny), out=out[k])
    out[k + 1:] = np.nan
    return Trajectory(grid=grid, times=times, coeffs=out), report


def solve_picard(phi: SpectralField, T: float, M: int, tol: float = 1e-10,
                 max_iter: int = 25) -> tuple[Trajectory, PicardReport]:
    """Iterate ``picard_step`` from the zero trajectory until the sup-in-time
    L^2 difference of successive iterates drops below ``tol``.

    The output collects ``solve_states``: it is allocated after the
    W(t_k) phi table is released.  Non-convergence is reported, not
    raised: the iteration also ends, unconverged, at the first residual
    that is not finite or that is larger than the one before it
    (``PicardReport.stop_reason``).
    """
    return _collect(phi, T, M, "picard", tol=tol, max_iter=max_iter)


def _phis(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi1(z), phi2(z)) = ((e^z - 1)/z, (e^z - 1 - z)/z^2), each with a
    Taylor series branch near 0 to avoid cancellation."""
    small = np.abs(z) < PHI_SERIES_CUTOFF
    zs = np.where(small, z, 0.0)
    zb = np.where(small, 1.0, z)
    e1 = np.exp(zb) - 1.0
    phi1 = np.where(small, 1.0 + zs / 2 + zs ** 2 / 6 + zs ** 3 / 24 + zs ** 4 / 120
                    + zs ** 5 / 720, e1 / zb)
    phi2 = np.where(small, 0.5 + zs / 6 + zs ** 2 / 24 + zs ** 3 / 120 + zs ** 4 / 720
                    + zs ** 5 / 5040, (e1 - zb) / zb ** 2)
    return phi1, phi2


def _etd_states(phi: SpectralField, times: np.ndarray):
    """Yield (k, u_k on the solver band) for the ETD2RK states of
    ``solve_etd`` on the time grid ``times``; stop after the first state
    that is not finite.

    The yielded array is the stepper's own state and must not be modified.
    """
    grid = phi.grid
    dt = float(times[1])
    rows, cols = _band(grid)
    P = dispersion_values(grid)[rows, :cols]
    xi = grid.xi[rows, None]
    L = 1j * P - xi ** 2
    E = w_multiplier(P, xi, dt)
    f1, f2 = (dt * phi for phi in _phis(dt * L))
    table = _dx_table(grid, rows, cols)

    def rhs(c: np.ndarray) -> np.ndarray:
        return -0.5 * _nonlin(c, grid, rows, table)

    u = _prepared_data(phi, rows, cols)
    yield 0, u
    for k in range(1, times.size):
        with np.errstate(over="ignore", invalid="ignore"):
            n0 = rhs(u)
            a = E * u + f1 * n0
            # numpy's complex product is not commutative in the last
            # bit, so this operand order is part of the result
            u = a + (rhs(a) - n0) * f2
        yield k, u
        if not np.all(np.isfinite(u)):
            return


def solve_etd(phi: SpectralField, T: float, M: int) -> Trajectory:
    """Second-order exponential time differencing (ETD2RK) for the same dynamics.

    Per step, with L = iP - xi^2 and N(u) = -(1/2) d/dx(u^2):

        a       = e^{dt L} u_n + dt * phi1(dt L) * N(u_n)
        u_{n+1} = a + dt * phi2(dt L) * (N(a) - N(u_n))

    The linear part is propagated exactly, so where N(u) vanishes on the
    band the scheme reproduces W(t_k) phi to rounding accuracy.  Stepping
    stops at the first non-finite state; the rows after it are NaN.
    """
    return _collect(phi, T, M, "etd")[0]
