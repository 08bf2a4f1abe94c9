"""Mode forms: a trajectory kept on the modes its norms transform.

A trajectory's mode form is the flat modes ``cols`` it occupies, their
Parseval weights ``colw`` and the (n_times, cols.size) values on them.
Real fields are Hermitian, u(t, -k) = conj(u(t, k)), so an exact pair, an
occupied first mode whose mirror equals its conjugate bit for bit at every
time, is kept on its first mode with weight 2.  Every other occupied mode
is kept with weight 1: the self-conjugate modes, inexact pairs and modes
whose mirror is unoccupied.  The kx = -nx/2 row is never paired: the
mirror of (-nx/2, ky) is (-nx/2, -ky) on the grid, with the same xi, so
P is even along that row and the norms' sigma = tau - P does not mirror.
``cols`` lists the exact first modes, then the other occupied modes in
flat order.

``ModeForm.gather(grid, values)`` is the one way from full arrays to a
mode form: it selects the columns of the (n, nx * ny) time rows
``values`` and gathers them as complex128 values.  States kept on the
solver band become a form through ``solver.band_form`` instead, in one
pass over their blocks, with the columns, weights and values that
``gather`` gives of their full spectra: ``kpblab norms`` streams the
band rows of ``states.npz`` that ``states.read`` opens.  The one
difference is NaN: ``gather`` splits a pair holding NaN into two
columns, and a band form, whose mirrors are conjugates by construction,
keeps it as one column of weight 2.  ``ModeForm.expand`` writes the
field back at any flat modes; ``kpblab norms`` expands the last row of
its form to take the final state's Sobolev norm.  The verify suites
build their free evolutions and products as mode forms and never
expand them to the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_core import Grid2D

__all__ = ["ModeForm"]

_PAIR_BLOCK = 2 ** 14  # complex values per gathered block of the pair check


def _select_columns(grid: Grid2D, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, colw): the flat modes of the mode form of the trajectory
    whose time rows are ``values`` (n, nx * ny), and how many times each
    counts in a weighted sum.

    Only the pairs with an occupied mode are compared (two zero columns
    agree), over runs of rows of at most ``_PAIR_BLOCK`` gathered values,
    so no full-size copy of the mirrors is made.
    """
    nx, ny = grid.nx, grid.ny
    # the conjugate pairs: first < mirror, the flat index of -first, off
    # the kx = -nx/2 row
    mirror = (((-np.arange(nx)) % nx)[:, None] * ny
              + ((-np.arange(ny)) % ny)[None, :]).reshape(-1)
    first = np.arange(nx * ny) < mirror
    first[(nx // 2) * ny:(nx // 2 + 1) * ny] = False
    first, mirror = np.flatnonzero(first), mirror[first]
    occupied = np.any(values, axis=0)
    pairs = np.flatnonzero(occupied[first] | occupied[mirror])
    ahead, behind = first[pairs], mirror[pairs]
    agree = np.ones(pairs.size, dtype=bool)
    step = max(1, _PAIR_BLOCK // max(pairs.size, 1))
    for t in range(0, len(values), step):
        rows = values[t:t + step]
        mirrored = np.take(rows, behind, axis=1)
        agree &= np.all(np.take(rows, ahead, axis=1)
                        == np.conjugate(mirrored, out=mirrored), axis=0)
    ahead, behind = ahead[agree], behind[agree]  # the exact pairs
    rest = occupied  # the occupied modes outside the exact pairs
    rest[ahead] = False
    rest[behind] = False
    cols = np.concatenate((ahead, np.flatnonzero(rest)))
    colw = np.ones(cols.size)
    colw[:ahead.size] = 2.0
    return cols, colw


@dataclass(frozen=True, eq=False)
class ModeForm:
    """A trajectory on ``grid`` as its mode form: the values
    (n_times, cols.size) on the flat modes ``cols``, each of which counts
    ``colw`` times in a weighted sum."""

    grid: Grid2D
    cols: np.ndarray
    colw: np.ndarray
    values: np.ndarray

    @classmethod
    def gather(cls, grid: Grid2D, values: np.ndarray) -> ModeForm:
        """The mode form of the trajectory whose time rows are ``values``
        (n, nx * ny), of any real or complex dtype; the gathered columns
        are converted to complex128."""
        cols, colw = _select_columns(grid, values)
        gathered = np.take(values, cols, axis=1)
        return cls(grid, cols, colw, gathered.astype(complex, copy=False))

    def expand(self, pos: np.ndarray | None = None) -> np.ndarray:
        """The field at the flat modes ``pos`` (default: every mode), of
        shape values.shape[:-1] + pos.shape: the values on ``cols``, their
        conjugates on the mirrors of the modes of weight 2, and +0.0
        elsewhere."""
        grid, cols, values = self.grid, self.cols, self.values
        k = cols.size
        source = np.full(grid.nx * grid.ny, 2 * k)  # a column of [values, conj, 0]
        source[cols] = np.arange(k)
        pairs = np.flatnonzero(self.colw == 2.0)
        kx, ky = np.divmod(cols[pairs], grid.ny)
        source[(-kx % grid.nx) * grid.ny + (-ky % grid.ny)] = k + pairs
        stacked = np.concatenate(
            (values, np.conjugate(values), np.zeros(values.shape[:-1] + (1,), complex)),
            axis=-1)
        return np.take(stacked, source if pos is None else source[pos], axis=-1)
