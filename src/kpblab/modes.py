"""Mode forms: a trajectory kept on the modes its norms transform.

A trajectory's mode form is the flat modes ``cols`` it occupies, their
Parseval weights ``colw`` and the (n_times, cols.size) values on them.
Real fields are Hermitian, u(t, -k) = conj(u(t, k)), so an exact pair, an
occupied first mode whose mirror equals its conjugate bit for bit at every
time, is kept on its first mode with weight 2.  Every other occupied mode
is kept with weight 1: the self-conjugate modes, inexact pairs (one
holding NaN included) and modes whose mirror is unoccupied.  The
kx = -nx/2 row is never paired: the mirror of (-nx/2, ky) is (-nx/2, -ky)
on the grid, with the same xi, so P is even along that row and the norms'
sigma = tau - P does not mirror.  ``cols`` lists the exact first modes,
then the other occupied modes in flat order.

``ModeForm.gather(grid, blocks)`` is the one way from full arrays to a
mode form.  It selects the columns and counts the rows in one pass over
consecutive blocks of time rows and gathers the complex values in a
second; an in-memory trajectory is one block.  States kept on the
solver band become a form through ``solver.band_form`` instead, in one
pass, with the columns, weights and values that ``gather`` gives of
their full spectra: ``kpblab norms`` streams the band rows that
``states.read`` returns for ``states.npz``.  ``ModeForm.expand`` writes
the field back at any flat modes; ``kpblab norms`` expands the last row
of its form to take the final state's Sobolev norm.  The verify suites build their free evolutions and products
as mode forms and never expand them to the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_core import Grid2D

__all__ = ["ModeForm"]

_PAIR_BLOCK = 2 ** 14  # complex values per gathered block of the pair check


def _select_columns(grid: Grid2D, blocks) -> tuple[np.ndarray, np.ndarray, int]:
    """(cols, colw, n_rows): the flat modes of a trajectory's mode form,
    how many times each counts in a weighted sum, and the trajectory's
    number of time rows, for a trajectory given as consecutive blocks of
    time rows (n, nx * ny).

    Within a block only the pairs with an occupied mode are compared (two
    zero columns agree), over runs of rows of at most ``_PAIR_BLOCK``
    gathered values, so no full-size copy of the mirrors is made.
    """
    nx, ny = grid.nx, grid.ny
    # the conjugate pairs: first < mirror, the flat index of -first, off
    # the kx = -nx/2 row
    mirror = (((-np.arange(nx)) % nx)[:, None] * ny
              + ((-np.arange(ny)) % ny)[None, :]).reshape(-1)
    first = np.arange(nx * ny) < mirror
    first[(nx // 2) * ny:(nx // 2 + 1) * ny] = False
    first, mirror = np.flatnonzero(first), mirror[first]
    occupied = np.zeros(nx * ny, dtype=bool)
    exact = np.ones(first.size, dtype=bool)
    n_rows = 0
    for block in blocks:
        n_rows += len(block)
        live = np.any(block, axis=0)
        occupied |= live
        pairs = np.flatnonzero(live[first] | live[mirror])
        ahead, behind = first[pairs], mirror[pairs]
        agree = np.ones(pairs.size, dtype=bool)
        step = max(1, _PAIR_BLOCK // max(pairs.size, 1))
        for t in range(0, len(block), step):
            rows = block[t:t + step]
            mirrored = np.take(rows, behind, axis=1)
            agree &= np.all(np.take(rows, ahead, axis=1)
                            == np.conjugate(mirrored, out=mirrored), axis=0)
        exact[pairs] &= agree
    exact &= occupied[first]
    rest = occupied  # the occupied modes outside the exact pairs
    rest[first[exact]] = False
    rest[mirror[exact]] = False
    cols = np.concatenate((first[exact], np.flatnonzero(rest)))
    colw = np.ones(cols.size)
    colw[:np.count_nonzero(exact)] = 2.0
    return cols, colw, n_rows


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
    def gather(cls, grid: Grid2D, blocks) -> ModeForm:
        """The mode form of the trajectory that ``blocks()`` returns as
        consecutive blocks (n, nx * ny) of time rows.  ``blocks`` is
        called twice: to select the columns and count the rows, and to
        gather the columns into complex128 values.
        """
        cols, colw, n_rows = _select_columns(grid, blocks())
        values = np.empty((n_rows, cols.size), dtype=complex)
        t = 0
        for block in blocks():
            # mode="clip" (cols are in range) lets take write into values unbuffered
            np.take(np.asarray(block, complex), cols, axis=1,
                    out=values[t:t + len(block)], mode="clip")
            t += len(block)
        return cls(grid, cols, colw, values)

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
