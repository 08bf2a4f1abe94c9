"""The ``states.npz`` file that ``kpblab solve --save_states`` writes and
``kpblab norms`` reads, streamed so that neither side holds the trajectory.

The file is the one ``np.savez`` writes for the members ``times``,
``band``, ``nx``, ``ny``, ``Lx``, ``Ly`` and ``dealias_fraction``, byte
for byte; the last five are the grid's, named as its attributes and as
``make_grid``'s keywords.  ``band`` holds the states on the solver band,
as ``solver.solve_states`` yields them: a C-order '<c16' array of shape
(len(times), rows, cols), with (rows, cols) = ``solver.band_shape(grid)``.
It is written one time row at a time, as the solver produces the states,
and read back one time row per block.  A file in the older layout, whose
``coeffs`` member held the full (nx, ny) spectra, is refused by name.
``read`` checks the rest before any row is read: ``nx`` and ``ny`` are
integer scalars, ``Lx``, ``Ly`` and ``dealias_fraction`` real ones,
``times`` is a real, uniform grid from 0 (``solver.time_step``), the box
and the dealias fraction make a grid (``make_grid``), and band has the
shape of its solver band.  It returns the grid, the times, their step
and the opener of the blocks, which ``kpblab norms`` calls once, after
it has counted the time steps, and passes the blocks to
``solver.band_form``.  Every malformed file raises ``ValueError``: one
that is not a zip file or lacks a member, a ``band`` of another dtype,
order or format version, one whose data is shorter or longer than its
shape, and a CRC mismatch, which every read pass checks.
"""

from __future__ import annotations

import contextlib
import zipfile

import numpy as np

from .solver import band_shape, check_memory, time_step
from .spectral_core import make_grid

# the members after times and band, in np.savez order: the grid's attributes
_GRID = ("nx", "ny", "Lx", "Ly", "dealias_fraction")


def check_fits(grid, M: int) -> None:
    """Raise ``ValueError`` if the band states of M+1 times on ``grid``, one
    band table, exceed physical memory.  The table bounds what ``kpblab
    norms`` holds of the file: the mode form, at most one column per band
    entry, and the form's real power, half the form's bytes."""
    check_memory("states.npz", grid, M, band_tables=1, full_tables=0)


def write(path: str, grid, times: np.ndarray, states) -> None:
    """Write the file that ``np.savez`` writes for ``times``, the states
    stacked as ``band`` and the grid members, byte for byte.  ``states``
    is an iterable of the len(times) band states of ``band_shape(grid)``
    in time order; each is written as it comes."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name in ("times", "band", *_GRID):
            # np.savez forces zip64 on every member
            with archive.open(name + ".npy", "w", force_zip64=True) as fid:
                if name == "band":
                    np.lib.format.write_array_header_1_0(fid, {
                        "descr": "<c16", "fortran_order": False,
                        "shape": (times.size, *band_shape(grid))})
                    for state in states:
                        fid.write(np.asarray(state, dtype="<c16"))
                else:
                    value = times if name == "times" else getattr(grid, name)
                    np.lib.format.write_array(fid, np.asanyarray(value))


@contextlib.contextmanager
def _archive(path: str):
    """The zip file at ``path``, open for reading; zipfile's errors for a
    file that is not a zip file, lacks a member or fails a CRC check leave
    as ``ValueError``."""
    try:
        with zipfile.ZipFile(path) as archive:
            yield archive
    except (KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"not a readable states file: {exc}") from exc


def _band_header(fid) -> tuple:
    """The shape in the .npy header at ``fid``, which must describe C-order
    '<c16' data; leaves ``fid`` at the data."""
    version = np.lib.format.read_magic(fid)
    if version != (1, 0):
        raise ValueError(f"band.npy has .npy format version {version}, not 1.0")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fid)
    if fortran_order or dtype != np.dtype("<c16"):
        raise ValueError(
            f"band must be a C-order '<c16' array, got a "
            f"{'Fortran' if fortran_order else 'C'}-order {dtype.str!r} one")
    return shape


def read(path: str):
    """(grid, times, dt, blocks) of the file at ``path``, checked as the
    module docstring says; nothing of band past its header is read until
    ``blocks()`` is called, and each call returns an iterator that reads
    the time rows of band once (``_band_blocks``)."""
    with _archive(path) as archive:
        names = archive.namelist()
        if "coeffs.npy" in names and "band.npy" not in names:
            raise ValueError(
                "the file has the old full-spectrum layout (a 'coeffs' member of "
                "shape (len(times), nx, ny)), not the solver-band layout (a 'band' "
                "member); save the states again with this version's kpblab solve")

        def member(name):
            with archive.open(name + ".npy") as fid:
                return np.lib.format.read_array(fid, allow_pickle=False)
        times = member("times")
        values = {name: member(name) for name in _GRID}
        with archive.open("band.npy") as fid:
            shape = _band_header(fid)
    for name, value in values.items():
        kinds = "iu" if name in ("nx", "ny") else "iuf"
        if value.ndim != 0 or value.dtype.kind not in kinds:
            raise ValueError(
                f"{name} must be {'an integer' if kinds == 'iu' else 'a real'} scalar, "
                f"got a {value.dtype.str!r} array of shape {value.shape}")
    if times.dtype.kind not in "iuf":
        raise ValueError(f"times must be a real array, got a {times.dtype.str!r} one")
    dt = time_step(times)
    grid = make_grid(**{name: value.item() for name, value in values.items()})
    expected = (times.size, *band_shape(grid))
    if shape != expected:
        raise ValueError(f"band has shape {shape}, not (len(times), rows, cols) = "
                         f"{expected}, the grid's solver band")
    return grid, times, dt, lambda: _band_blocks(path, shape)


def _band_blocks(path: str, shape: tuple):
    """The time rows of band, of ``shape``, one block (1, rows, cols) per
    row.  The member is read to its end, so zipfile checks its CRC."""
    row = 16 * shape[1] * shape[2]
    with _archive(path) as archive, archive.open("band.npy") as fid:
        if _band_header(fid) != shape:
            raise ValueError("band.npy changed while it was read")
        for t in range(shape[0]):
            data = fid.read(row)
            if len(data) != row:
                raise ValueError(f"band.npy ends inside time row {t} of {shape[0]}")
            yield np.frombuffer(data, dtype="<c16").reshape(1, shape[1], shape[2])
        if fid.read(1):
            raise ValueError(f"band.npy holds more data than its shape {shape}")
