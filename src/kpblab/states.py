"""The ``states.npz`` file that ``kpblab solve --save_states`` writes and
``kpblab norms`` reads, streamed so that neither side holds the trajectory.

The file is the one ``np.savez`` writes for the members ``times``,
``coeffs``, ``nx``, ``ny``, ``Lx``, ``Ly`` and ``dealias_fraction``, byte
for byte; the last five are the grid's, named as its attributes and as
``make_grid``'s keywords.  ``coeffs`` is a C-order '<c16' array of shape
(len(times), nx, ny); it is written one time row at a time, as the solver
produces the states, and read back one time row per block.
``read`` checks the rest before any row is read: ``nx`` and ``ny`` are
integer scalars, ``Lx``, ``Ly`` and ``dealias_fraction`` real ones,
``times`` is a real, uniform grid from 0 (``solver.time_step``), coeffs has
shape (len(times), nx, ny), and the box and the dealias fraction make a
grid (``make_grid``).  It returns the grid, the times, their step and the
source of the blocks, which ``kpblab norms`` passes as it is to
``ModeForm.gather(grid, blocks)``.  Every malformed file raises
``ValueError``: one that is not a zip file or lacks a member, a ``coeffs``
of another dtype, order or format version, one whose data is shorter or
longer than its shape, and a CRC mismatch, which every read pass checks.
"""

from __future__ import annotations

import contextlib
import zipfile

import numpy as np

from .solver import check_memory, time_step
from .spectral_core import make_grid

# the members after times and coeffs, in np.savez order: the grid's attributes
_GRID = ("nx", "ny", "Lx", "Ly", "dealias_fraction")


def check_fits(grid, M: int) -> None:
    """Raise ``ValueError`` if the coeffs of M+1 states on ``grid`` exceed
    physical memory.  Their size bounds what ``kpblab norms`` holds of the
    file: the mode form, at most the Hermitian half of the coeffs, and the
    form's real power, half the form's bytes."""
    check_memory("states.npz", grid, M, band_tables=0, full_tables=1)


def write(path: str, grid, times: np.ndarray, states) -> None:
    """Write the file that ``np.savez`` writes for ``times``, the states
    stacked as ``coeffs`` and the grid members, byte for byte.  ``states``
    is an iterable of the len(times) full (nx, ny) states in time order;
    each is written as it comes."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name in ("times", "coeffs", *_GRID):
            # np.savez forces zip64 on every member
            with archive.open(name + ".npy", "w", force_zip64=True) as fid:
                if name == "coeffs":
                    np.lib.format.write_array_header_1_0(fid, {
                        "descr": "<c16", "fortran_order": False,
                        "shape": (times.size, grid.nx, grid.ny)})
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


def _coeffs_shape(fid) -> tuple:
    """The shape in the .npy header at ``fid``, which must describe C-order
    '<c16' data; leaves ``fid`` at the data."""
    version = np.lib.format.read_magic(fid)
    if version != (1, 0):
        raise ValueError(f"coeffs.npy has .npy format version {version}, not 1.0")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fid)
    if fortran_order or dtype != np.dtype("<c16"):
        raise ValueError(
            f"coeffs must be a C-order '<c16' array, got a "
            f"{'Fortran' if fortran_order else 'C'}-order {dtype.str!r} one")
    return shape


def read(path: str):
    """(grid, times, dt, blocks) of the file at ``path``, checked as the
    module docstring says; each call of ``blocks()`` reads the time rows of
    coeffs anew (``_coeff_blocks``)."""
    with _archive(path) as archive:
        def member(name):
            with archive.open(name + ".npy") as fid:
                return np.lib.format.read_array(fid, allow_pickle=False)
        times = member("times")
        values = {name: member(name) for name in _GRID}
        with archive.open("coeffs.npy") as fid:
            shape = _coeffs_shape(fid)
    for name, value in values.items():
        kinds = "iu" if name in ("nx", "ny") else "iuf"
        if value.ndim != 0 or value.dtype.kind not in kinds:
            raise ValueError(
                f"{name} must be {'an integer' if kinds == 'iu' else 'a real'} scalar, "
                f"got a {value.dtype.str!r} array of shape {value.shape}")
    if times.dtype.kind not in "iuf":
        raise ValueError(f"times must be a real array, got a {times.dtype.str!r} one")
    dt = time_step(times)
    box = {name: value.item() for name, value in values.items()}
    if shape != (times.size, box["nx"], box["ny"]):
        raise ValueError(f"coeffs has shape {shape}, not (len(times), nx, ny) = "
                         f"{(times.size, box['nx'], box['ny'])}")
    return make_grid(**box), times, dt, lambda: _coeff_blocks(path, shape)


def _coeff_blocks(path: str, shape: tuple):
    """The time rows of coeffs, of ``shape``, one block (1, nx * ny) per
    row.  The member is read to its end, so zipfile checks its CRC."""
    row = 16 * shape[1] * shape[2]
    with _archive(path) as archive, archive.open("coeffs.npy") as fid:
        if _coeffs_shape(fid) != shape:
            raise ValueError("coeffs.npy changed while it was read")
        for t in range(shape[0]):
            data = fid.read(row)
            if len(data) != row:
                raise ValueError(f"coeffs.npy ends inside time row {t} of {shape[0]}")
            yield np.frombuffer(data, dtype="<c16").reshape(1, -1)
        if fid.read(1):
            raise ValueError(f"coeffs.npy holds more data than its shape {shape}")
