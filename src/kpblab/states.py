"""The ``states.npz`` file that ``kpblab solve --save_states`` writes and
``kpblab norms`` reads, streamed so that neither side holds the trajectory.

The file is the one ``np.savez`` writes for the members ``times``,
``coeffs``, ``nx``, ``ny``, ``Lx``, ``Ly`` and ``dealias_fraction``, byte
for byte.  ``coeffs`` is a C-order '<c16' array of shape
(len(times), nx, ny); it is written one time row at a time, as the solver
produces the states, and read back in blocks of whole time rows.
``read`` checks the rest before any row is read: ``nx`` and ``ny`` are
integer scalars, ``Lx``, ``Ly`` and ``dealias_fraction`` real ones,
``times`` is a uniform grid from 0 (``solver.time_step``), coeffs has
shape (len(times), nx, ny), and the box and the dealias fraction make a
grid (``make_grid``).  It returns the grid, the times, their step and the
source of the blocks, which ``kpblab norms`` passes as it is to
``ModeForm.gather(grid, blocks)``.  A ``coeffs`` of another dtype, order
or format version, or one whose data is shorter or longer than its shape,
raises ``ValueError``; zipfile raises ``BadZipFile`` on a CRC mismatch,
which every read pass checks.

The CLI imports this module only in the commands that touch the file.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .solver import check_memory, time_step
from .spectral_core import make_grid

_READ_BLOCK = 2 ** 18  # bytes of coeffs.npy read at a time: whole rows, one if larger


def check_fits(grid, M: int) -> None:
    """Raise ``ValueError`` if the coeffs of M+1 states on ``grid``, which
    ``kpblab norms`` may gather whole, exceed physical memory."""
    check_memory("states.npz", grid, M, band_tables=0, full_tables=1)


def write(path: str, members: dict) -> None:
    """Write the file ``np.savez(path, **members)`` writes, byte for byte,
    where a member may also be a pair (shape, rows): a C-order complex128
    array of ``shape`` given as an iterable of its rows, each written as it
    comes."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, value in members.items():
            # np.savez forces zip64 on every member
            with archive.open(name + ".npy", "w", force_zip64=True) as fid:
                if isinstance(value, tuple):
                    shape, rows = value
                    np.lib.format.write_array_header_1_0(
                        fid, {"descr": "<c16", "fortran_order": False, "shape": shape})
                    for row in rows:
                        fid.write(np.asarray(row, dtype="<c16"))
                else:
                    np.lib.format.write_array(fid, np.asanyarray(value))


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
    with zipfile.ZipFile(path) as archive:
        def member(name):
            with archive.open(name + ".npy") as fid:
                return np.lib.format.read_array(fid, allow_pickle=False)
        times, nx, ny, Lx, Ly, fraction = map(
            member, ("times", "nx", "ny", "Lx", "Ly", "dealias_fraction"))
        with archive.open("coeffs.npy") as fid:
            shape = _coeffs_shape(fid)
    for name, value, kinds in (("nx", nx, "iu"), ("ny", ny, "iu"), ("Lx", Lx, "iuf"),
                               ("Ly", Ly, "iuf"), ("dealias_fraction", fraction, "iuf")):
        if value.ndim != 0 or value.dtype.kind not in kinds:
            raise ValueError(
                f"{name} must be {'an integer' if kinds == 'iu' else 'a real'} scalar, "
                f"got a {value.dtype.str!r} array of shape {value.shape}")
    dt = time_step(times)
    if shape != (times.size, int(nx), int(ny)):
        raise ValueError(f"coeffs has shape {shape}, not (len(times), nx, ny) = "
                         f"{(times.size, int(nx), int(ny))}")
    grid = make_grid(int(nx), int(ny), float(Lx), float(Ly), float(fraction))
    return grid, times, dt, lambda: _coeff_blocks(path, shape)


def _coeff_blocks(path: str, shape: tuple):
    """The time rows of coeffs, of ``shape``, as blocks (n, nx * ny) of
    whole rows: as many as fit in ``_READ_BLOCK`` bytes, or one row where
    a row is larger (at 256^2 a row is 1 MiB, so each block is one row).
    The member is read to its end, so zipfile checks its CRC."""
    n_t, nx, ny = shape
    row = nx * ny * 16
    step = max(1, _READ_BLOCK // row)
    with zipfile.ZipFile(path) as archive, archive.open("coeffs.npy") as fid:
        if _coeffs_shape(fid) != shape:
            raise ValueError("coeffs.npy changed while it was read")
        for t in range(0, n_t, step):
            size = min(step, n_t - t) * row
            data = fid.read(size)
            if len(data) != size:
                raise ValueError(
                    f"coeffs.npy ends inside time row {t + len(data) // row} of {n_t}")
            yield np.frombuffer(data, dtype="<c16").reshape(-1, nx * ny)
        if fid.read(1):
            raise ValueError(f"coeffs.npy holds more data than its shape {shape}")
