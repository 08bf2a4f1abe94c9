"""Property tests for invariants the docstrings claim.

- ``solver._nonlin`` maps the half spectrum of a real field to the half
  spectrum of the real field d/dx(u^2): its self-mirror columns (ky = 0 and
  Nyquist) stay conjugate-symmetric in kx.
- W(t) is a contraction in both time directions; U(t) is unitary.
- ``reflected_coeffs`` (R[k] = c[-k]) is an involution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kpblab.semigroup import apply_U, apply_W, free_table, semigroup_table
from kpblab.solver import _dx_table, _nonlin, _whole
from kpblab.spectral_core import (
    forward_transform,
    l2_norm,
    make_grid,
    project_zero_x_mean,
    reflected_coeffs,
)

seeds = st.integers(0, 2 ** 32 - 1)
sizes = st.sampled_from([8, 12, 16, 32])
boxes = st.floats(0.5, 8.0)
times = st.floats(-5.0, 5.0)


def random_field(nx, ny, Lx, Ly, seed, amplitude=1.0):
    grid = make_grid(nx, ny, Lx, Ly)
    u = amplitude * np.random.default_rng(seed).standard_normal((nx, ny))
    return project_zero_x_mean(forward_transform(u, grid))


@settings(max_examples=40, deadline=None)
@given(nx=sizes, ny=sizes, Lx=boxes, Ly=boxes, seed=seeds,
       amplitude=st.floats(1e-3, 1e3))
def test_nonlin_keeps_hermitian_symmetry(nx, ny, Lx, Ly, seed, amplitude):
    f = random_field(nx, ny, Lx, Ly, seed, amplitude)
    grid = f.grid
    rows, cols = _whole(grid)
    w = _nonlin(f.coeffs[:, :cols], grid, rows, _dx_table(grid, rows, cols))
    mirror = np.roll(w[::-1], 1, axis=0)  # row kx holds row -kx
    scale = float(np.max(np.abs(w))) or 1.0
    for col in (0, ny // 2):
        defect = np.max(np.abs(mirror[:, col] - np.conj(w[:, col])))
        assert defect <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(nx=sizes, ny=sizes, Lx=boxes, Ly=boxes, seed=seeds, t=times)
def test_w_is_a_contraction(nx, ny, Lx, Ly, seed, t):
    f = random_field(nx, ny, Lx, Ly, seed)
    assert np.all(np.abs(semigroup_table(f.grid, t)) <= 1.0 + 1e-15)
    assert l2_norm(apply_W(f, t)) <= l2_norm(f) * (1.0 + 1e-14)


@settings(max_examples=40, deadline=None)
@given(nx=sizes, ny=sizes, Lx=boxes, Ly=boxes, seed=seeds, t=times)
def test_u_is_unitary(nx, ny, Lx, Ly, seed, t):
    f = random_field(nx, ny, Lx, Ly, seed)
    np.testing.assert_allclose(np.abs(free_table(f.grid, t)), 1.0,
                               rtol=0.0, atol=1e-14)
    assert abs(l2_norm(apply_U(f, t)) / l2_norm(f) - 1.0) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 20), ny=st.integers(1, 20), seed=seeds)
def test_reflected_coeffs_is_an_involution(nx, ny, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
    assert np.array_equal(reflected_coeffs(reflected_coeffs(c)), c)
