"""Tests for kpblab.spectral_core against independent oracles.

Oracles used here: direct O(n^4) DFT sums, hand-computed closed forms for
single-mode fields, and plain Riemann sums for Parseval checks.  Frozen
values are marked inline.
"""

import numpy as np
import pytest

from kpblab.spectral_core import (
    SpectralField,
    dealias,
    dispersion_values,
    forward_transform,
    hermitian_defect,
    inverse_transform,
    is_kp_admissible,
    l2_norm,
    make_grid,
    project_zero_x_mean,
    reflected_coeffs,
)
from kpblab import make_grid as make_grid_reexport


def idx(grid, kx, ky):
    """FFT-order index of the signed mode (kx, ky)."""
    return kx % grid.nx, ky % grid.ny


def direct_dft(u, grid, kx, ky):
    """O(n^2) literal sum  sum_j u_j exp(-i(xi x_j + eta y_j))."""
    xi = (np.pi / grid.Lx) * kx
    eta = (np.pi / grid.Ly) * ky
    ph = np.exp(-1j * (xi * grid.x[:, None] + eta * grid.y[None, :]))
    return complex(np.sum(u * ph))


class TestMakeGrid:
    def test_unit_pi_box_has_signed_integer_wavenumbers(self):
        g = make_grid(8, 8, np.pi, np.pi)
        assert sorted(g.kx_int.tolist()) == list(range(-4, 4))
        assert sorted(g.ky_int.tolist()) == list(range(-4, 4))
        # xi == kx exactly on the pi box
        assert np.array_equal(g.xi, g.kx_int.astype(float))
        assert np.array_equal(g.eta, g.ky_int.astype(float))

    def test_double_box_halves_spacing(self):
        g = make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        assert np.allclose(np.sort(g.xi), 0.5 * np.arange(-4, 4), atol=0, rtol=0)
        assert np.allclose(np.sort(g.eta), 0.5 * np.arange(-4, 4), atol=0, rtol=0)

    def test_anisotropic_box_spacings(self):
        g = make_grid(64, 64, 16 * np.pi, 256 * np.pi)
        assert g.xi[1] == pytest.approx(1.0 / 16.0, rel=0, abs=0)
        assert g.eta[1] == pytest.approx(1.0 / 256.0, rel=0, abs=0)

    def test_physical_axes_start_at_minus_L(self):
        g = make_grid(8, 16, 1.5, 2.5)
        assert g.x[0] == pytest.approx(-1.5)
        assert g.y[0] == pytest.approx(-2.5)
        assert g.dx == pytest.approx(2 * 1.5 / 8)
        assert g.dy == pytest.approx(2 * 2.5 / 16)
        # endpoint is excluded (periodic wrap)
        assert g.x[-1] == pytest.approx(1.5 - g.dx)

    @pytest.mark.parametrize("bad", [(7, 8), (8, 7), (6, 8), (8, 4)])
    def test_odd_or_small_counts_rejected(self, bad):
        with pytest.raises(ValueError):
            make_grid(bad[0], bad[1], np.pi, np.pi)

    @pytest.mark.parametrize("Lx,Ly", [(0.0, 1.0), (1.0, -2.0), (np.nan, 1.0),
                                       (1.0, np.inf)])
    def test_nonpositive_box_rejected(self, Lx, Ly):
        with pytest.raises(ValueError):
            make_grid(8, 8, Lx, Ly)

    @pytest.mark.parametrize("frac", [0.0, -0.5, 1.5])
    def test_bad_dealias_fraction_rejected(self, frac):
        with pytest.raises(ValueError):
            make_grid(8, 8, np.pi, np.pi, dealias_fraction=frac)

    def test_reexported_from_package_root(self):
        assert make_grid_reexport is make_grid


class TestForwardTransform:
    def test_zero_field(self):
        g = make_grid(8, 8, np.pi, np.pi)
        f = forward_transform(np.zeros((8, 8)), g)
        assert np.all(f.coeffs == 0)

    def test_cosine_hits_exactly_two_modes(self):
        g = make_grid(32, 8, np.pi, np.pi)
        u = np.cos(g.x)[:, None] * np.ones(8)[None, :]
        f = forward_transform(u, g)
        expect = np.zeros((32, 8), complex)
        expect[idx(g, 1, 0)] = 32 * 8 / 2
        expect[idx(g, -1, 0)] = 32 * 8 / 2
        assert np.max(np.abs(f.coeffs - expect)) < 1e-10 * 32 * 8

    def test_matches_literal_dft_sum(self):
        g = make_grid(8, 8, 1.7, 0.9)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((8, 8))
        f = forward_transform(u, g)
        for kx, ky in [(0, 0), (1, 0), (-3, 2), (3, -4), (-4, -4)]:
            assert f.coeffs[idx(g, kx, ky)] == pytest.approx(
                direct_dft(u, g, kx, ky), rel=1e-12, abs=1e-12)

    def test_real_input_gives_hermitian_spectrum(self):
        g = make_grid(16, 16, np.pi, 2.0)
        u = np.random.default_rng(1).standard_normal((16, 16))
        f = forward_transform(u, g)
        assert hermitian_defect(f) <= 1e-13 * np.max(np.abs(f.coeffs))

    def test_shape_mismatch_rejected(self):
        g = make_grid(8, 8, np.pi, np.pi)
        with pytest.raises(ValueError):
            forward_transform(np.zeros((8, 10)), g)


class TestInverseTransform:
    def test_delta_pair_reconstructs_cosine(self):
        g = make_grid(16, 8, np.pi, np.pi)
        coeffs = np.zeros((16, 8), complex)
        coeffs[idx(g, 1, 0)] = 0.5
        coeffs[idx(g, -1, 0)] = 0.5
        u = inverse_transform(SpectralField(grid=g, coeffs=coeffs))
        # normalization: u = (1/(nx*ny)) sum_k c_k e^{ik.x}
        expect = np.cos(g.x)[:, None] * np.ones(8)[None, :] / (16 * 8)
        assert np.max(np.abs(u - expect)) < 1e-14

    def test_round_trip_identity(self):
        g = make_grid(32, 16, 2.3, np.pi)
        u = np.random.default_rng(2).standard_normal((32, 16))
        back = inverse_transform(forward_transform(u, g))
        assert np.max(np.abs(back - u)) < 1e-12 * np.max(np.abs(u))

    def test_non_hermitian_spectrum_rejected(self):
        g = make_grid(8, 8, np.pi, np.pi)
        coeffs = np.zeros((8, 8), complex)
        coeffs[idx(g, 1, 0)] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            inverse_transform(SpectralField(grid=g, coeffs=coeffs))

    def test_output_is_real_and_contiguous(self):
        g = make_grid(8, 8, np.pi, np.pi)
        u = np.random.default_rng(3).standard_normal((8, 8))
        back = inverse_transform(forward_transform(u, g))
        assert back.dtype == np.float64
        assert back.flags["C_CONTIGUOUS"]


class TestReflectionHelpers:
    def test_reflected_coeffs_is_minus_k_lookup(self):
        g = make_grid(8, 8, np.pi, np.pi)
        coeffs = np.arange(64, dtype=complex).reshape(8, 8)
        refl = reflected_coeffs(coeffs)
        for kx in range(-4, 4):
            for ky in range(-4, 4):
                if -kx in range(-4, 4) and -ky in range(-4, 4):
                    assert refl[idx(g, kx, ky)] == coeffs[idx(g, -kx, -ky)]

    def test_spectral_field_shape_guard(self):
        g = make_grid(8, 8, np.pi, np.pi)
        with pytest.raises(ValueError):
            SpectralField(grid=g, coeffs=np.zeros((4, 4), complex))


class TestDealias:
    def test_retained_modes_untouched_and_outside_zeroed(self):
        g = make_grid(16, 16, np.pi, np.pi)
        rng = np.random.default_rng(4)
        u = rng.standard_normal((16, 16))
        f = forward_transform(u, g)
        d = dealias(f)
        cut = (2.0 / 3.0) * 8
        for kx in range(-8, 8):
            for ky in range(-8, 8):
                j = idx(g, kx, ky)
                if abs(kx) <= cut and abs(ky) <= cut:
                    assert d.coeffs[j] == f.coeffs[j]
                else:
                    assert d.coeffs[j] == 0

    def test_energy_equals_retained_sum(self):
        g = make_grid(16, 16, np.pi, np.pi)
        f = forward_transform(np.random.default_rng(5).standard_normal((16, 16)), g)
        d = dealias(f)
        retained = np.sum(np.abs(f.coeffs[g.dealias_mask]) ** 2)
        assert np.sum(np.abs(d.coeffs) ** 2) == pytest.approx(retained, rel=1e-15)

    def test_idempotent(self):
        g = make_grid(16, 16, np.pi, np.pi)
        f = forward_transform(np.random.default_rng(6).standard_normal((16, 16)), g)
        once = dealias(f)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)


class TestProjection:
    def test_admissible_field_unchanged(self):
        g = make_grid(16, 16, np.pi, np.pi)
        u = np.sin(g.x)[:, None] * np.cos(g.y)[None, :]
        f = forward_transform(u, g)
        p = project_zero_x_mean(f)
        assert np.max(np.abs(p.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_constant_in_x_maps_to_zero(self):
        g = make_grid(16, 16, np.pi, np.pi)
        u = np.ones(16)[:, None] * np.cos(g.y)[None, :]
        p = project_zero_x_mean(forward_transform(u, g))
        assert np.max(np.abs(p.coeffs)) < 1e-10

    def test_l2_drop_equals_projected_line_energy(self):
        g = make_grid(16, 16, np.pi, np.pi)
        f = forward_transform(np.random.default_rng(7).standard_normal((16, 16)), g)
        p = project_zero_x_mean(f)
        drop = l2_norm(f) ** 2 - l2_norm(p) ** 2
        line = np.sum(np.abs(f.coeffs[0, :]) ** 2) * g.cell_measure
        assert drop == pytest.approx(line, rel=1e-12)

    def test_idempotent_and_admissible(self):
        g = make_grid(16, 16, np.pi, np.pi)
        f = forward_transform(np.random.default_rng(8).standard_normal((16, 16)), g)
        p = project_zero_x_mean(f)
        assert is_kp_admissible(p)
        assert np.array_equal(project_zero_x_mean(p).coeffs, p.coeffs)


class TestDispersionSymbol:
    def test_point_values(self):
        g = make_grid(16, 16, np.pi, np.pi)
        P = dispersion_values(g)
        assert P[idx(g, 1, 0)] == pytest.approx(1.0)          # 1 - 0
        assert P[idx(g, 1, 1)] == pytest.approx(0.0, abs=0)   # 1 - 1
        assert P[idx(g, 2, 3)] == pytest.approx(3.5)          # 8 - 9/2
        assert P[idx(g, -1, 0)] == pytest.approx(-1.0)

    def test_zero_on_xi_zero_line(self):
        g = make_grid(16, 16, np.pi, np.pi)
        P = dispersion_values(g)
        assert np.all(P[0, :] == 0.0)

    def test_odd_under_full_reflection(self):
        g = make_grid(16, 16, 1.3, 0.7)
        P = dispersion_values(g)
        for kx in range(-7, 8):
            for ky in range(-7, 8):
                assert P[idx(g, -kx, -ky)] == pytest.approx(-P[idx(g, kx, ky)], abs=1e-12)

    def test_values_match_formula(self):
        g = make_grid(16, 32, 2.0, 5.0)
        P = dispersion_values(g)
        for kx in (1, 3, -5):
            for ky in (0, 2, -9):
                xi = np.pi / 2.0 * kx
                eta = np.pi / 5.0 * ky
                assert P[idx(g, kx, ky)] == pytest.approx(xi ** 3 - eta ** 2 / xi, rel=1e-14)


class TestParseval:
    def test_l2_norm_matches_riemann_sum(self):
        g = make_grid(32, 16, 1.1, 2.2)
        u = np.random.default_rng(9).standard_normal((32, 16))
        f = forward_transform(u, g)
        riemann = np.sqrt(np.sum(u ** 2) * g.dx * g.dy)
        assert l2_norm(f) == pytest.approx(riemann, rel=1e-13)

    def test_single_mode_norm(self):
        # u = cos(x) on the pi box: ||u||^2 = integral cos^2 = (2pi)^2/2
        g = make_grid(32, 8, np.pi, np.pi)
        u = np.cos(g.x)[:, None] * np.ones(8)[None, :]
        assert l2_norm(forward_transform(u, g)) == pytest.approx(
            np.sqrt((2 * np.pi) ** 2 / 2), rel=1e-13)
