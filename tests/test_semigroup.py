"""Tests for kpblab.semigroup: group/semigroup laws, factorization, tables.

Oracles: per-mode closed forms exp(i t P) and exp(i t P - xi^2 |t|) computed
by hand for single modes, plus exact algebraic laws (group composition,
unitarity, W = U o heat).
"""

import numpy as np
import pytest

from kpblab.semigroup import (
    apply_U,
    apply_W,
    apply_heat,
    free_table,
    heat_table,
    semigroup_table,
)
from kpblab.spectral_core import (
    SpectralField,
    dispersion_values,
    forward_transform,
    l2_norm,
    make_grid,
    project_zero_x_mean,
)


def idx(grid, kx, ky):
    return kx % grid.nx, ky % grid.ny


def single_mode(grid, kx, ky, value=1.0):
    coeffs = np.zeros((grid.nx, grid.ny), complex)
    coeffs[idx(grid, kx, ky)] = value
    coeffs[idx(grid, -kx, -ky)] = np.conj(value)
    return SpectralField(grid=grid, coeffs=coeffs)


def random_admissible(grid, seed):
    u = np.random.default_rng(seed).standard_normal((grid.nx, grid.ny))
    return project_zero_x_mean(forward_transform(u, grid))


@pytest.fixture(scope="module")
def grid():
    return make_grid(16, 16, np.pi, np.pi)


class TestFreeGroup:
    def test_t_zero_is_identity(self, grid):
        f = random_admissible(grid, 0)
        g = apply_U(f, 0.0)
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_single_mode_phase(self, grid):
        # mode (1,0): P = 1, so U(t) multiplies by e^{it}
        f = single_mode(grid, 1, 0)
        g = apply_U(f, 0.7)
        assert g.coeffs[idx(grid, 1, 0)] == pytest.approx(np.exp(1j * 0.7), rel=1e-14)

    def test_resonant_mode_is_fixed(self, grid):
        # mode (1,1): P = 1 - 1 = 0, unchanged for every t
        f = single_mode(grid, 1, 1)
        for t in (0.3, -2.0, 17.0):
            g = apply_U(f, t)
            assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-14

    def test_group_law(self, grid):
        f = random_admissible(grid, 1)
        a = apply_U(apply_U(f, 0.4), 1.3)
        b = apply_U(f, 1.7)
        scale = np.max(np.abs(b.coeffs))
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * scale

    def test_inverse(self, grid):
        f = random_admissible(grid, 2)
        back = apply_U(apply_U(f, 2.1), -2.1)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_unitary_for_random_times(self, grid):
        f = random_admissible(grid, 3)
        n0 = l2_norm(f)
        for t in np.random.default_rng(4).uniform(-10, 10, size=8):
            assert l2_norm(apply_U(f, float(t))) == pytest.approx(n0, rel=1e-12)

    def test_table_factors_unimodular(self, grid):
        tab = free_table(grid, 5.0)
        assert np.max(np.abs(np.abs(tab) - 1.0)) < 1e-13

    def test_table_matches_symbol(self, grid):
        P = dispersion_values(grid)
        tab = free_table(grid, 0.9)
        assert np.max(np.abs(tab - np.exp(1j * 0.9 * P))) < 1e-13


class TestDissipativeSemigroup:
    def test_t_zero_is_identity(self, grid):
        f = random_admissible(grid, 5)
        assert np.array_equal(apply_W(f, 0.0).coeffs, f.coeffs)

    def test_single_mode_value(self, grid):
        # mode (1,0) at t=1: factor e^{i*1} * e^{-1}
        f = single_mode(grid, 1, 0)
        g = apply_W(f, 1.0)
        assert g.coeffs[idx(grid, 1, 0)] == pytest.approx(
            np.exp(-1.0) * np.exp(1j * 1.0), rel=1e-14)

    def test_negative_time_same_amplitude_conjugate_phase(self, grid):
        f = single_mode(grid, 1, 0)
        fwd = apply_W(f, 1.0).coeffs[idx(grid, 1, 0)]
        bwd = apply_W(f, -1.0).coeffs[idx(grid, 1, 0)]
        assert abs(fwd) == pytest.approx(abs(bwd), rel=1e-14)
        assert bwd == pytest.approx(np.conj(fwd), rel=1e-14)

    def test_contraction_both_time_directions(self, grid):
        f = random_admissible(grid, 6)
        n0 = l2_norm(f)
        for t in (0.2, 1.0, -0.2, -3.0):
            assert l2_norm(apply_W(f, t)) <= n0 * (1 + 1e-14)

    def test_strict_decay_off_the_xi0_line(self, grid):
        f = single_mode(grid, 2, 1)
        assert l2_norm(apply_W(f, 0.5)) < l2_norm(f)

    def test_semigroup_law_positive_times(self, grid):
        f = random_admissible(grid, 7)
        a = apply_W(apply_W(f, 0.3), 0.6)
        b = apply_W(f, 0.9)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * np.max(np.abs(b.coeffs))

    def test_factorization_W_equals_U_heat(self, grid):
        f = random_admissible(grid, 8)
        for t in (0.8, -1.7):
            lhs = apply_W(f, t)
            rhs = apply_U(apply_heat(f, abs(t)), t)
            scale = np.max(np.abs(lhs.coeffs)) or 1.0
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-13 * scale

    def test_heat_table_is_gaussian_in_xi(self, grid):
        tab = heat_table(grid, 0.4)
        expect = np.exp(-0.4 * grid.xi[:, None] ** 2) * np.ones(grid.ny)[None, :]
        assert np.max(np.abs(tab - expect)) < 1e-13

    def test_smoothing_norm_bounded_under_refinement(self):
        # band-limited datum embedded identically on two grids; the gained
        # two x-derivatives of W(t) stay bounded as the grid refines
        from kpblab.norms import sobolev_norm
        from kpblab.verify import random_field

        vals = []
        for n in (32, 64):
            g = make_grid(n, n, np.pi, np.pi)
            f = random_field(g, np.random.default_rng(11), decay=1)
            vals.append(sobolev_norm(apply_W(f, 0.5), 1 + 2, 0.0))
        assert vals[1] == pytest.approx(vals[0], rel=1e-10)


class TestGuards:
    def test_non_admissible_input_rejected(self, grid):
        coeffs = np.zeros((16, 16), complex)
        coeffs[0, 1] = 1.0
        coeffs[0, -1] = 1.0
        f = SpectralField(grid=grid, coeffs=coeffs)
        for op in (apply_U, apply_W):
            with pytest.raises(ValueError):
                op(f, 0.5)

    def test_heat_is_even_in_time(self, grid):
        # damping depends on |t| only
        f = random_admissible(grid, 9)
        a = apply_heat(f, 0.7)
        b = apply_heat(f, -0.7)
        assert np.array_equal(a.coeffs, b.coeffs)


class TestCaching:
    def test_factors_read_only(self, grid):
        tables = [table(grid, 0.1) for table in (free_table, semigroup_table, heat_table)]
        for tab in tables + [dispersion_values(grid)]:
            with pytest.raises(ValueError):
                tab[0, 0] = 0.0
