"""Tests for kpblab.illposedness: frequency geometry, resonance algebra,
Duhamel kernel, and the second-iterate quadrature.

Oracles: hand-evaluated rational arithmetic for the resonance function, a
naive two-exponential evaluation of the kernel, exact scaling laws, and the
small-t limit K/t -> 1.  One quadrature value is frozen as a regression
anchor.
"""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kpblab.illposedness as illposedness
from kpblab.illposedness import (
    IllposedResult,
    _k1_bounds,
    PhiHat,
    build_phi_N,
    chi_bound_check,
    interaction_rectangle,
    kernel_K,
    output_window,
    rectangle_pair,
    resonance_chi,
    scaling_study,
    second_iterate_hat,
    second_iterate_norm,
    _chi_rows,
    _kernel_factors,
    _midpoints,
    _phase_seeds,
    _row_shape,
    _window_density,
)
from kpblab.norms import sobolev_norm
from kpblab.spectral_core import hermitian_defect, is_kp_admissible, make_grid

SQ3 = math.sqrt(3.0)


def P(xi, eta):
    return xi ** 3 - eta ** 2 / xi


def column_group(cells):
    """The columns _window_density takes through one run of its phase source."""
    return _row_shape(cells)[1]


def full_columns(pair, y_lo, y_hi):
    """Outer-eta columns whose k1 eta interval is all of D_2's, [eta_min, eta_max)."""
    return (y_lo == pair.D2.eta_min) & (y_hi == pair.D2.eta_max)


class TestGeometry:
    def test_rectangle_pair_values(self):
        pair = rectangle_pair(16)
        assert (pair.D1.xi_min, pair.D1.xi_max) == (8.0, 16.0)
        assert (pair.D1.eta_min, pair.D1.eta_max) == (-6 * 256.0, 6 * 256.0)
        assert (pair.D2.xi_min, pair.D2.xi_max) == (16.0, 32.0)
        assert pair.D2.eta_min == pytest.approx(SQ3 * 256.0)
        assert pair.D2.eta_max == pytest.approx((SQ3 + 1) * 256.0)
        assert pair.D1.area == pytest.approx(6 * 16.0 ** 3)
        assert pair.D2.area == pytest.approx(16.0 ** 3)

    def test_rectangles_disjoint_positive_xi(self):
        for N in (4, 16, 100):
            pair = rectangle_pair(N)
            assert pair.D1.xi_max <= pair.D2.xi_min
            assert pair.D1.xi_min > 0

    def test_contains_is_half_open(self):
        D1 = rectangle_pair(16).D1
        assert D1.contains(8.0, 0.0)          # closed left edge
        assert not D1.contains(16.0, 0.0)     # open right edge
        assert D1.contains(12.0, -1536.0)
        assert not D1.contains(12.0, 1536.0)

    def test_output_window_bounds(self):
        lo, hi, blo, bhi = output_window(16)
        assert (lo, hi) == (24.0, 48.0)
        assert blo == pytest.approx((SQ3 - 6) * 256.0)
        assert bhi == pytest.approx((SQ3 + 7) * 256.0)

    def test_interaction_rectangle_is_consistent_with_membership(self):
        N = 16
        pair = rectangle_pair(N)
        rect = interaction_rectangle(N, 36.0, 400.0)
        assert rect is not None
        # strict interior samples of k^1 satisfy nu1 in D2 and nu-nu1 in D1
        for fx in (0.01, 0.5, 0.99):
            for fy in (0.01, 0.5, 0.99):
                xi1 = rect.xi_min + fx * (rect.xi_max - rect.xi_min)
                eta1 = rect.eta_min + fy * (rect.eta_max - rect.eta_min)
                assert pair.D2.contains(xi1, eta1)
                assert pair.D1.contains(36.0 - xi1, 400.0 - eta1)

    def test_interaction_rectangle_empty_off_window(self):
        assert interaction_rectangle(16, 160.0, 0.0) is None
        assert interaction_rectangle(16, 36.0, 1.0e6) is None

    def test_window_interior_is_fully_covered(self):
        # every strict interior point of the output window has a nonempty
        # interaction set
        N = 16
        lo, hi, blo, bhi = output_window(N)
        for xi in np.linspace(lo + 0.5, hi - 0.5, 7):
            for eta in np.linspace(blo + 1.0, bhi - 1.0, 7):
                rect = interaction_rectangle(N, float(xi), float(eta))
                assert rect is not None
                assert rect.area > 0


class TestPhiHat:
    def test_amplitude_formula(self):
        desc = build_phi_N(16, -0.7)
        assert isinstance(desc, PhiHat)
        assert desc.amplitude == pytest.approx(16.0 ** (-1.5 + 0.7), rel=1e-14)

    def test_indicator_values_including_mirrors(self):
        desc = build_phi_N(16, -0.7)
        amp = desc.amplitude
        assert desc(12.0, 0.0) == pytest.approx(amp)        # in D1
        assert desc(20.0, 500.0) == pytest.approx(amp)      # in D2
        assert desc(-12.0, 0.0) == pytest.approx(amp)       # mirror of D1
        assert desc(-20.0, -500.0) == pytest.approx(amp)    # mirror of D2
        assert desc(48.0, 0.0) == 0.0
        assert desc(12.0, 1600.0) == 0.0

    def test_analytic_norm_near_constant_in_N(self):
        # the amplitude is chosen so the H^{s,0} size is N-uniform
        vals = [build_phi_N(N, -0.7).sobolev_norm(-0.7) for N in (16, 64, 256)]
        assert max(vals) / min(vals) < 1.01

    def test_grid_realization_matches_analytic_norm(self):
        N = 16
        g = make_grid(80, 128, 16 * np.pi / N, 8 * np.pi / N ** 2)
        f = build_phi_N(N, -0.7, g)
        grid_norm = sobolev_norm(f, -0.7, 0.0)
        analytic = build_phi_N(N, -0.7).sobolev_norm(-0.7)
        assert grid_norm == pytest.approx(analytic, rel=0.05)

    def test_grid_realization_real_and_admissible(self):
        N = 16
        g = make_grid(80, 128, 16 * np.pi / N, 8 * np.pi / N ** 2)
        f = build_phi_N(N, -0.7, g)
        assert hermitian_defect(f) < 1e-13 * np.max(np.abs(f.coeffs))
        assert is_kp_admissible(f)

    def test_grid_mode_value_is_descriptor_over_cell(self):
        N = 16
        g = make_grid(80, 128, 16 * np.pi / N, 8 * np.pi / N ** 2)
        f = build_phi_N(N, -0.7, g)
        desc = build_phi_N(N, -0.7)
        j = (12 % 80, 0)  # mode xi=12, eta=0 lies inside D1
        assert g.xi[12] == pytest.approx(12.0)
        assert f.coeffs[j] == pytest.approx(desc.amplitude / (g.dx * g.dy), rel=1e-13)

    def test_under_resolved_grid_rejected(self):
        g = make_grid(16, 16, np.pi, np.pi)  # xi range far short of D2
        with pytest.raises(ValueError):
            build_phi_N(16, -0.7, g)

    def test_small_N_rejected(self):
        with pytest.raises(ValueError):
            build_phi_N(2, -0.7)


def data_norm(N, s, xi_integral):
    """||phi_N||_{H^{s,0}} from a given integral of (1+xi^2)^s over [a, b)."""
    desc = build_phi_N(N, s)
    total = sum(xi_integral(r.xi_min, r.xi_max) * (r.eta_max - r.eta_min)
                for r in (desc.rectangles.D1, desc.rectangles.D2))
    return desc.amplitude * math.sqrt(2.0 * total) / (2.0 * math.pi)


class TestDataNorm:
    """PhiHat.sobolev_norm against closed forms and adaptive quadrature."""

    NS = (8, 16, 23.5, 32, 64, 128, 1000, 65536)

    @pytest.mark.parametrize("N", NS)
    def test_s0_is_the_rectangle_areas(self, N):
        desc = build_phi_N(N, 0.0)
        areas = desc.rectangles.D1.area + desc.rectangles.D2.area
        assert desc.sobolev_norm(0.0) == (
            desc.amplitude * math.sqrt(2.0 * areas) / (2.0 * math.pi))

    @pytest.mark.parametrize("N", NS)
    def test_s1_exact_for_quadratic_weight(self, N):
        exact = data_norm(N, 1.0, lambda a, b: (b - a) + (b ** 3 - a ** 3) / 3.0)
        assert build_phi_N(N, 1.0).sobolev_norm(1.0) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("N", NS)
    def test_s_minus_one_is_arctan_difference(self, N):
        # arctan(b) - arctan(a), written without the cancellation at large N
        exact = data_norm(N, -1.0, lambda a, b: math.atan((b - a) / (1.0 + a * b)))
        assert build_phi_N(N, -1.0).sobolev_norm(-1.0) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("s", (-0.7, -0.5, -0.3, 0.0, 0.5, 2.0))
    def test_matches_adaptive_quadrature(self, s):
        quad = pytest.importorskip("scipy.integrate").quad

        def adaptive(a, b):
            return quad(lambda x: (1.0 + x * x) ** s, a, b, epsrel=1e-12)[0]

        for N in self.NS:
            assert build_phi_N(N, s).sobolev_norm(s) == pytest.approx(
                data_norm(N, s, adaptive), rel=1e-15, abs=0.0), N

    def test_overflowing_weight_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_phi_N(16, 200.0).sobolev_norm(200.0) == math.inf


class TestResonanceChi:
    def test_hand_computed_values(self):
        assert resonance_chi(2.0, 1.0, 0.0, 0.0) == pytest.approx(6.0, rel=1e-14)
        assert resonance_chi(3.0, 1.0, 4.0, 1.0) == pytest.approx(18.0 + 1.0 / 6.0,
                                                                  rel=1e-14)

    def test_matches_dispersion_identity(self):
        # chi = P(nu) - P(nu1) - P(nu - nu1) by construction
        rng = np.random.default_rng(0)
        for _ in range(200):
            xi1, xi2 = rng.uniform(0.5, 3.0, 2)
            eta, eta1 = rng.uniform(-5.0, 5.0, 2)
            xi = xi1 + xi2
            lhs = P(xi, eta) - P(xi1, eta1) - P(xi2, eta - eta1)
            rhs = resonance_chi(xi, xi1, eta, eta1)
            assert rhs == pytest.approx(lhs, rel=1e-10)

    def test_symmetric_under_partner_swap(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            xi = rng.uniform(2.0, 5.0)
            xi1 = rng.uniform(0.5, xi - 0.5)
            eta, eta1 = rng.uniform(-4.0, 4.0, 2)
            a = resonance_chi(xi, xi1, eta, eta1)
            b = resonance_chi(xi, xi - xi1, eta, eta - eta1)
            assert b == pytest.approx(a, rel=1e-12)

    def test_positive_on_positive_frequency_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            xi1, xi2 = rng.uniform(0.1, 10.0, 2)
            eta, eta1 = rng.uniform(-100.0, 100.0, 2)
            assert resonance_chi(xi1 + xi2, xi1, eta, eta1) > 0

    def test_exact_parabolic_scaling(self):
        # chi(N xi, N xi1, N^2 eta, N^2 eta1) = N^3 chi(xi, xi1, eta, eta1)
        args = (1.7, 0.6, 2.3, -0.9)
        base = resonance_chi(*args)
        for N in (2.0, 16.0, 128.0):
            scaled = resonance_chi(N * args[0], N * args[1],
                                   N ** 2 * args[2], N ** 2 * args[3])
            assert scaled == pytest.approx(N ** 3 * base, rel=1e-12)

    def test_zero_frequency_rejected(self):
        for bad in [(0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0),
                    (1.0, 1.0, 0.0, 0.0)]:  # third: xi2 = 0
            with pytest.raises(ValueError):
                resonance_chi(*bad)

    def test_vectorized_evaluation(self):
        xi1 = np.array([1.0, 2.0])
        out = resonance_chi(3.0, xi1, 0.0, 0.0)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(resonance_chi(3.0, 1.0, 0.0, 0.0))


class TestModulationAlgebra:
    def test_three_modulations_sum_to_chi(self):
        # sigma1 + sigma2 - sigma = chi for any tau splitting
        rng = np.random.default_rng(3)
        for _ in range(200):
            xi1, xi2 = rng.uniform(0.5, 8.0, 2)
            eta, eta1 = rng.uniform(-50.0, 50.0, 2)
            tau, tau1 = rng.uniform(-1e3, 1e3, 2)
            xi = xi1 + xi2
            sigma = tau - P(xi, eta)
            sigma1 = tau1 - P(xi1, eta1)
            sigma2 = (tau - tau1) - P(xi2, eta - eta1)
            chi = resonance_chi(xi, xi1, eta, eta1)
            assert sigma1 + sigma2 - sigma == pytest.approx(chi, rel=1e-10)

    def test_largest_modulation_dominates_resonance(self):
        # max(|sigma|,|sigma1|,|sigma2|) >= |chi|/3 >= |xi xi1 xi2|
        rng = np.random.default_rng(4)
        for _ in range(200):
            xi1, xi2 = rng.uniform(0.2, 5.0, 2)
            eta, eta1 = rng.uniform(-20.0, 20.0, 2)
            tau, tau1 = rng.uniform(-100.0, 100.0, 2)
            xi = xi1 + xi2
            sigma = tau - P(xi, eta)
            sigma1 = tau1 - P(xi1, eta1)
            sigma2 = (tau - tau1) - P(xi2, eta - eta1)
            chi = resonance_chi(xi, xi1, eta, eta1)
            big = max(abs(sigma), abs(sigma1), abs(sigma2))
            assert big >= abs(chi) / 3.0 * (1 - 1e-12)
            assert abs(chi) / 3.0 >= abs(xi * xi1 * xi2) * (1 - 1e-12)


class TestKernelK:
    def test_zero_time(self):
        assert kernel_K(0.0, 3.0, 1.0, 2.0, 0.5) == 0

    def test_matches_naive_two_exponential_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = rng.uniform(1e-4, 0.5)
            xi1, xi2 = rng.uniform(0.5, 6.0, 2)
            eta, eta1 = rng.uniform(-10.0, 10.0, 2)
            xi = xi1 + xi2
            chi = resonance_chi(xi, xi1, eta, eta1)
            denom = -xi ** 2 + xi1 ** 2 + xi2 ** 2 + 1j * chi
            naive = (np.exp(t * (-(xi1 ** 2 + xi2 ** 2) + 1j * chi))
                     - np.exp(-t * xi ** 2)) / denom
            got = kernel_K(t, xi, xi1, eta, eta1)
            assert got == pytest.approx(naive, rel=1e-12)

    def test_small_time_modulus_is_t(self):
        # |K(t)|/t -> 1 as t -> 0 (numerator ~ t * |denominator|); the naive
        # difference of exponentials would cancel catastrophically here
        for args in [(3.0, 1.0, 2.0, 0.5), (40.0, 20.0, 500.0, 450.0)]:
            t = 1e-9
            assert abs(kernel_K(t, *args)) / t == pytest.approx(1.0, rel=1e-5)

    def test_vectorized_evaluation(self):
        xi1 = np.array([1.0, 1.5])
        out = kernel_K(0.1, 3.0, xi1, 2.0, 0.5)
        assert out.shape == (2,)
        assert out[1] == pytest.approx(kernel_K(0.1, 3.0, 1.5, 2.0, 0.5))


class TestSecondIterate:
    def test_zero_time_gives_zero(self):
        assert second_iterate_hat(16, -0.7, 0.0, 36.0, 400.0, cells=64) == 0

    def test_outside_window_gives_zero(self):
        t = 16.0 ** -3.01
        assert second_iterate_hat(16, -0.7, t, 160.0, 0.0, cells=64) == 0
        assert second_iterate_hat(16, -0.7, t, 36.0, 1.0e6, cells=64) == 0

    def test_quadrature_cells_converged(self):
        t = 16.0 ** -3.01
        a = second_iterate_hat(16, -0.7, t, 36.0, 400.0, cells=64)
        b = second_iterate_hat(16, -0.7, t, 36.0, 400.0, cells=256)
        assert abs(a - b) / abs(b) < 1e-3

    def test_small_cells_rejected(self):
        with pytest.raises(ValueError):
            second_iterate_hat(16, -0.7, 1e-3, 36.0, 400.0, cells=32)

    def test_hat_n_below_4_rejected(self):
        with pytest.raises(ValueError, match="N must be >= 4"):
            second_iterate_hat(3, -0.7, 1e-3, 36.0, 400.0, cells=64)

    def test_blocked_table_matches_pointwise_density(self):
        # The first and last column of every group must reproduce the
        # one-point path.  Groups are runs of non-empty columns, so one
        # group holds clipped and full columns together.
        N, s, cells = 16, -0.7, 64
        t = 16.0 ** -3.01
        xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
        xi_nodes, _ = _midpoints(np.float64(xi_lo), np.float64(xi_hi), cells)
        eta_nodes, _ = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)
        pair = rectangle_pair(N)
        _, _, y_lo, y_hi = _k1_bounds(pair, xi_nodes, eta_nodes)
        is_full = full_columns(pair, y_lo, y_hi)
        group = column_group(cells)
        cols = np.flatnonzero(y_lo < y_hi)
        blocks = [cols[j:j + group] for j in range(0, cols.size, group)]
        assert any(is_full[b].any() and not is_full[b].all() for b in blocks)
        edges = {int(c) for b in blocks for c in (b[0], b[-1])}
        table = _window_density(N, s, t, cells)[0]
        for i in (0, cells // 2, cells - 1):
            for j in sorted(edges):
                xi, eta = xi_nodes[i], eta_nodes[j]
                hat = second_iterate_hat(N, s, t, xi, eta, cells)
                pointwise = (1.0 + xi * xi) ** s * abs(hat) ** 2
                assert table[i, j] == pytest.approx(pointwise, rel=1e-12)

    def test_norm_frozen_regression(self):
        # frozen regression anchor for the full quadrature pipeline
        r = second_iterate_norm(16, -0.7, 0.01, cells=64)
        assert isinstance(r, IllposedResult)
        assert r.norm_u2 == pytest.approx(0.07925440099417423, rel=1e-9)

    def test_result_metadata(self):
        r = second_iterate_norm(16, -0.7, 0.01, cells=64)
        assert r.t_N == pytest.approx(16.0 ** (-3.01), rel=1e-14)
        assert r.norm_phi == pytest.approx(
            build_phi_N(16, -0.7).sobolev_norm(-0.7), rel=1e-12)
        assert r.quadrature_cells == 64

    def test_small_N_rejected(self):
        with pytest.raises(ValueError):
            second_iterate_norm(4, -0.7, 0.01, cells=64)


def direct_window_density(N, s, t, cells):
    """The _window_density table with a sine and a cosine at every node."""
    xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
    xi_nodes, _ = _midpoints(np.float64(xi_lo), np.float64(xi_hi), cells)
    eta_nodes, _ = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)
    x_lo, x_hi, y_lo, y_hi = _k1_bounds(rectangle_pair(N), xi_nodes, eta_nodes)
    y_mid, wy = _midpoints(y_lo, y_hi, cells)
    amp2 = float(N) ** (2.0 * (-1.5 - s))
    table = np.empty((cells, cells))
    mod2 = np.empty(cells)
    for i, x in enumerate(xi_nodes):
        x_mid, wx = _midpoints(x_lo[i], x_hi[i], cells)
        for j in range(0, cells, 4):  # 4 outer eta per call keeps the temporaries small
            K = kernel_K(t, x, x_mid[None, :, None],
                         eta_nodes[j:j + 4, None, None], y_mid[j:j + 4, None, :])
            mod2[j:j + 4] = K.real.sum(axis=(1, 2)) ** 2 + K.imag.sum(axis=(1, 2)) ** 2
        table[i] = x * x * (1.0 + x * x) ** s * (2.0 * amp2 * wx * wy) ** 2 * mod2
    return table


class TestSeparablePhase:
    @pytest.mark.parametrize("N", [16, 128])
    @pytest.mark.parametrize("cells", [64, 67, 96])  # 67: the phase tables pad
    def test_table_matches_direct_kernel(self, N, cells):
        t = float(N) ** -3.01
        table = _window_density(N, -0.7, t, cells)[0]
        np.testing.assert_allclose(table, direct_window_density(N, -0.7, t, cells),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("N", [16, 128])
    @pytest.mark.parametrize("cells", [64, 67, 96])
    def test_full_columns_are_those_covering_D2(self, N, cells):
        pair = rectangle_pair(N)
        xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
        eta_nodes, _ = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)
        expect = []
        for eta in eta_nodes:
            rect = interaction_rectangle(N, 0.5 * (xi_lo + xi_hi), eta)
            expect.append(rect.eta_min == pair.D2.eta_min
                          and rect.eta_max == pair.D2.eta_max)
        _, _, y_lo, y_hi = _k1_bounds(pair, 0.0, eta_nodes)
        full = full_columns(pair, y_lo, y_hi)
        assert full.tolist() == expect
        assert 0.8 < full.mean() < 0.9  # 11 of the window's 13 N^2

    def test_nonfinite_density_stops_quietly(self):
        # t = N^7 (eps0 = -10): the kernel overflows in the first row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = _window_density(8, -0.7, 8.0 ** 7, 64)[0]
        assert np.isnan(table).all()


def block_setup(N, cells, kind):
    """(t, xi nodes, x_lo, x_hi, eta nodes, eta1 nodes, eta1 widths, block):
    the quadrature's nodes at (N, cells) and a group of clipped columns
    whose k1 eta interval is cut at its bottom or at its top."""
    t = float(N) ** -3.01
    xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
    xi_nodes, _ = _midpoints(np.float64(xi_lo), np.float64(xi_hi), cells)
    eta_nodes, _ = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)
    pair = rectangle_pair(N)
    x_lo, x_hi, y_lo, y_hi = _k1_bounds(pair, xi_nodes, eta_nodes)
    y_mid, wy = _midpoints(y_lo, y_hi, cells)
    if kind == "bottom":
        cut = (y_lo > pair.D2.eta_min) & (y_hi == pair.D2.eta_max)
    else:
        cut = (y_lo == pair.D2.eta_min) & (y_hi < pair.D2.eta_max)
    block = np.flatnonzero(cut & (y_lo < y_hi))[:column_group(cells)]
    assert block.size > 0 and not full_columns(pair, y_lo, y_hi)[block].any()
    return t, xi_nodes, x_lo, x_hi, eta_nodes, y_mid, wy, block


def phase_rows(pair, step, cells):
    """Copies of the rows of e^{ih} that _window_density makes from the seeds
    in ``pair`` and ``step``: row p+1 = row p R_p, R_{p+1} = R_p S."""
    phase, ratio = pair
    for p in range(-(-cells // phase.shape[0])):
        if p:
            phase *= ratio
            ratio *= step
        yield phase.copy()


class TestPhaseSource:
    """The quadrature's e^{ih}: built by products, checked node by node."""

    @pytest.mark.parametrize("kind", ["bottom", "top"])
    @pytest.mark.parametrize("N", [16, 128])
    @pytest.mark.parametrize("cells", [64, 67, 128])  # 128: the longest row recurrences
    def test_clipped_block_matches_direct_exponential(self, cells, N, kind):
        t, xi_nodes, x_lo, x_hi, eta_nodes, y_mid, wy, block = block_setup(N, cells, kind)
        n_q = _row_shape(cells)[0]
        shape = (n_q, block.size, cells)
        pair, scratch = np.empty((2, 2) + shape, dtype=complex)
        step = np.empty(shape[1:], dtype=complex)
        for i in (0, cells // 2, cells - 1):
            x = xi_nodes[i]
            x_mid, _ = _midpoints(x_lo[i], x_hi[i], cells)
            dy, col = np.unique(wy[block], return_inverse=True)
            _phase_seeds(pair, scratch, step, t, x, x_mid, eta_nodes[block, None],
                         y_mid[block, :1], dy[:, None], col)
            got = np.concatenate(list(phase_rows(pair, step, cells)))
            chi = resonance_chi(x, x_mid, eta_nodes[block, None], y_mid[block].T[:, :, None])
            want = np.exp(0.5j * t * chi)
            np.testing.assert_allclose(got[:cells], want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("N", [16, 128])
    @pytest.mark.parametrize("cells", [64, 67, 128])
    def test_shared_steps_match_each_column_alone(self, cells, N):
        # A group that holds full and clipped columns seeds the gamma terms
        # once per distinct eta1 step; every column's seeds keep the bits
        # they have when the column is seeded alone.
        t = float(N) ** -3.01
        xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
        xi_nodes, _ = _midpoints(np.float64(xi_lo), np.float64(xi_hi), cells)
        eta_nodes, _ = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)
        pair_N = rectangle_pair(N)
        x_lo, x_hi, y_lo, y_hi = _k1_bounds(pair_N, xi_nodes, eta_nodes)
        y_mid, wy = _midpoints(y_lo, y_hi, cells)
        block = np.flatnonzero(y_lo < y_hi)[:column_group(cells)]
        full = full_columns(pair_N, y_lo, y_hi)[block]
        assert full.any() and not full.all()
        dy, col = np.unique(wy[block], return_inverse=True)
        assert dy.size < block.size
        n_q = _row_shape(cells)[0]
        shape = (n_q, block.size, cells)
        pair, scratch = np.empty((2, 2) + shape, dtype=complex)
        step = np.empty(shape, dtype=complex)
        one_pair, one_scratch = np.empty((2, 2, n_q, 1, cells), dtype=complex)
        one_step = np.empty((n_q, 1, cells), dtype=complex)
        for i in (0, cells // 2, cells - 1):
            x = xi_nodes[i]
            x_mid, _ = _midpoints(x_lo[i], x_hi[i], cells)
            _phase_seeds(pair, scratch, step, t, x, x_mid, eta_nodes[block, None],
                         y_mid[block, :1], dy[:, None], col)
            for k, b in enumerate(block):
                _phase_seeds(one_pair, one_scratch, one_step, t, x, x_mid,
                             eta_nodes[[b], None], y_mid[[b], :1], wy[[b], None],
                             np.zeros(1, dtype=int))
                assert pair[:, :, k].tobytes() == one_pair[:, :, 0].tobytes()
                assert step[:, k].tobytes() == one_step[:, 0].tobytes()

    @staticmethod
    def count_values(monkeypatch, names):
        """{name: values evaluated} of the numpy ufuncs ``names``, while it runs."""
        evaluated = dict.fromkeys(names, 0)
        for name in names:
            ufunc = getattr(np, name)

            def counted(x, *args, _ufunc=ufunc, _name=name, **kwargs):
                evaluated[_name] += np.size(x)
                return _ufunc(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        return evaluated

    def test_quadrature_takes_no_sine_or_cosine_per_node(self, monkeypatch):
        # The phase source takes 0.110 sines and as many cosines per node at
        # cells=64, N=16.  Either direct form, e^{ih} by one sine and one
        # cosine per node or by a complex exp, on the clipped columns alone
        # (10 of 64) would add 0.31 per node.
        cells = 64
        evaluated = self.count_values(monkeypatch, ("sin", "cos", "exp"))
        _window_density(16, -0.7, 16.0 ** -3.01, cells)
        assert sum(evaluated.values()) < cells ** 4 / 4

    def test_gamma_seeds_take_one_sine_per_distinct_step(self, monkeypatch):
        # Three seeds per (column, xi1) and three per (distinct eta1 step,
        # xi1): the 64 columns of N=16, cells=64 have 11 distinct steps, so
        # 64 xi rows x 64 xi1 x (3 x 64 + 3 x 11) = 921,600 values each.
        # All six seeds per column would take 1,572,864.
        evaluated = self.count_values(monkeypatch, ("sin", "cos"))
        _window_density(16, -0.7, 16.0 ** -3.01, 64)
        assert 0 < evaluated["sin"] <= 921_600
        assert 0 < evaluated["cos"] <= 921_600


class TestChiRows:
    """The quadrature's chi / g: row 0 direct, then by row differences."""

    @pytest.mark.parametrize("N", [16, 128])
    @pytest.mark.parametrize("cells", [64, 67, 128])
    def test_rows_match_resonance_chi(self, cells, N):
        # Worst relative error over every xi row and column group: 2.8e-15
        # (cells=64), 3.0e-15 (67) and 5.7e-15 (128), at N=16 and N=128.
        t = float(N) ** -3.01
        xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
        xi_nodes, _ = _midpoints(np.float64(xi_lo), np.float64(xi_hi), cells)
        eta_nodes, _ = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)
        x_lo, x_hi, y_lo, y_hi = _k1_bounds(rectangle_pair(N), xi_nodes, eta_nodes)
        y_mid, wy = _midpoints(y_lo, y_hi, cells)
        n_q, group = _row_shape(cells)
        block = np.flatnonzero(y_lo < y_hi)[:group]
        den = np.empty((n_q, block.size, cells), dtype=complex)
        delta = np.empty(den.shape)
        for i in (0, cells // 2, cells - 1):
            x = xi_nodes[i]
            x_mid, _ = _midpoints(x_lo[i], x_hi[i], cells)
            g = _kernel_factors(t, x, x_mid)[0]
            grow = _chi_rows(den, delta, x, x_mid, eta_nodes[block, None],
                             y_mid[block, :n_q].T[:, :, None], wy[block, None], g)
            rows = []
            for p in range(-(-cells // n_q)):
                if p:
                    den.real += delta
                    delta += grow
                rows.append(den.real.copy())
            want = resonance_chi(x, x_mid, eta_nodes[block, None],
                                 y_mid[block].T[:, :, None]) / g
            np.testing.assert_allclose(np.concatenate(rows)[:cells], want,
                                       rtol=6e-15, atol=0.0)


class TestQuadratureBuffers:
    def test_each_row_is_one_kernel_call_over_every_column(self, monkeypatch):
        # A row of eta1 nodes is one large call: every numpy call releases
        # the interpreter lock to scaling_study's other thread.
        cells = 64
        shapes = []
        kernel = illposedness._kernel

        def spy(den, phase, out, out_imag, r):
            shapes.append(phase.shape)
            return kernel(den, phase, out, out_imag, r)

        monkeypatch.setattr(illposedness, "_kernel", spy)
        N = 16
        _window_density(N, -0.7, float(N) ** -3.01, cells)
        xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
        xi_nodes, _ = _midpoints(np.float64(xi_lo), np.float64(xi_hi), cells)
        eta_nodes, _ = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)
        x_lo, x_hi, y_lo, y_hi = _k1_bounds(rectangle_pair(N), xi_nodes, eta_nodes)
        n_q = _row_shape(cells)[0]
        rows = np.count_nonzero(x_lo < x_hi) * (cells // n_q)
        assert shapes == [(n_q, np.count_nonzero(y_lo < y_hi), cells)] * rows

    def test_concurrent_calls_match_serial(self):
        # Each call owns its block buffers: two calls at once on two threads
        # (as scaling_study runs them) give the serial tables bit for bit.
        args = [(N, -0.7, float(N) ** -3.01, 64) for N in (16, 32)]
        serial = [_window_density(*a)[0] for a in args]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(_window_density, *a) for a in args]
                threaded = [f.result(timeout=300)[0] for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, threaded):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("cells, pin_mib", [(64, 1.78), (128, 2.12)])
    def test_peak_allocation_per_call(self, alloc_peak, cells, pin_mib):
        # tracemalloc peak of one call at N=16, in MiB: 1.92 (cells=64)
        # and 2.15 (cells=128) with rows of 4 eta1 nodes, whose seeds are
        # made in the row buffers, and the phase step, chi's growth and the
        # kernel's r held in the row's shape.  The pin allows 10% over 1.78
        # and 2.12, the peaks when the per-call buffers were first pinned.
        _, peak = alloc_peak(_window_density, 16, -0.7, 16.0 ** -3.01, cells)
        assert peak <= 1.1 * pin_mib * 2 ** 20


class TestScalingStudy:
    def test_requires_four_increasing_N(self):
        with pytest.raises(ValueError):
            scaling_study([16, 32, 64], -0.7, 0.01, cells=64)
        with pytest.raises(ValueError):
            scaling_study([16, 32, 32, 64], -0.7, 0.01, cells=64)

    @pytest.mark.xfail(
        strict=True,
        reason="critical flatness s=-0.5: at the mandated finite N the e^{-t xi^2} "
               "transient of the dissipative kernel lifts the fitted slope by "
               "~+0.10 (measured ~+0.11, predicted -eps0 ~ 0, band +-0.08); the "
               "lift shrinks as N grows (t_N xi^2 ~ N^{-1-eps0}) but has not "
               "decayed at N <= 128.  A dissipation-off diagnostic recovers the "
               "predicted exponent.")
    def test_critical_flatness_slope(self):
        study = scaling_study([16, 32, 64, 128], -0.5, 0.001, cells=64)
        assert abs(study.slope - (-0.001)) <= 0.08

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected_before_any_quadrature(self, monkeypatch, threads):
        def started(*args, **kwargs):
            raise AssertionError("a pool or a quadrature was started")

        monkeypatch.setattr(illposedness, "ThreadPoolExecutor", started)
        monkeypatch.setattr(illposedness, "second_iterate_norm", started)
        with pytest.raises(ValueError, match=rf"^threads must be >= 1, got {threads}$"):
            scaling_study([16, 32, 64, 128], -0.7, 0.01, cells=64, threads=threads)

    def test_threads_none_means_every_cpu(self, monkeypatch):
        class Stop(Exception):
            pass

        def pool(max_workers):
            raise Stop(max_workers)

        monkeypatch.setattr(illposedness, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(illposedness.os, "cpu_count", lambda: 3)
        with pytest.raises(Stop) as stop:
            scaling_study([16, 32, 64, 128], -0.7, 0.01, cells=64)
        assert stop.value.args == (3,)

    def test_fit_reproduces_results(self):
        study = scaling_study([8, 10, 12, 14], -0.7, 0.01, cells=64)
        assert len(study.results) == 4
        assert [r.N for r in study.results] == [8, 10, 12, 14]
        logN = np.log([r.N for r in study.results])
        logU = np.log([r.norm_u2 for r in study.results])
        slope, intercept = np.polyfit(logN, logU, 1)
        assert study.slope == pytest.approx(slope, rel=1e-12)
        assert study.intercept == pytest.approx(intercept, rel=1e-12)


class TestChiBound:
    def test_bounded_by_hundred_after_scaling(self):
        assert chi_bound_check(16, 10000) <= 100.0

    def test_reproducible_for_fixed_seed(self):
        a = chi_bound_check(16, 10000, seed=5)
        b = chi_bound_check(16, 10000, seed=5)
        assert a == b

    def test_seed_variation_is_mild(self):
        a = chi_bound_check(16, 20000, seed=0)
        b = chi_bound_check(16, 20000, seed=1)
        assert 0.5 < a / b < 2.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            chi_bound_check(16, 9999)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            chi_bound_check(16, 10000, seed=-1)
