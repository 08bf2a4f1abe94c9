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

from kpblab.illposedness import (
    _BLOCK_NODES,
    IllposedResult,
    _full_columns,
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
    _midpoints,
    _window_density,
)
from kpblab.norms import sobolev_norm
from kpblab.spectral_core import hermitian_defect, is_kp_admissible, make_grid

SQ3 = math.sqrt(3.0)


def P(xi, eta):
    return xi ** 3 - eta ** 2 / xi


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
        vals = [build_phi_N(N, -0.7).sobolev_norm(-0.7, 0.0) for N in (16, 64, 256)]
        assert max(vals) / min(vals) < 1.01

    def test_grid_realization_matches_analytic_norm(self):
        N = 16
        g = make_grid(80, 128, 16 * np.pi / N, 8 * np.pi / N ** 2)
        f = build_phi_N(N, -0.7, g)
        grid_norm = sobolev_norm(f, -0.7, 0.0)
        analytic = build_phi_N(N, -0.7).sobolev_norm(-0.7, 0.0)
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

    def test_blocked_table_matches_pointwise_density(self):
        # The first and last column of every block must reproduce the
        # one-point path.  Blocks are runs of ``rows`` entries of the clipped
        # and of the full column lists, not runs of consecutive eta.
        N, s, cells = 16, -0.7, 64
        t = 16.0 ** -3.01
        xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
        xi_nodes, _ = _midpoints(np.float64(xi_lo), np.float64(xi_hi), cells)
        eta_nodes, _ = _midpoints(np.float64(eta_lo), np.float64(eta_hi), cells)
        pair = rectangle_pair(N)
        _, _, y_lo, y_hi = _k1_bounds(pair, xi_nodes, eta_nodes)
        is_full = _full_columns(pair, y_lo, y_hi)
        rows = max(1, _BLOCK_NODES // cells ** 2)
        edges = set()
        for cols in (np.flatnonzero(~is_full & (y_lo < y_hi)), np.flatnonzero(is_full)):
            assert cols.size > rows  # each kind has a block edge inside its list
            for j in range(0, cols.size, rows):
                edges.update((cols[j], cols[min(j + rows, cols.size) - 1]))
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
            build_phi_N(16, -0.7).sobolev_norm(-0.7, 0.0), rel=1e-12)
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
        full = _full_columns(pair, y_lo, y_hi)
        assert full.tolist() == expect
        assert 0.8 < full.mean() < 0.9  # 11 of the window's 13 N^2

    def test_nonfinite_density_stops_quietly(self):
        # t = N^7 (eps0 = -10): the kernel overflows in the first row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = _window_density(8, -0.7, 8.0 ** 7, 64)[0]
        assert np.isnan(table).all()


class TestQuadratureBuffers:
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
        # tracemalloc peak of one call at N=16, in MiB: 1.78 (cells=64) and
        # 2.12 (cells=128) when every block allocated fresh temporaries;
        # 1.78 and 2.27 with the per-call phase, denominator and scratch
        # buffers and a fresh table E per row; 1.78 and 2.12 with E in a
        # per-call buffer too.  The pin allows 10% over the last pair.
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
