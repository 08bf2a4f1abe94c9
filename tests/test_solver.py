"""Tests for kpblab.solver: nonlinearity, Picard iteration, ETD stepper.

Oracles: hand-derived single-mode identities (cos(x) -> -sin(2x)), the exact
skew-symmetry <d/dx(u^2), u> = 0, the closed-form free decay e^{-t} of a
single xi=1 mode, and cross-checks between the two independent integrators.
"""

import warnings

import numpy as np
import pytest

import kpblab.solver as solver_module
from kpblab.semigroup import apply_W, semigroup_table
from kpblab.solver import (
    PicardReport,
    Trajectory,
    _dx_table,
    _full,
    _nonlin,
    l2_history,
    nonlinearity,
    picard_step,
    solve_etd,
    solve_picard,
)
from kpblab.spectral_core import (
    SpectralField,
    forward_transform,
    hermitian_defect,
    inverse_transform,
    l2_norm,
    make_grid,
    project_zero_x_mean,
)


def idx(grid, kx, ky):
    return kx % grid.nx, ky % grid.ny


def gaussian_datum(grid, amplitude=0.05):
    u = amplitude * np.exp(-(grid.x[:, None] ** 2 + grid.y[None, :] ** 2))
    return project_zero_x_mean(forward_transform(u, grid))


@pytest.fixture(scope="module")
def grid():
    return make_grid(32, 32, np.pi, np.pi)


class TestNonlinearity:
    def test_zero_maps_to_zero(self, grid):
        f = SpectralField(grid=grid, coeffs=np.zeros((32, 32), complex))
        assert np.all(nonlinearity(f).coeffs == 0)

    def test_cosine_produces_minus_sin_2x(self, grid):
        # d/dx(cos^2 x) = -sin(2x): only modes kx = +-2, ky = 0 survive
        u = np.cos(grid.x)[:, None] * np.ones(32)[None, :]
        f = forward_transform(u, grid)
        nl = nonlinearity(f)
        out = inverse_transform(nl)
        expect = -np.sin(2 * grid.x)[:, None] * np.ones(32)[None, :]
        assert np.max(np.abs(out - expect)) < 1e-12
        live = np.abs(nl.coeffs) > 1e-9 * np.max(np.abs(nl.coeffs))
        assert set(zip(*np.nonzero(live))) == {idx(grid, 2, 0), idx(grid, -2, 0)}

    def test_skew_symmetry_pairing_vanishes(self, grid):
        # <d/dx(u^2), u>_{L^2} = 0 exactly for the dealiased product
        f = gaussian_datum(grid, amplitude=1.0)
        nl = nonlinearity(f)
        pairing = np.sum(np.conj(f.coeffs) * nl.coeffs) * grid.cell_measure
        assert abs(pairing.real) < 1e-12 * l2_norm(f) * l2_norm(nl)

    def test_output_admissible_and_real(self, grid):
        f = gaussian_datum(grid)
        nl = nonlinearity(f)
        assert np.max(np.abs(nl.coeffs[0, :])) == 0.0
        assert hermitian_defect(nl) < 1e-12 * max(np.max(np.abs(nl.coeffs)), 1e-300)


class TestTrajectory:
    def test_fields_and_accessors(self, grid):
        times = np.linspace(0.0, 1.0, 9)
        coeffs = np.zeros((9, 32, 32), complex)
        traj = Trajectory(grid=grid, times=times, coeffs=coeffs)
        assert traj.n_times == 9
        assert traj.dt == pytest.approx(0.125)
        assert traj.state(3).coeffs.shape == (32, 32)

    def test_nonuniform_times_rejected(self, grid):
        times = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            Trajectory(grid=grid, times=times, coeffs=np.zeros((3, 32, 32), complex))

    def test_times_must_start_at_zero(self, grid):
        times = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            Trajectory(grid=grid, times=times, coeffs=np.zeros((3, 32, 32), complex))

    def test_shape_mismatch_rejected(self, grid):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            Trajectory(grid=grid, times=times, coeffs=np.zeros((4, 32, 32), complex))


class TestPicardStep:
    def test_zero_previous_gives_free_flow(self, grid):
        from kpblab.spectral_core import dealias
        phi = gaussian_datum(grid)
        prepared = dealias(project_zero_x_mean(phi))  # solver prepares the datum
        times = np.linspace(0.0, 0.5, 17)
        prev = Trajectory(grid=grid, times=times,
                          coeffs=np.zeros((17, 32, 32), complex))
        nxt = picard_step(prev, phi)
        for k, t in enumerate(times):
            expect = apply_W(prepared, float(t)).coeffs
            assert np.max(np.abs(nxt.coeffs[k] - expect)) < 1e-12 * max(
                np.max(np.abs(expect)), 1e-300)

    def test_zero_datum_fixed_point(self, grid):
        phi = SpectralField(grid=grid, coeffs=np.zeros((32, 32), complex))
        times = np.linspace(0.0, 0.5, 17)
        prev = Trajectory(grid=grid, times=times,
                          coeffs=np.zeros((17, 32, 32), complex))
        assert np.all(picard_step(prev, phi).coeffs == 0)


class TestSolvePicard:
    def test_zero_datum_converges_immediately(self, grid):
        phi = SpectralField(grid=grid, coeffs=np.zeros((32, 32), complex))
        traj, report = solve_picard(phi, 0.5, 16)
        assert report.converged
        assert np.all(traj.coeffs == 0)

    def test_report_residuals_strictly_decreasing(self, grid):
        _, report = solve_picard(gaussian_datum(grid), 0.1, 32)
        assert isinstance(report, PicardReport)
        assert report.converged
        hist = report.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_contraction_ratio_below_half(self, grid):
        # frozen regression: successive residual ratios for this datum are
        # ~2e-5; assert the documented geometric bound <= 1/2 with margin
        _, report = solve_picard(gaussian_datum(grid), 0.1, 32)
        hist = report.residual_history
        ratios = [b / a for a, b in zip(hist, hist[1:])]
        assert max(ratios) <= 0.5

    def test_l2_monotone_decreasing(self, grid):
        traj, _ = solve_picard(gaussian_datum(grid, amplitude=0.5), 0.5, 32)
        h = l2_history(traj)
        assert np.all(h[1:] <= h[:-1] * (1 + 1e-10))

    def test_states_real_and_admissible(self, grid):
        traj, _ = solve_picard(gaussian_datum(grid, amplitude=0.5), 0.2, 16)
        for k in range(traj.n_times):
            f = traj.state(k)
            scale = max(np.max(np.abs(f.coeffs)), 1e-300)
            assert hermitian_defect(f) < 1e-10 * scale
            assert np.max(np.abs(f.coeffs[0, :])) == 0.0

    def test_initial_state_is_prepared_datum(self, grid):
        phi = gaussian_datum(grid)
        traj, _ = solve_picard(phi, 0.1, 16)
        # state(0) equals the dealiased, projected datum
        from kpblab.spectral_core import dealias
        prep = dealias(project_zero_x_mean(phi))
        assert np.max(np.abs(traj.coeffs[0] - prep.coeffs)) < 1e-14

    def test_cauchy_in_discretization(self, grid):
        phi = gaussian_datum(grid)
        a, _ = solve_picard(phi, 0.1, 32)
        b, _ = solve_picard(phi, 0.1, 64)
        num = np.sqrt(np.sum(np.abs(a.coeffs[-1] - b.coeffs[-1]) ** 2))
        den = np.sqrt(np.sum(np.abs(b.coeffs[-1]) ** 2))
        assert num / den < 1e-6

    def test_nonconvergence_reported_not_raised(self, grid):
        phi = gaussian_datum(grid, amplitude=1.0)
        _, report = solve_picard(phi, 0.5, 16, tol=1e-15, max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    @pytest.mark.parametrize("kwargs", [
        dict(T=0.0, M=16), dict(T=-1.0, M=16), dict(T=0.1, M=4),
        dict(T=0.1, M=16, tol=0.0), dict(T=0.1, M=16, tol=np.nan),
        dict(T=0.1, M=16, max_iter=0),
    ])
    def test_bad_arguments_rejected(self, grid, kwargs):
        with pytest.raises(ValueError):
            solve_picard(gaussian_datum(grid), **kwargs)


class TestSolveEtd:
    def test_zero_datum(self, grid):
        phi = SpectralField(grid=grid, coeffs=np.zeros((32, 32), complex))
        traj = solve_etd(phi, 0.5, 16)
        assert np.all(traj.coeffs == 0)

    def test_linear_only_matches_semigroup(self, grid):
        phi = gaussian_datum(grid)
        traj = solve_etd(phi, 0.5, 32, include_nonlinearity=False)
        for k, t in enumerate(traj.times):
            expect = semigroup_table(grid, float(t)).factors * traj.coeffs[0]
            scale = max(np.max(np.abs(expect)), 1e-300)
            assert np.max(np.abs(traj.coeffs[k] - expect)) < 1e-12 * scale

    def test_agrees_with_picard(self, grid):
        phi = gaussian_datum(grid)
        p, _ = solve_picard(phi, 0.1, 64)
        e = solve_etd(phi, 0.1, 64)
        num = np.sqrt(np.sum(np.abs(p.coeffs[-1] - e.coeffs[-1]) ** 2))
        den = np.sqrt(np.sum(np.abs(p.coeffs[-1]) ** 2))
        assert num / den < 1e-5

    def test_l2_monotone(self, grid):
        traj = solve_etd(gaussian_datum(grid, amplitude=0.5), 0.5, 64)
        h = l2_history(traj)
        assert np.all(h[1:] <= h[:-1] * (1 + 1e-8))

    def test_bad_arguments_rejected(self, grid):
        with pytest.raises(ValueError):
            solve_etd(gaussian_datum(grid), 0.0, 16)
        with pytest.raises(ValueError):
            solve_etd(gaussian_datum(grid), 0.1, 4)


class TestL2History:
    def test_zero_trajectory(self, grid):
        times = np.linspace(0.0, 1.0, 17)
        traj = Trajectory(grid=grid, times=times,
                          coeffs=np.zeros((17, 32, 32), complex))
        assert np.all(l2_history(traj) == 0.0)

    def test_single_mode_free_decay_is_exp_minus_t(self, grid):
        # a xi=1 mode under W alone decays like e^{-t}
        coeffs = np.zeros((32, 32), complex)
        coeffs[idx(grid, 1, 0)] = 8.0
        coeffs[idx(grid, -1, 0)] = 8.0
        phi = SpectralField(grid=grid, coeffs=coeffs)
        times = np.linspace(0.0, 1.0, 21)
        states = np.array([apply_W(phi, float(t)).coeffs for t in times])
        traj = Trajectory(grid=grid, times=times, coeffs=states)
        h = l2_history(traj)
        assert np.max(np.abs(h / h[0] - np.exp(-times))) < 1e-13


def old_full_fft_nonlin(coeffs, grid):
    """The full-spectrum formula the half-spectrum _nonlin replaced."""
    u = np.fft.ifft2(coeffs * grid.phase).real
    w = np.fft.fft2(u * u) * grid.phase
    out = 1j * grid.xi[:, None] * w
    out[~grid.dealias_mask] = 0.0
    out[0, :] = 0.0
    return out


def random_real_field(grid, seed):
    rng = np.random.default_rng(seed)
    return forward_transform(rng.standard_normal((grid.nx, grid.ny)), grid)


def blowup_datum():
    # amplitude 500 over T = 10 with M = 16 overflows at step 4 (t = 2.5)
    grid = make_grid(32, 32, np.pi, np.pi)
    u = 500.0 * np.exp(-(grid.x[:, None] ** 2 + grid.y[None, :] ** 2) / (2 * 0.7 ** 2))
    return forward_transform(u, grid)


class TestHalfSpectrumLayout:
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
    def test_nonlin_matches_full_fft_formula(self, fraction):
        # non-square so a swapped axis shows; fraction 1 keeps both Nyquist lines
        grid = make_grid(32, 24, np.pi, 2.0, dealias_fraction=fraction)
        f = random_real_field(grid, 5)
        h = grid.ny // 2 + 1
        got = _nonlin(f.coeffs[:, :h], grid, _dx_table(grid))
        expect = old_full_fft_nonlin(f.coeffs, grid)[:, :h]
        assert got.shape == (grid.nx, h)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_full_rebuilds_fft2_of_real_field(self):
        u = np.random.default_rng(3).standard_normal((2, 16, 12))
        full = _full(np.fft.rfft2(u), 12)
        expect = np.fft.fft2(u)
        assert np.max(np.abs(full - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_full_is_exactly_hermitian_for_any_half(self):
        grid = make_grid(16, 12, np.pi, np.pi)
        rng = np.random.default_rng(4)
        half = rng.standard_normal((16, 7)) + 1j * rng.standard_normal((16, 7))
        full = _full(half, grid.ny)
        assert hermitian_defect(SpectralField(grid=grid, coeffs=full)) == 0.0
        assert np.array_equal(full[:, 1:6], half[:, 1:6])
        assert np.array_equal(full[:9, [0, 6]].real, half[:9, [0, 6]].real)

    def test_solver_outputs_exactly_hermitian(self, grid):
        phi = random_real_field(grid, 1)
        phi = SpectralField(grid=grid, coeffs=0.01 * phi.coeffs)
        for traj in (solve_picard(phi, 0.2, 16)[0], solve_etd(phi, 0.2, 16)):
            for k in range(traj.n_times):
                assert hermitian_defect(traj.state(k)) == 0.0

    def test_solve_picard_equals_iterated_picard_step(self, grid):
        phi = gaussian_datum(grid, amplitude=0.5)
        traj, report = solve_picard(phi, 0.2, 16)
        assert report.converged
        it = Trajectory(grid=grid, times=traj.times,
                        coeffs=np.zeros_like(traj.coeffs))
        residuals = []
        for _ in range(report.iterations):
            nxt = picard_step(it, phi)
            diff = np.sum(np.abs(nxt.coeffs - it.coeffs) ** 2, axis=(1, 2))
            residuals.append(float(np.sqrt(np.max(diff) * grid.cell_measure)))
            it = nxt
        scale = np.max(np.abs(traj.coeffs))
        assert np.max(np.abs(it.coeffs - traj.coeffs)) <= 1e-13 * scale
        # the last residual is a difference of nearly equal iterates
        assert report.residual_history == pytest.approx(
            residuals, rel=1e-9, abs=1e-12 * residuals[0])

    def test_l2_history_matches_abs_square_sum(self, grid):
        phi = random_real_field(grid, 2)
        traj = solve_etd(SpectralField(grid=grid, coeffs=0.01 * phi.coeffs), 0.2, 16)
        expect = np.sqrt(np.sum(np.abs(traj.coeffs) ** 2, axis=(1, 2))
                         * grid.cell_measure)
        assert np.max(np.abs(l2_history(traj) / expect - 1.0)) <= 1e-13


class TestBlowUpStopsEarly:
    def test_etd_stops_at_first_nonfinite_state_silently(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _nonlin(*args)

        monkeypatch.setattr(solver_module, "_nonlin", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve_etd(blowup_datum(), 10.0, 16)
            h = l2_history(traj)
        assert np.all(np.isfinite(h[:4]))
        assert not np.isfinite(h[4])
        assert np.all(np.isnan(traj.coeffs[5:]))
        assert len(calls) == 2 * 4  # two evaluations per step, none after step 4

    def test_picard_stops_at_nonfinite_residual_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = solve_picard(blowup_datum(), 10.0, 16, max_iter=25)
        assert not report.converged
        assert report.iterations < 25
        assert report.iterations == len(report.residual_history)
        assert np.all(np.isfinite(report.residual_history[:-1]))
        assert not np.isfinite(report.residual_history[-1])
