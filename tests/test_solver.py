"""Tests for kpblab.solver: nonlinearity, Picard iteration, ETD stepper.

Oracles: hand-derived single-mode identities (cos(x) -> -sin(2x)), the exact
skew-symmetry <d/dx(u^2), u> = 0, the closed-form free decay e^{-t} of a
single xi=1 mode, and cross-checks between the two independent integrators.
"""

import json
import warnings

import numpy as np
import pytest

import kpblab.solver as solver_module
from kpblab import cli
from kpblab.modes import ModeForm
from kpblab.semigroup import apply_W, semigroup_table
from kpblab.solver import (
    PicardReport,
    Trajectory,
    _band_extent,
    _band_form,
    _dx_product,
    _dx_table,
    _fast_size,
    _full,
    _band,
    _nonlin,
    _product_layout,
    _whole,
    dx_product,
    l2_history,
    nonlinearity,
    picard_step,
    solve_etd,
    solve_picard,
    solve_states,
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
from kpblab.verify import free_trajectory, random_field


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

    def test_previous_iterate_off_the_band_matches_full_formula(self, grid):
        # prev occupies every mode, so the whole half spectrum enters d/dx(u^2)
        from kpblab.spectral_core import dealias
        phi = gaussian_datum(grid, amplitude=0.5)
        times = np.linspace(0.0, 0.5, 9)
        dt = times[1]
        prev = Trajectory(grid=grid, times=times, coeffs=np.array(
            [0.1 * random_real_field(grid, 20 + k).coeffs for k in range(9)]))
        g = [old_full_fft_nonlin(c, grid) for c in prev.coeffs]
        w_dt = semigroup_table(grid, dt)
        prepared = dealias(project_zero_x_mean(phi)).coeffs
        acc = np.zeros_like(prepared)
        expect = []
        for k, t in enumerate(times):
            if k:
                acc = w_dt * acc + 0.5 * dt * (w_dt * g[k - 1] + g[k])
            expect.append(semigroup_table(grid, t) * prepared - 0.5 * acc)
        got = picard_step(prev, phi).coeffs
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


class TestSolvePicard:
    def test_zero_datum_converges_immediately(self, grid):
        phi = SpectralField(grid=grid, coeffs=np.zeros((32, 32), complex))
        traj, report = solve_picard(phi, 0.5, 16)
        assert report.converged and report.stop_reason == "converged"
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
        assert report.stop_reason == "max_iter"
        assert report.iterations == 2

    @pytest.mark.parametrize("kwargs", [
        dict(T=0.0, M=16), dict(T=-1.0, M=16), dict(T=0.1, M=4),
        dict(T=0.1, M=16, tol=0.0), dict(T=0.1, M=16, tol=np.nan),
        dict(T=0.1, M=16, max_iter=0), dict(T=np.nan, M=16), dict(T=np.inf, M=16),
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
        # u^2 of one conjugate pair at (kx, ky) = (6, 3) sits at kx = +-12,
        # outside the dealias band (|kx| <= 10 here), and at xi = 0, which is
        # projected out: on the band the nonlinearity is rounding only, so
        # ETD2RK is its exact linear part.  Larger xi would be damped below
        # the rounding floor by e^{-xi^2 t}.
        coeffs = np.zeros((32, 32), complex)
        coeffs[idx(grid, 6, 3)] = 0.05 + 0.02j
        coeffs[idx(grid, -6, -3)] = 0.05 - 0.02j
        traj = solve_etd(SpectralField(grid=grid, coeffs=coeffs), 0.5, 32)
        for k, t in enumerate(traj.times):
            expect = semigroup_table(grid, float(t)) * coeffs
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
        for T in (np.nan, np.inf):
            with pytest.raises(ValueError):
                solve_etd(gaussian_datum(grid), T, 16)


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
        rows, h = _whole(grid)
        got = _nonlin(f.coeffs[:, :h], grid, rows, _dx_table(grid, rows, h))
        expect = old_full_fft_nonlin(f.coeffs, grid)[:, :h]
        assert got.shape == (grid.nx, h)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_full_rebuilds_fft2_of_real_field(self):
        u = np.random.default_rng(3).standard_normal((2, 16, 12))
        full = _full(np.fft.rfft2(u), np.arange(16), (16, 12))
        expect = np.fft.fft2(u)
        assert np.max(np.abs(full - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_full_is_exactly_hermitian_for_any_half(self):
        grid = make_grid(16, 12, np.pi, np.pi)
        rng = np.random.default_rng(4)
        half = rng.standard_normal((16, 7)) + 1j * rng.standard_normal((16, 7))
        full = _full(half, np.arange(16), (16, 12))
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


class TestBandLayout:
    """The solvers keep and transform the dealias band only: the half
    spectrum's rows |kx| <= f nx/2 and its leading columns ky <= f ny/2."""

    # fraction 1 keeps both Nyquist lines in the band
    @pytest.mark.parametrize("shape, fraction, size", [((32, 24), 2.0 / 3.0, (21, 9)),
                                                       ((32, 24), 1.0, (32, 13)),
                                                       ((256, 256), 2.0 / 3.0, (171, 86))])
    def test_dx_product_equals_rfft2_product_bitwise(self, shape, fraction, size):
        grid = make_grid(*shape, np.pi, 2.0, dealias_fraction=fraction)
        rows, cols = _band(grid)
        assert (rows.size, cols) == size
        rng = np.random.default_rng(9)
        a, b = (rng.standard_normal((2, 2, rows.size, cols))  # batches of two
                + 1j * rng.standard_normal((2, 2, rows.size, cols)))
        half_a, half_b = np.zeros((2, 2, grid.nx, grid.ny // 2 + 1), dtype=complex)
        half_a[:, rows, :cols] = a
        half_b[:, rows, :cols] = b
        whole = _dx_table(grid, *_whole(grid))
        u, v = np.fft.irfft2(half_a, s=shape), np.fft.irfft2(half_b, s=shape)
        table = _dx_table(grid, rows, cols)
        for got, w in [(_dx_product(a, b, shape, rows, table), np.fft.rfft2(u * v)),
                       (_dx_product(a, a, shape, rows, table), np.fft.rfft2(u * u))]:
            w *= whole
            assert np.array_equal(got, w[:, rows, :cols])
            w[:, rows, :cols] = 0.0
            assert not np.any(w)

    def test_every_row_product_holds_no_band_copy(self, alloc_peak):
        # A band with every row (a verify product's band grid) is transformed
        # as it is, and the product is formed in place: the call holds at
        # most the two real fields and one complex transform at a time (the
        # scatter copies and u * v raised this from 2.80 to 3.70 MB here).
        batch, n, cols = 97, 34, 18
        grid = make_grid(n, n, np.pi, 2.0, dealias_fraction=1.0)
        rows = np.arange(n)
        table = _dx_table(grid, rows, cols)
        rng = np.random.default_rng(4)
        a, b = (rng.standard_normal((2, batch, n, cols))
                + 1j * rng.standard_normal((2, batch, n, cols)))
        _dx_product(a, b, (n, n), rows, table)  # pocketfft's plan caches
        _, peak = alloc_peak(_dx_product, a, b, (n, n), rows, table)
        assert peak <= 1.05 * (2 * batch * n * n * 8 + batch * n * cols * 16)

    def test_every_row_narrow_band_product_equals_rfft2_product_bitwise(self):
        # every row but fewer than ny/2 + 1 columns: the zero-padded path
        shape, cols = (32, 24), 9
        grid = make_grid(*shape, np.pi, 2.0, dealias_fraction=1.0)
        rows = np.arange(shape[0])
        rng = np.random.default_rng(11)
        a, b = (rng.standard_normal((2, 2, shape[0], cols))  # batches of two
                + 1j * rng.standard_normal((2, 2, shape[0], cols)))
        half_a, half_b = np.zeros((2, 2, shape[0], shape[1] // 2 + 1), dtype=complex)
        half_a[..., :cols] = a
        half_b[..., :cols] = b
        u, v = np.fft.irfft2(half_a, s=shape), np.fft.irfft2(half_b, s=shape)
        table = _dx_table(grid, rows, cols)
        for got, w in [(_dx_product(a, b, shape, rows, table), np.fft.rfft2(u * v)),
                       (_dx_product(a, a, shape, rows, table), np.fft.rfft2(u * u))]:
            want = w[..., :cols]
            want *= table
            assert np.array_equal(got, want)

    def test_solver_band_inverse_takes_the_whole_half_spectrum(self, monkeypatch):
        # numpy's irfft gives the same bits when it pads an input narrower
        # than ny/2 + 1 itself, but takes about 28% less time on the
        # zero-padded half spectrum
        grid = make_grid(256, 256, np.pi, 2.0)
        rows, cols = _band(grid)
        band = random_real_field(grid, 6).coeffs[rows, :cols]
        widths, irfft = [], np.fft.irfft

        def spy(c, *args, **kwargs):
            widths.append(c.shape[-1])
            return irfft(c, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)
        _nonlin(band, grid, rows, _dx_table(grid, rows, cols))
        assert widths == [grid.ny // 2 + 1]

    def test_solver_band_product_holds_one_half_spectrum_scratch(self, alloc_peak):
        # One solver-band product holds one zeroed (nx, ny/2 + 1) complex
        # scratch, the real product field and the band it returns:
        # 1,291,848 B measured at 256^2 (1,407,016 B with a separate
        # zeroed column array and a new array per transform).
        grid = make_grid(256, 256, np.pi, 2.0)
        rows, cols = _band(grid)
        table = _dx_table(grid, rows, cols)
        band = random_real_field(grid, 6).coeffs[rows, :cols]
        _nonlin(band, grid, rows, table)  # pocketfft's plan caches
        _, peak = alloc_peak(_nonlin, band, grid, rows, table)
        half, field, out = 256 * 129 * 16, 256 * 256 * 8, rows.size * cols * 16
        assert peak <= 1.05 * (half + field + out)

    def test_solver_states_are_positive_zero_off_the_band(self, grid):
        phi = SpectralField(grid=grid, coeffs=0.01 * random_real_field(grid, 1).coeffs)
        for traj in (solve_picard(phi, 0.2, 16)[0], solve_etd(phi, 0.2, 16)):
            off = traj.coeffs[:, ~grid.dealias_mask]
            parts = np.concatenate([off.real, off.imag])
            assert not np.any(parts) and not np.any(np.signbit(parts))


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
        # amplitude 1e150: the datum's residual is finite, the first update's
        # difference is not
        grid = make_grid(32, 32, np.pi, np.pi)
        u = 1e150 * np.exp(-(grid.x[:, None] ** 2 + grid.y[None, :] ** 2) / (2 * 0.7 ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = solve_picard(forward_transform(u, grid), 0.1, 16, max_iter=25)
        assert not report.converged
        assert report.stop_reason == "non_finite"
        assert report.iterations == 2 == len(report.residual_history)
        assert np.isfinite(report.residual_history[0])
        assert not np.isfinite(report.residual_history[1])

    def test_picard_stops_when_the_residual_grows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = solve_picard(blowup_datum(), 10.0, 16, max_iter=25)
        assert not report.converged
        assert report.stop_reason == "residual_grew"
        assert report.iterations == 2 == len(report.residual_history)
        assert np.all(np.isfinite(report.residual_history))
        assert report.residual_history[1] > report.residual_history[0]


def stream_l2(phi, T, M, integrator):
    """(times, L^2 norms) of the ``solve_states`` stream, NaN after an early stop."""
    times, _, states = solve_states(phi, T, M, integrator)
    l2 = np.full(times.size, np.nan)
    for k, _, norm in states:
        l2[k] = norm
    return times, l2


class TestStreamingEtd:
    """The ``solve_states`` stream keeps no trajectory, and its L^2 norms
    equal ``l2_history`` of the collectors' trajectories bit for bit."""

    # 96 x 96 holds 18432 floats per state, more than einsum reduces in one
    # chunk of a batch, so it checks that the streamed sum keeps the order
    @pytest.mark.parametrize("n, M", [(32, 20), (48, 16), (96, 12)])
    def test_equals_l2_history_of_solve_etd_bitwise(self, n, M):
        g = make_grid(n, n, np.pi, np.pi)
        phi = SpectralField(grid=g, coeffs=0.01 * random_real_field(g, 3).coeffs)
        traj = solve_etd(phi, 0.2, M)
        times, l2 = stream_l2(phi, 0.2, M, "etd")
        assert times.tobytes() == traj.times.tobytes()
        assert l2.tobytes() == l2_history(traj).tobytes()

    @pytest.mark.parametrize("n, M", [(32, 20), (96, 12)])
    def test_picard_equals_l2_history_of_solve_picard_bitwise(self, n, M):
        g = make_grid(n, n, np.pi, np.pi)
        phi = SpectralField(grid=g, coeffs=0.01 * random_real_field(g, 3).coeffs)
        traj, report = solve_picard(phi, 0.2, M)
        times, _, states = solve_states(phi, 0.2, M)
        assert report.converged
        assert times.tobytes() == traj.times.tobytes()
        rows, _ = _band(g)
        l2 = []
        for k, state, norm in states:  # band states, expanded as the collector does
            assert _full(state, rows, (n, n)).tobytes() == traj.coeffs[k].tobytes()
            l2.append(norm)
        assert np.array(l2).tobytes() == l2_history(traj).tobytes()

    def test_blowup_stops_at_the_same_step(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, l2 = stream_l2(blowup_datum(), 10.0, 16, "etd")
            expect = l2_history(solve_etd(blowup_datum(), 10.0, 16))
        np.testing.assert_array_equal(l2, expect)
        assert np.all(np.isfinite(l2[:4]))
        assert not np.isfinite(l2[4])
        assert np.all(np.isnan(l2[5:]))

    def test_bad_arguments_rejected(self, grid):
        phi = gaussian_datum(grid)
        for integrator in ("picard", "etd"):
            for T, M in [(0.0, 16), (0.1, 2), (np.nan, 16), (np.inf, 16)]:
                with pytest.raises(ValueError):
                    solve_states(phi, T, M, integrator)
        with pytest.raises(ValueError, match="integrator must be picard or etd"):
            solve_states(phi, 0.1, 16, "rk4")

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_T_named_before_any_step(self, grid, monkeypatch, T):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(solver_module, "_nonlin", no_step)
        phi = gaussian_datum(grid)
        for solve in (solve_picard, solve_etd, solve_states,
                      lambda *args: solve_states(*args, "etd")):
            with pytest.raises(ValueError, match="T must be positive and finite"):
                solve(phi, T, 16)


class TestTrajectoryMemory:
    def test_picard_holds_under_four_half_trajectories(self, alloc_peak):
        # The peak is the full (M+1, nx, ny) output, the last band iterate
        # and one state's temporaries: 2,828,996 B measured, 1.33 band
        # tables above the output.  Four half-spectrum tables would be
        # 4,460,544 B.
        g = make_grid(64, 64, np.pi, np.pi)
        (_, report), peak = alloc_peak(solve_picard, gaussian_datum(g), 0.1, 32)
        assert report.converged
        band, full = 33 * 43 * 22 * 16, 33 * 64 * 64 * 16  # (M+1) rows cols complex
        assert peak < full + 2 * band

    def test_picard_band_solve_holds_two_band_tables(self, alloc_peak):
        # The band solve keeps the W(t_k) phi table and the one iterate,
        # which each update overwrites row by row.  The slack, 10 half
        # spectra (nx, ny/2 + 1), holds the two-row energy batch, one
        # product's transforms and the recurrence rows: 1,250,420 B
        # measured, 2.50 band tables.  A second iterate would add a third.
        g = make_grid(64, 64, np.pi, np.pi)
        (_, report, _), peak = alloc_peak(solve_states, gaussian_datum(g), 0.1, 32)
        assert report.converged
        band = 33 * 43 * 22 * 16  # (M+1) rows cols complex
        half = 64 * 33 * 16
        assert peak <= 2 * band + 10 * half

    @pytest.mark.parametrize("solve", [solve_picard, solve_etd])
    def test_oversized_trajectory_rejected_before_allocating(self, solve,
                                                             alloc_peak):
        g = make_grid(512, 512, np.pi, np.pi)
        phi = SpectralField(grid=g, coeffs=np.zeros((512, 512), dtype=complex))

        def attempt():
            with pytest.raises(ValueError, match="GiB of trajectory") as info:
                solve(phi, 1.0, 10 ** 7)
            return str(info.value)

        message, peak = alloc_peak(attempt)
        assert "M=10000000 on a 512x512 grid" in message
        assert peak < 2 ** 20  # not even the time grid was allocated

    def test_estimate_counts_what_each_solver_keeps(self, grid, monkeypatch, tmp_path):
        # 32 x 32 at M = 20: a band table is 21 * 21 * 11 * 16 B (|kx| <= 10,
        # ky = 0 .. 10), the full trajectory 21 * 32 * 32 * 16 B
        band, full = 21 * 21 * 11 * 16, 21 * 32 * 32 * 16
        phi = gaussian_datum(grid)
        for memory, picard_ok, etd_ok in [(2 * band + full, True, True),
                                          (2 * band + full - 1, False, True),
                                          (full - 1, False, False)]:
            monkeypatch.setattr(solver_module, "_physical_memory", lambda: memory)
            for solve, ok in [(solve_picard, picard_ok), (solve_etd, etd_ok)]:
                if ok:
                    solve(phi, 0.1, 20)
                else:
                    with pytest.raises(ValueError, match="physical memory"):
                        solve(phi, 0.1, 20)
            for _ in solve_states(phi, 0.1, 20, "etd")[2]:
                pass  # the ETD stream keeps no trajectory: never checked

        # `kpblab solve` keeps the two band tables of a Picard solve and
        # streams the states; a states.npz counts as one band table, which
        # bounds what `kpblab norms` holds of it.  ETD without states: never checked.
        config = {"command": "solve", "nx": 32, "ny": 32, "Lx": np.pi, "Ly": np.pi,
                  "T": 0.1, "M": 20, "tol": 1e-10, "max_iter": 25,
                  "phi_spec": {"type": "gaussian", "amplitude": 0.05, "widths": [1, 1]}}
        for estimate, over in [(2 * band, {"integrator": "picard"}),
                               (2 * band, {"integrator": "picard", "save_states": True}),
                               (band, {"integrator": "etd", "save_states": True}),
                               (0, {"integrator": "etd"})]:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(dict(config, **over)), encoding="utf-8")
            for memory, ok in [(estimate, True), (estimate - 1, estimate == 0)]:
                monkeypatch.setattr(solver_module, "_physical_memory", lambda: memory)
                if ok:
                    cli.run("solve", str(path), str(tmp_path / "out"))
                else:
                    with pytest.raises(cli.ConfigError, match="physical memory"):
                        cli.run("solve", str(path), str(tmp_path / "out"))


def full_grid_product(a, b, grid):
    """d/dx(uv) from full spectra, multiplied on the whole grid."""
    rows, h = _whole(grid)
    shape = (grid.nx, grid.ny)
    return _full(_dx_product(a[..., :h], b[..., :h], shape, rows,
                             _dx_table(grid, rows, h)), rows, shape)


def band_extent(a, b, grid):
    """``_band_extent`` of the fields behind the full spectra ``a`` and
    ``b`` (leading axes batch), or None when either is zero."""
    occupied = []
    for c in (a, b):
        modes = np.flatnonzero(np.any(c, axis=tuple(range(c.ndim - 2))))
        if modes.size == 0:
            return None
        occupied.append(modes)
    return _band_extent(grid, *occupied)


def band_grid(a, b, grid):
    """The band grid (mx, my) of ``band_extent``, or None when either field
    is zero."""
    extent = band_extent(a, b, grid)
    return None if extent is None else extent[0]


def dx_product_full(a, b, grid):
    """d/dx(uv) from full spectra (leading axes batch), multiplied on the
    band grid of ``band_extent`` laid out by ``_product_layout``: the
    fields' half spectra are gathered onto it, multiplied, and expanded
    back with ``_full``.  The oracle of ``dx_product`` on mode forms."""
    extent = band_extent(a, b, grid)
    if extent is None:
        return np.zeros(a.shape, dtype=complex)
    shape, rows, table = _product_layout(grid, *extent)
    cols = table.shape[-1]
    ha = a[..., rows, :cols]
    hb = ha if b is a else b[..., rows, :cols]
    w = _dx_product(ha, hb, shape, np.arange(shape[0]), table)
    return _full(w, rows, (grid.nx, grid.ny))


def mode_product(a, b, grid):
    """``dx_product`` of the mode forms of the full spectra ``a`` and ``b``
    (leading axes batch), expanded to full spectra."""
    forms = [ModeForm.gather(grid, c.reshape(-1, grid.nx * grid.ny))
             for c in ((a,) if b is a else (a, b))]
    u, v = forms * 2 if b is a else forms
    return dx_product(u, v).expand().reshape(a.shape)


class TestBandProduct:
    """dx_product multiplies on the smallest even grid with no prime factor
    above 5 that holds the product's band without aliasing; on the
    alias-free size 2B + 2 when only that fits the grid; and on the whole
    grid otherwise."""

    @pytest.mark.parametrize("band, n, size", [
        (16, 64, 36), (17, 64, 36), (16, 34, 34), (16, 32, 34), (20, 44, 42),
        (20, 48, 48), (2, 8, 6), (0, 8, 2)])
    def test_band_grid_size(self, band, n, size):
        # a size past n makes the product take the whole grid
        assert _fast_size(band, n) == size

    @pytest.mark.parametrize("n, band", [(34, 8), (44, 10)])
    def test_fast_size_past_the_grid_keeps_the_alias_free_grid(self, n, band):
        # 2B + 2 (34, 42) fits the grid and 36, 48 do not: the product is
        # taken on the 2B + 2 band grid, bit for bit as the layout that
        # drops only that grid's Nyquist row and column gives it.  (On
        # either grid the grid's own dealias table keeps |k| <= 2n/6.)
        grid = make_grid(n, n, np.pi, np.pi)
        keep = (np.abs(grid.kx_int)[:, None] <= band) & (np.abs(grid.ky_int)[None, :] <= band)
        a, b = (np.where(keep, random_real_field(grid, seed).coeffs, 0.0) for seed in (3, 4))
        m = 4 * band + 2
        assert band_grid(a, b, grid) == (m, m)
        rows = np.fft.fftfreq(m, d=1.0 / m).astype(np.int64) % n
        table = _dx_table(grid, rows, m // 2 + 1) * (m * m / (n * n))
        table[m // 2] = 0.0
        table[:, m // 2] = 0.0
        cols = m // 2 + 1
        want = _full(_dx_product(a[rows, :cols], b[rows, :cols], (m, m), np.arange(m), table),
                     rows, (n, n))
        assert np.array_equal(mode_product(a, b, grid), want)
        assert np.array_equal(dx_product_full(a, b, grid), want)

    @pytest.fixture(scope="class")
    def pair(self):
        grid = make_grid(64, 64, np.pi, np.pi)
        rng = np.random.default_rng([1, 0])
        return (free_trajectory(random_field(grid, rng), 4.0, 96).coeffs,
                free_trajectory(random_field(grid, rng), 4.0, 96).coeffs, grid)

    def test_matches_full_grid_on_band_and_zero_off_it(self, pair):
        a, b, grid = pair
        assert band_grid(a, b, grid) == (36, 36)
        got = mode_product(a, b, grid)
        want = full_grid_product(a, b, grid)
        band = (np.abs(grid.kx_int)[:, None] <= 16) & (np.abs(grid.ky_int)[None, :] <= 16)
        assert np.max(np.abs(got - want)[:, band]) <= 1e-15 * np.max(np.abs(want))
        assert not np.any(got[:, ~band])
        assert np.count_nonzero(np.any(got, axis=0)) == 33 * 33 - 33
        assert hermitian_defect(SpectralField(grid=grid, coeffs=got[40])) == 0.0

    def test_zero_input_gives_zeros(self, pair):
        a, _, grid = pair
        zero = np.zeros_like(a)
        for x, y in ((zero, a), (a, zero), (zero, zero)):
            out = mode_product(x, y, grid)
            assert out.shape == a.shape and not np.any(out)

    def test_wide_band_takes_full_grid_bit_for_bit(self, grid):
        # a gaussian occupies every mode, so no smaller grid holds the band
        a = gaussian_datum(grid, amplitude=1.0).coeffs
        b = random_real_field(grid, 6).coeffs
        assert np.array_equal(mode_product(a, b, grid), full_grid_product(a, b, grid))
        assert np.array_equal(nonlinearity(SpectralField(grid=grid, coeffs=a)).coeffs,
                              full_grid_product(a, a, grid))

    def test_narrow_x_wide_y_takes_full_grid(self, grid):
        # band 2 * 1 + 2 = 4 in x, but the y band does not fit
        u = np.cos(grid.x)[:, None] * np.exp(np.sin(grid.y))[None, :]
        a = forward_transform(u, grid).coeffs
        assert np.array_equal(mode_product(a, a, grid), full_grid_product(a, a, grid))

    def test_nonlinearity_of_band_limited_field(self):
        grid = make_grid(64, 48, np.pi, 2.0)
        f = random_field(grid, np.random.default_rng(8))
        got = nonlinearity(f).coeffs
        want = old_full_fft_nonlin(f.coeffs, grid)
        assert band_grid(f.coeffs, f.coeffs, grid) == (36, 36)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        band = (np.abs(grid.kx_int)[:, None] <= 16) & (np.abs(grid.ky_int)[None, :] <= 16)
        assert not np.any(got[~band])


class TestBandForm:
    """``_band_form``, the one way from bands to a mode form (``kpblab norms``
    on the solver band of states.npz, ``dx_product`` on its band grid),
    gives the columns, weights and values that ``ModeForm.gather`` gives of
    the ``_full`` expansions, bit for bit, and keeps a NaN pair as one
    column."""

    @staticmethod
    def layout(name):
        """(grid, rows, cols) of the 256^2 solver band, or of the band grid
        of a product that fits a 64 x 48 grid, or of one too wide for it,
        which takes every row and the Nyquist row and column too."""
        if name == "solver_256":
            grid = make_grid(256, 256, np.pi, np.pi)
            return (grid, *_band(grid))
        grid = make_grid(64, 48, np.pi, 2.0)
        extent = ((36, 36), (16, 16)) if name == "product_fits" else ((66, 34), (32, 16))
        _, rows, table = _product_layout(grid, *extent)
        return grid, rows, table.shape[-1]

    @staticmethod
    def random_band(rng, grid, rows, cols, n, nan):
        """n random bands with zero and -0.0 entries, purely imaginary
        self-conjugate entries, NaN and nonzero kx < 0 entries in the ky = 0
        column where ``_full`` rebuilds them from kx > 0, and one NaN on a
        mapped entry when ``nan``."""
        shape = (n, rows.size, cols)
        band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        band[:, rng.random(shape[1:]) < 0.3] = 0.0  # zero at every time
        band[:, rng.random(shape[1:]) < 0.1] = complex(-0.0, -0.0)
        band[rng.random(shape) < 0.05] = complex(-0.0, 0.0)
        edges = [0, cols - 1] if cols == grid.ny // 2 + 1 else [0]
        for r in np.flatnonzero(rows % (grid.nx // 2) == 0):  # kx = 0, -nx/2
            band[:, r, edges] = 1j * rng.standard_normal((n, len(edges)))
        negative = np.flatnonzero((rows > grid.nx // 2) & np.isin(-rows % grid.nx, rows))
        band[:, negative, 0] = 7.0 + 3.0j
        band[1, negative[0], 0] = np.nan
        if nan:
            band[2, 1, 1] = complex(np.nan, 1.0)
        return band

    @pytest.mark.parametrize("layout", ["solver_256", "product_fits", "product_wide"])
    @pytest.mark.parametrize("nan", [False, True])
    def test_equals_gather_of_expanded_rows(self, monkeypatch, layout, nan):
        grid, rows, cols = self.layout(layout)
        n = 5
        band = self.random_band(np.random.default_rng([n, cols]), grid, rows, cols, n, nan)
        # gather splits a NaN pair, the band form keeps it: it is compared
        # with gather of the band whose NaN entry is made finite
        finite = band.copy()
        if nan:
            finite[2, 1, 1] = complex(0.5, 1.0)
        full = _full(finite, rows, (grid.nx, grid.ny)).reshape(n, -1)
        want = ModeForm.gather(grid, full)
        assert np.any(want.colw == 2.0)
        assert not np.isnan(want.values).any()
        for one_row in (False, True):  # blocks of one row and one block
            if one_row:  # and live values moved one row at a time
                monkeypatch.setattr(solver_module, "_COMPACT_BLOCK", 1)
            blocks = (band[t:t + 1] for t in range(n)) if one_row else (band,)
            got = _band_form(grid, rows, cols, n, blocks)
            mapped = ~np.isnan(got.values)
            assert np.count_nonzero(~mapped) == nan
            for name in ("cols", "colw", "values"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                if name == "values":
                    a, b = a[mapped], b[mapped]
                assert a.tobytes() == b.tobytes(), name
