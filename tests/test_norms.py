"""Tests for kpblab.norms: anisotropic Sobolev, space-time, and dispersive
modulation norms plus the equivalence-gap diagnostic.

Oracles: single-mode closed forms, time-Parseval identities computed
directly from the window samples, and scaling/monotonicity laws of the
weights.  One windowed-resolution consistency value is checked against a
frozen tolerance.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kpblab.norms as norms_module
from kpblab.modes import ModeForm
from kpblab.norms import (
    WindowedPower,
    bourgain_norm,
    equivalence_gap,
    sobolev_norm,
    sobolev_weight,
    spacetime_norm,
    taper_transform,
    time_window,
)
from kpblab.semigroup import free_table, semigroup_table
from kpblab.solver import Trajectory, band_form, dx_product, solve_picard, solve_states
from kpblab.spectral_core import (
    SpectralField,
    dispersion_values,
    forward_transform,
    l2_norm,
    make_grid,
    project_zero_x_mean,
)
from kpblab.verify import _free_modes, bilinear_ratio, free_trajectory, random_field
from test_solver import band_grid, dx_product_full


def idx(grid, kx, ky):
    return kx % grid.nx, ky % grid.ny


def windowed_time_transform(traj):
    """The dense oracle: (tau, uhat) with tau the FFT bin frequencies and
    uhat = dt * FFT_t(window * states) of shape (n_t, nx, ny), the norms'
    taper transform on every mode, where the norms take only the columns
    ``WindowedPower`` picks.  Normalised so that sum_j |uhat_j|^2 / (n_t dt)
    is the quadrature of the windowed squared time signal."""
    tau, uhat = taper_transform(traj.coeffs.reshape(traj.n_times, -1), traj.dt)
    return tau, uhat.reshape(traj.coeffs.shape)


def single_mode(grid, kx, ky, value=1.0):
    coeffs = np.zeros((grid.nx, grid.ny), complex)
    coeffs[idx(grid, kx, ky)] = value
    coeffs[idx(grid, -kx, -ky)] = np.conj(value)
    return SpectralField(grid=grid, coeffs=coeffs)


def free_W_trajectory(phi, T, M):
    times = np.linspace(0.0, T, M + 1)
    coeffs = np.array([semigroup_table(phi.grid, float(t)) * phi.coeffs
                       for t in times])
    return Trajectory(grid=phi.grid, times=times, coeffs=coeffs)


@pytest.fixture(scope="module")
def grid():
    return make_grid(32, 32, np.pi, np.pi)


@pytest.fixture(scope="module")
def smooth_traj(grid):
    phi = random_field(grid, np.random.default_rng(7), decay=2)
    return free_W_trajectory(phi, 2.0, 32)


class TestSobolevNorm:
    def test_s_zero_equals_l2(self, grid):
        f = project_zero_x_mean(
            forward_transform(np.random.default_rng(0).standard_normal((32, 32)), grid))
        assert sobolev_norm(f, 0.0, 0.0) == pytest.approx(l2_norm(f), rel=1e-14)

    def test_single_mode_closed_form(self, grid):
        f = single_mode(grid, 1, 0, value=3.0)
        base = l2_norm(f)
        # weight (1+xi^2)^{s1}(1+eta^2)^{s2} at (1,0) is 2^{s1}
        assert sobolev_norm(f, 1.0, 0.0) == pytest.approx(np.sqrt(2) * base, rel=1e-14)
        assert sobolev_norm(f, -1.0, 5.0) == pytest.approx(base / np.sqrt(2), rel=1e-14)

    def test_monotone_in_orders(self, grid):
        f = random_field(grid, np.random.default_rng(1), decay=0)
        assert sobolev_norm(f, 0.5, 0.0) >= sobolev_norm(f, 0.0, 0.0)
        assert sobolev_norm(f, 0.0, 0.3) >= sobolev_norm(f, 0.0, 0.0)
        assert sobolev_norm(f, -0.5, 0.0) <= sobolev_norm(f, 0.0, 0.0)

    def test_homogeneous_in_amplitude(self, grid):
        f = random_field(grid, np.random.default_rng(2), decay=1)
        g = SpectralField(grid=grid, coeffs=2.5 * f.coeffs)
        assert sobolev_norm(g, 0.3, -0.2) == pytest.approx(
            2.5 * sobolev_norm(f, 0.3, -0.2), rel=1e-14)

    def test_weight_table_values(self, grid):
        w = sobolev_weight(grid, 1.0, 2.0)
        assert w[idx(grid, 1, 1)] == pytest.approx((1 + 1) ** 1 * (1 + 1) ** 2)
        assert w[idx(grid, 0, 0)] == pytest.approx(1.0)


class TestWindowedTransform:
    def test_too_few_steps_rejected(self, grid):
        times = np.linspace(0.0, 1.0, 9)  # 8 steps < 16
        traj = Trajectory(grid=grid, times=times,
                          coeffs=np.zeros((9, 32, 32), complex))
        with pytest.raises(ValueError):
            spacetime_norm(traj, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            bourgain_norm(traj, 0.5, 0.0, 0.0)

    def test_window_shape(self):
        w = time_window(33)
        assert w.shape == (33,)
        assert np.max(w) == pytest.approx(1.0)
        assert w[0] == pytest.approx(0.0, abs=1e-15)
        # interior plateau untouched by the taper
        assert w[16] == pytest.approx(1.0)

    def test_window_bit_identical_to_scipy_tukey(self):
        tukey = pytest.importorskip("scipy.signal.windows").tukey
        for n in range(2, 2000):
            assert np.array_equal(time_window(n), tukey(n, alpha=0.2)), n

    def test_transform_frequencies_and_scaling(self, smooth_traj):
        tau, uhat = windowed_time_transform(smooth_traj)
        n = smooth_traj.n_times
        assert tau.shape == (n,)
        assert uhat.shape == (n, 32, 32)
        dt = smooth_traj.dt
        assert np.max(np.abs(np.sort(tau) - 2 * np.pi * np.sort(
            np.fft.fftfreq(n, d=dt)))) < 1e-12
        # tau = 0 row is dt * sum_k w_k u_k (plain windowed Riemann sum)
        w = time_window(n)
        direct = dt * np.tensordot(w, smooth_traj.coeffs, axes=(0, 0))
        j0 = int(np.argmin(np.abs(tau)))
        assert np.max(np.abs(uhat[j0] - direct)) < 1e-12 * np.max(np.abs(direct))


class TestSpacetimeNorm:
    def test_zero_trajectory(self, grid):
        times = np.linspace(0.0, 1.0, 17)
        traj = Trajectory(grid=grid, times=times,
                          coeffs=np.zeros((17, 32, 32), complex))
        assert spacetime_norm(traj, 0.5, 0.1, 0.2) == 0.0

    def test_b_zero_time_parseval(self, smooth_traj):
        # for b = 0 the norm equals the windowed discrete L^2_t of the
        # spatial Sobolev norm, by Parseval in time
        s1, s2 = -0.3, 0.2
        w = time_window(smooth_traj.n_times)
        vals = np.array([sobolev_norm(smooth_traj.state(k), s1, s2)
                         for k in range(smooth_traj.n_times)])
        oracle = np.sqrt(smooth_traj.dt * np.sum((w * vals) ** 2))
        assert spacetime_norm(smooth_traj, 0.0, s1, s2) == pytest.approx(
            oracle, rel=1e-12)

    def test_monotone_in_b(self, smooth_traj):
        a = spacetime_norm(smooth_traj, 0.0, 0.0, 0.0)
        b = spacetime_norm(smooth_traj, 0.25, 0.0, 0.0)
        c = spacetime_norm(smooth_traj, 0.5, 0.0, 0.0)
        assert a <= b <= c

    def test_constant_single_mode_window_factor(self, grid):
        # time-independent single mode: norm = spatial norm * window mass
        f = single_mode(grid, 1, 0, value=4.0)
        times = np.linspace(0.0, 1.0, 33)
        traj = Trajectory(grid=grid, times=times,
                          coeffs=np.repeat(f.coeffs[None], 33, axis=0))
        w = time_window(33)
        oracle = sobolev_norm(f, 0.7, -0.1) * np.sqrt(traj.dt * np.sum(w ** 2))
        assert spacetime_norm(traj, 0.0, 0.7, -0.1) == pytest.approx(oracle, rel=1e-12)


class TestBourgainNorm:
    def test_zero_trajectory(self, grid):
        times = np.linspace(0.0, 1.0, 17)
        traj = Trajectory(grid=grid, times=times,
                          coeffs=np.zeros((17, 32, 32), complex))
        assert bourgain_norm(traj, 0.5, 0.0, 0.0) == 0.0

    def test_b_zero_collapses_to_spacetime(self, smooth_traj):
        # with b = 0 the modulation weight is 1: the two norms coincide
        a = bourgain_norm(smooth_traj, 0.0, -0.3, 0.2)
        b = spacetime_norm(smooth_traj, 0.0, -0.3, 0.2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_free_flow_concentrates_near_zero_modulation(self, grid):
        # for u = U(t)phi the modulation sigma = tau - P is concentrated at 0,
        # so raising b changes the norm much less than for a static field
        phi = random_field(grid, np.random.default_rng(9), decay=2)
        times = np.linspace(0.0, 2.0, 33)
        free = Trajectory(grid=grid, times=times,
                          coeffs=np.array([free_table(grid, float(t)) * phi.coeffs
                                           for t in times]))
        static = Trajectory(grid=grid, times=times,
                            coeffs=np.repeat(phi.coeffs[None], 33, axis=0))

        def lift(traj):
            lo = bourgain_norm(traj, 0.0, 0.0, 0.0)
            hi = bourgain_norm(traj, 0.5, 0.0, 0.0)
            return hi / lo

        # remove the xi^4 elliptic contribution from the comparison by using
        # only low-xi modes
        mask = np.abs(grid.kx_int) <= 2
        phi_low = SpectralField(grid=grid, coeffs=np.where(mask[:, None], phi.coeffs, 0))
        free_low = Trajectory(grid=grid, times=times,
                              coeffs=np.array([free_table(grid, float(t)) * phi_low.coeffs
                                               for t in times]))
        static_low = Trajectory(grid=grid, times=times,
                                coeffs=np.repeat(phi_low.coeffs[None], 33, axis=0))
        assert lift(free_low) < lift(static_low)

    def test_windowed_resolution_consistency(self, grid):
        # doubling the time resolution moves the norm by well under 2%
        phi = random_field(grid, np.random.default_rng(7), decay=2)
        vals = [bourgain_norm(free_trajectory(phi, 2.0, M, cutoff=False), 0.5, -0.3, 0.0)
                for M in (32, 64)]
        assert abs(vals[1] - vals[0]) / vals[1] < 0.02

    def test_monotone_in_b(self, smooth_traj):
        a = bourgain_norm(smooth_traj, 0.0, 0.0, 0.0)
        b = bourgain_norm(smooth_traj, 0.5, 0.0, 0.0)
        assert b >= a


class TestEquivalenceGap:
    def test_zero_trajectory_reports_unity(self, grid):
        times = np.linspace(0.0, 1.0, 17)
        traj = Trajectory(grid=grid, times=times,
                          coeffs=np.zeros((17, 32, 32), complex))
        assert equivalence_gap(traj, 0.5, 0.0, 0.0) == 1.0

    def test_gap_within_algebraic_bounds(self, grid):
        # (1 + sigma^2 + xi^4)^b is pointwise comparable to
        # (1 + sigma^2)^b + (1 + xi^2)^{2b}: the ratio lies in [1/3, 3]
        rng = np.random.default_rng(3)
        for k in range(4):
            phi = random_field(grid, rng, decay=k % 3)
            traj = free_W_trajectory(phi, 2.0, 32)
            for b in (0.0, 0.25, 0.5):
                gap = equivalence_gap(traj, b, -0.2, 0.1)
                assert 1.0 / 3.0 <= gap <= 3.0

    def test_free_U_flow_tracks_shifted_sobolev(self, grid):
        # on the free flow the b = 1/2 norm matches H^{s1+2b} up to a
        # bounded factor (the xi^4 elliptic term dominates the weight)
        phi = random_field(grid, np.random.default_rng(5), decay=2)
        times = np.linspace(0.0, 2.0, 33)
        traj = Trajectory(grid=grid, times=times,
                          coeffs=np.array([free_table(grid, float(t)) * phi.coeffs
                                           for t in times]))
        bn = bourgain_norm(traj, 0.5, -0.3, 0.0)
        sn = spacetime_norm(traj, 0.0, -0.3 + 1.0, 0.0)
        assert 0.5 <= bn / sn <= 2.0


def dense_norms(traj, b, s1, s2):
    """(spacetime, bourgain, equivalence_gap) written out over every mode of
    the (n_t, nx, ny) grid, identically-zero modes included."""
    grid, n_t, dt = traj.grid, traj.n_times, traj.dt
    uhat = dt * np.fft.fft(time_window(n_t)[:, None, None] * traj.coeffs, axis=0)
    tau = (2.0 * np.pi * np.fft.fftfreq(n_t, d=dt))[:, None, None]
    half_band = np.pi / dt
    sigma = np.mod(tau - dispersion_values(grid)[None] + half_band,
                   2.0 * half_band) - half_band
    xi2 = (grid.xi ** 2)[None, :, None]
    ws = sobolev_weight(grid, s1, s2)[None]
    mu = grid.cell_measure / (n_t * dt)

    def total(weight):
        return np.sum(weight * ws * np.abs(uhat) ** 2) * mu

    full = total((1.0 + sigma ** 2 + xi2 ** 2) ** b)
    numer = np.sqrt(full)
    denom = np.sqrt(total((1.0 + sigma ** 2) ** b)) + np.sqrt(total((1.0 + xi2) ** (2 * b)))
    gap = 1.0 if numer == 0.0 and denom == 0.0 else numer / denom
    return np.sqrt(total((1.0 + tau ** 2) ** b)), numer, gap


def assert_matches_dense(traj, b, s1, s2):
    got = (spacetime_norm(traj, b, s1, s2), bourgain_norm(traj, b, s1, s2),
           equivalence_gap(traj, b, s1, s2))
    for g, want in zip(got, dense_norms(traj, b, s1, s2)):
        assert g == pytest.approx(want, rel=1e-13, abs=0.0)


class TestOccupiedModes:
    """The time-dependent norms transform only the modes that are not
    identically zero in time; a skipped mode contributes 0 to every weighted
    sum, so the result must equal the sum over the whole grid."""

    PARAMS = [(0.5, -0.3, 0.2), (-0.4, 0.1, 0.0), (0.0, 0.0, 0.3)]

    @staticmethod
    def full_support(grid, seed=0, n_t=33):
        rng = np.random.default_rng(seed)
        shape = (n_t, grid.nx, grid.ny)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return Trajectory(grid=grid, times=np.linspace(0.0, 2.0, n_t), coeffs=coeffs)

    @staticmethod
    def with_coeffs(traj, coeffs):
        return Trajectory(grid=traj.grid, times=traj.times, coeffs=coeffs)

    def test_band_limited(self, smooth_traj):
        occupied = np.any(smooth_traj.coeffs, axis=0)
        assert 0 < occupied.sum() < occupied.size
        for b, s1, s2 in self.PARAMS:
            assert_matches_dense(smooth_traj, b, s1, s2)

    def test_full_support(self, grid):
        traj = self.full_support(grid)
        assert np.all(traj.coeffs)
        for b, s1, s2 in self.PARAMS:
            assert_matches_dense(traj, b, s1, s2)

    def test_mode_occupied_at_one_time(self, smooth_traj):
        coeffs = smooth_traj.coeffs.copy()
        mode = idx(smooth_traj.grid, 13, -11)  # outside the random band
        assert not np.any(coeffs[(slice(None),) + mode])
        coeffs[(5,) + mode] = 40.0 - 30.0j
        traj = self.with_coeffs(smooth_traj, coeffs)
        for b, s1, s2 in self.PARAMS:
            assert_matches_dense(traj, b, s1, s2)
            assert bourgain_norm(traj, b, s1, s2) != bourgain_norm(smooth_traj, b, s1, s2)

    def test_all_zero(self, smooth_traj):
        traj = self.with_coeffs(smooth_traj, np.zeros_like(smooth_traj.coeffs))
        assert spacetime_norm(traj, 0.5, -0.3, 0.2) == 0.0
        assert bourgain_norm(traj, 0.5, -0.3, 0.2) == 0.0
        assert equivalence_gap(traj, 0.5, -0.3, 0.2) == 1.0
        assert_matches_dense(traj, 0.5, -0.3, 0.2)

    def test_nan_mode_propagates(self, smooth_traj):
        coeffs = np.zeros_like(smooth_traj.coeffs)
        coeffs[(3,) + idx(smooth_traj.grid, 2, 1)] = np.nan
        traj = self.with_coeffs(smooth_traj, coeffs)
        assert np.isnan(spacetime_norm(traj, 0.5, 0.0, 0.0))
        assert np.isnan(bourgain_norm(traj, 0.5, 0.0, 0.0))
        assert np.isnan(equivalence_gap(traj, 0.5, 0.0, 0.0))

    def test_transform_keeps_full_shape(self, smooth_traj):
        tau, uhat = windowed_time_transform(smooth_traj)
        w = time_window(smooth_traj.n_times)[:, None, None]
        dense = smooth_traj.dt * np.fft.fft(w * smooth_traj.coeffs, axis=0)
        assert uhat.shape == smooth_traj.coeffs.shape
        assert np.array_equal(uhat == 0, dense == 0)
        assert np.max(np.abs(uhat - dense)) <= 1e-13 * np.max(np.abs(dense))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0),
           b=st.sampled_from([-0.5, -0.1, 0.0, 0.25, 0.5]),
           s1=st.floats(-0.5, 0.5), s2=st.floats(0.0, 0.5))
    def test_random_supports(self, seed, density, b, s1, s2):
        # random per-(t, mode) support: modes occupied at all, some or no times
        small = make_grid(8, 12, np.pi, np.pi)
        traj = self.full_support(small, seed, n_t=17)
        keep = np.random.default_rng(seed).random(traj.coeffs.shape) < density
        assert_matches_dense(self.with_coeffs(traj, np.where(keep, traj.coeffs, 0.0)),
                             b, s1, s2)



def mirrored(coeffs):
    """R[:, k] = coeffs[:, -k] for a batch of spectra (n_t, nx, ny)."""
    return np.roll(coeffs[:, ::-1, ::-1], shift=(1, 1), axis=(1, 2))


def exactly_hermitian(coeffs):
    """(c(k) + conj(c(-k))) / 2, whose mirror equals its conjugate bit for
    bit because floating-point addition commutes."""
    return 0.5 * (coeffs + np.conj(mirrored(coeffs)))


def half_columns(traj):
    """Column count of the Hermitian half: one per occupied conjugate pair,
    plus each occupied mode that is self-conjugate or on the kx = -nx/2 row."""
    grid = traj.grid
    occupied = np.any(traj.coeffs, axis=0)
    row = np.arange(grid.nx)[:, None]
    col = np.arange(grid.ny)[None, :]
    single = (row == grid.nx // 2) | ((row == 0) & (col % (grid.ny // 2) == 0))
    n_single = int(np.sum(occupied & single))
    return (int(occupied.sum()) - n_single) // 2 + n_single


class TestHermitianHalf:
    """An exact conjugate pair, whose mirror equals the conjugate of its
    first mode bit for bit at every time, is transformed on one column with
    Parseval weight 2; every other occupied mode on its own column.  The
    kx = -nx/2 row is never paired: the mirror of (-nx/2, ky) is
    (-nx/2, -ky), with the same xi, so P is even there and sigma = tau - P
    does not mirror."""

    @staticmethod
    def free_pair(grid, seed):
        rng = np.random.default_rng(seed)
        return (free_trajectory(random_field(grid, rng), 4.0, 48),
                free_trajectory(random_field(grid, rng), 4.0, 48))

    @staticmethod
    def occupied_pairs(coeffs):
        """(k, -k) index pairs of the occupied conjugate pairs of a batch of
        spectra (n_t, nx, ny), off the kx = -nx/2 row."""
        _, nx, ny = coeffs.shape
        occupied = np.any(coeffs, axis=0)
        return [((a, c), (-a % nx, -c % ny))
                for a in range(nx) if a != nx // 2 for c in range(ny)
                if occupied[a, c] and a * ny + c < (-a % nx) * ny + (-c % ny)]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.sampled_from([8, 10, 12]),
           ny=st.sampled_from([8, 10, 12]), n_t=st.sampled_from([17, 18, 25, 32]),
           density=st.floats(0.0, 1.0), b=st.sampled_from([0.5, 0.25, -0.45]),
           s1=st.floats(-0.5, 0.5), s2=st.floats(0.0, 0.5),
           breaks=st.lists(st.sampled_from(["ulp", "nan", "zero"]), max_size=3))
    def test_matches_dense_oracle(self, fft_columns, seed, nx, ny, n_t, density,
                                  b, s1, s2, breaks):
        grid = make_grid(nx, ny, np.pi, np.pi)
        rng = np.random.default_rng(seed)
        shape = (n_t, nx, ny)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        keep = rng.random((nx, ny)) < density
        keep[nx // 2, :] = True  # the kx = -nx/2 row
        keep[:, ny // 2] = True  # the ky Nyquist column
        traj = Trajectory(grid=grid, times=np.linspace(0.0, 2.0, n_t),
                          coeffs=exactly_hermitian(np.where(keep, coeffs, 0.0)))
        fft_columns.clear()
        spacetime_norm(traj, b, s1, s2)
        assert fft_columns == [half_columns(traj)]
        assert_matches_dense(traj, b, s1, s2)

        # break some pairs: each one-ulp change or NaN adds its other mode's
        # column; a zeroed mode leaves the pair's one occupied column
        pairs = self.occupied_pairs(traj.coeffs)
        broken = traj.coeffs.copy()
        chosen = rng.permutation(len(pairs))[:len(breaks)]
        for kind, i in zip(breaks, chosen):
            mode = pairs[i][rng.integers(2)]
            at = (rng.integers(n_t),) + mode
            if kind == "ulp":
                broken[at] = np.nextafter(broken[at].real, np.inf) + 1j * broken[at].imag
            elif kind == "nan":
                broken[at] = np.nan
            else:
                broken[(slice(None),) + mode] = 0.0
        added = sum(kind != "zero" for kind, _ in zip(breaks, chosen))
        off = Trajectory(grid=grid, times=traj.times, coeffs=broken)
        fft_columns.clear()
        got = [norm(off, b, s1, s2)
               for norm in (spacetime_norm, bourgain_norm, equivalence_gap)]
        assert fft_columns == [half_columns(traj) + added] * 3
        if np.isnan(broken).any():
            assert all(np.isnan(got)) and all(np.isnan(dense_norms(off, b, s1, s2)))
        else:
            assert_matches_dense(off, b, s1, s2)

    def test_solver_free_and_product_take_the_half(self, fft_columns):
        grid = make_grid(32, 32, np.pi, np.pi)
        u0 = 0.05 * np.exp(-(grid.x[:, None] ** 2 + grid.y[None, :] ** 2))
        picard, _ = solve_picard(project_zero_x_mean(forward_transform(u0, grid)),
                                 T=0.1, M=32)
        for traj in (picard, self.free_pair(grid, 11)[0]):
            fft_columns.clear()
            bourgain_norm(traj, 0.5, -0.3, 0.2)
            assert fft_columns == [half_columns(traj)]
            assert 2 * fft_columns[0] <= np.count_nonzero(np.any(traj.coeffs, axis=0)) + 2
        # the bilinear ratio transforms the product, then u and v
        u, v = self.free_pair(make_grid(64, 64, np.pi, np.pi), 12)
        prod = Trajectory(grid=u.grid, times=u.times,
                          coeffs=dx_product_full(u.coeffs, v.coeffs, u.grid))
        fft_columns.clear()
        bilinear_ratio(u, v, -0.2, 0.0, 0.0375, 0.00375)
        assert fft_columns == [half_columns(prod), half_columns(u), half_columns(v)]
        assert fft_columns == [528, 136, 136]

    @pytest.mark.parametrize("kind", ["ulp", "nan"])
    def test_inexact_pair_adds_one_column(self, fft_columns, kind):
        # only the broken pair leaves the half: its mirror gets its own column
        traj = self.free_pair(make_grid(32, 32, np.pi, np.pi), 13)[0]
        coeffs = traj.coeffs.copy()
        mode = (20,) + idx(traj.grid, 3, -2)
        if kind == "ulp":
            coeffs[mode] = np.nextafter(coeffs[mode].real, np.inf) + 1j * coeffs[mode].imag
        else:
            coeffs[mode] = np.nan
        off = Trajectory(grid=traj.grid, times=traj.times, coeffs=coeffs)
        for norm in (spacetime_norm, bourgain_norm, equivalence_gap):
            fft_columns.clear()
            value = norm(off, 0.5, -0.3, 0.2)
            assert fft_columns == [half_columns(traj) + 1]
            assert np.isnan(value) == (kind == "nan")
        if kind == "ulp":
            assert_matches_dense(off, 0.5, -0.3, 0.2)
        else:
            assert all(np.isnan(dense_norms(off, 0.5, -0.3, 0.2)))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestModeForm:
    """The free evolutions and the product on their mode forms give what the
    expanded (n_t, nx, ny) trajectories give, bit for bit: the same
    columns, weights and values, and so the same windowed power."""

    @staticmethod
    def datum(grid, rng, density, bands, edges, breaks):
        """An exactly Hermitian datum in |kx| <= bands[0], |ky| <= bands[1]
        (the kx = -nx/2 row and the Nyquist column too when ``edges``),
        with one mode of some occupied pairs changed by an ulp, set to NaN
        or zeroed."""
        nx, ny = grid.nx, grid.ny
        coeffs = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
        keep = rng.random((nx, ny)) < density
        keep &= (np.abs(grid.kx_int)[:, None] <= bands[0]) & (np.abs(grid.ky_int) <= bands[1])
        if edges:
            keep[nx // 2, :] = True
            keep[:, ny // 2] = True
        coeffs = exactly_hermitian(np.where(keep, coeffs, 0.0)[None])[0]
        pairs = TestHermitianHalf.occupied_pairs(coeffs[None])
        for kind, i in zip(breaks, rng.permutation(len(pairs))):
            mode = pairs[i][rng.integers(2)]
            if kind == "ulp":
                coeffs[mode] = np.nextafter(coeffs[mode].real, np.inf) + 1j * coeffs[mode].imag
            else:
                coeffs[mode] = np.nan if kind == "nan" else 0.0
        return SpectralField(grid=grid, coeffs=coeffs)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.sampled_from([8, 10, 12, 14, 16]),
           ny=st.sampled_from([8, 10, 12, 14, 16]), M=st.sampled_from([16, 20, 32]),
           density=st.floats(0.0, 1.0), cutoff=st.booleans(),
           breaks=st.lists(st.sampled_from(["ulp", "nan", "zero"]), max_size=3))
    def test_free_power_equals_full_path(self, seed, nx, ny, M, density, cutoff, breaks):
        grid = make_grid(nx, ny, np.pi, np.pi)
        phi = self.datum(grid, np.random.default_rng(seed), density, (nx, ny), True, breaks)
        times, modes = _free_modes(phi, 4.0, M, cutoff)
        got = WindowedPower.of_modes(modes, float(times[1] - times[0]))
        want = WindowedPower.of(free_trajectory(phi, 4.0, M, cutoff))
        for name in ("tau", "power", "cols", "colw"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert got.n_times == want.n_times and got.dt == want.dt

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.sampled_from([8, 10, 12, 14, 16]),
           ny=st.sampled_from([8, 10, 12, 14, 16]), density=st.floats(0.0, 1.0),
           wide=st.booleans(), same=st.booleans(), fraction=st.sampled_from([2 / 3, 1.0]),
           breaks=st.lists(st.sampled_from(["ulp", "nan", "zero"]), max_size=2))
    def test_product_equals_full_path(self, seed, nx, ny, density, wide, same, fraction,
                                      breaks):
        # without dealiasing, the self-conjugate modes on the kx = -nx/2 row
        # of a wide product are occupied and keep only their real part
        grid = make_grid(nx, ny, np.pi, np.pi, dealias_fraction=fraction)
        rng = np.random.default_rng(seed)
        # the two bands sum to at most (n - 2) / 2 on a band grid that fits
        bands = [(nx // 2, ny // 2)] * 2 if wide else [
            (int(rng.integers(0, nx // 4)), int(rng.integers(0, ny // 4))),
            (nx // 2 - 1 - nx // 4, ny // 2 - 1 - ny // 4)]
        phis = [self.datum(grid, rng, density, band, wide, breaks) for band in bands]
        forms, full = [], []
        for phi in phis[:1] if same else phis:
            forms.append(_free_modes(phi, 4.0, 16)[1])
            full.append(free_trajectory(phi, 4.0, 16).coeffs)
        u, v = forms * 2 if same else forms
        a, b = full * 2 if same else full
        extent = band_grid(a, b, grid)
        if extent is not None:
            assert (extent[0] > nx or extent[1] > ny) == wide
        got = dx_product(u, v)
        product = dx_product_full(a, b, grid).reshape(17, -1)
        if np.isnan(product).any():
            # gather splits a NaN pair, the product's band form keeps it
            assert np.isnan(got.values).all()
            assert np.array_equal(np.isnan(got.expand()), np.isnan(product))
        else:
            want = ModeForm.gather(grid, product)
            for x, y in zip((got.cols, got.colw, got.values),
                            (want.cols, want.colw, want.values)):
                assert same_bits(x, y)


    def test_transform_leaves_the_form_unchanged(self, grid):
        # a form may be transformed, expanded and multiplied in any order
        def form(seed):
            return _free_modes(random_field(grid, np.random.default_rng(seed)), 4.0, 48)

        times, u = form(0)
        v = form(1)[1]
        dt = float(times[1] - times[0])
        before = u.values.tobytes()
        first, second = (WindowedPower.of_modes(u, dt) for _ in range(2))
        assert u.values.tobytes() == before
        assert same_bits(first.power, second.power)
        fresh = form(0)[1]
        assert same_bits(u.expand(), fresh.expand())
        for got, want in ((dx_product(u, v), dx_product(fresh, v)),
                          (dx_product(v, u), dx_product(v, fresh)),
                          (dx_product(u, u), dx_product(fresh, fresh))):
            for name in ("cols", "colw", "values"):
                assert same_bits(getattr(got, name), getattr(want, name)), name

    def test_product_of_forms_with_different_rows_rejected(self, grid):
        # a 1-row form would broadcast against the 49 rows of a free evolution
        u = _free_modes(random_field(grid, np.random.default_rng(0)), 4.0, 48)[1]
        v = ModeForm(grid, u.cols, u.colw, u.values[:1].copy())
        with pytest.raises(ValueError, match="as many time rows, got 49 and 1"):
            dx_product(u, v)

    def test_product_of_forms_on_two_grids_rejected(self, grid):
        rng = np.random.default_rng(0)
        u = _free_modes(random_field(grid, rng), 4.0, 48)[1]
        v = _free_modes(random_field(make_grid(32, 32, 2.0, np.pi), rng), 4.0, 48)[1]
        with pytest.raises(ValueError, match="mode forms on one grid"):
            dx_product(u, v)

    def test_gather_counts_ragged_real_rows_as_complex(self, grid):
        # real rows gather as complex128 values equal to them
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((9, grid.nx, grid.ny))
        coeffs[:, rng.random((grid.nx, grid.ny)) < 0.5] = 0.0
        rows = exactly_hermitian(coeffs).reshape(9, -1)
        form = ModeForm.gather(grid, rows)
        assert rows.dtype == np.float64 and form.values.dtype == np.complex128
        assert len(form.values) == 9 and np.any(form.colw == 2.0)
        assert np.array_equal(form.values, rows[:, form.cols])


class TestRaderTransform:
    """A prime number of samples above 11 is transformed by Rader's
    algorithm, on two transforms of one sample fewer (``_rader_plan``);
    every other length by one transform of its own length."""

    @staticmethod
    def samples(n_t, cols, seed=0):
        rng = np.random.default_rng([n_t, cols, seed])
        return rng.standard_normal((n_t, cols)) + 1j * rng.standard_normal((n_t, cols))

    @pytest.mark.parametrize("n_t", [17, 97, 257])
    @pytest.mark.parametrize("cols", [1, 136, 528])
    def test_matches_direct_transform(self, n_t, cols):
        # up to 9.0e-16 of the max was measured over 20 seeds per case
        x, dt = self.samples(n_t, cols), 4.0 / (n_t - 1)
        tau, got = taper_transform(x, dt)
        want = np.fft.fft(time_window(n_t)[:, None] * x, axis=0) * dt
        assert norms_module._rader_plan(n_t) is not None
        assert same_bits(tau, 2.0 * np.pi * np.fft.fftfreq(n_t, d=dt))
        assert np.max(np.abs(got - want)) <= 1.5e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_t", [17, 97, 257])
    def test_block_keeps_its_bits(self, n_t):
        x, dt = self.samples(n_t, 528), 4.0 / (n_t - 1)
        whole = taper_transform(x, dt)[1]
        for block in (slice(0, 1), slice(100, 236), slice(400, 528)):
            assert same_bits(taper_transform(x[:, block], dt)[1], whole[:, block])

    def test_only_primes_above_11(self):
        primes = [n for n in range(2, 61) if norms_module._rader_plan(n) is not None]
        assert primes == [13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    @pytest.mark.parametrize("n_t", [11, 18, 33, 49, 129, 513])
    def test_other_lengths_take_one_transform(self, n_t):
        x, dt = self.samples(n_t, 40), 4.0 / (n_t - 1)
        want = np.multiply(x, time_window(n_t)[:, None], dtype=complex)
        np.fft.fft(want, axis=0, out=want)
        want *= dt
        assert same_bits(taper_transform(x, dt)[1], want)


class TestColumnBlocks:
    """``WindowedPower.of_modes`` tapers and transforms blocks of about
    ``_TRANSFORM_BLOCK`` bytes of columns and copies each squared modulus
    into ``power``.  Every column gets its own 1-D transform, so the blocks
    change no bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_match_one_block(self, monkeypatch, fft_columns, seed):
        grid = make_grid(32, 32, np.pi, np.pi)
        times, form = _free_modes(random_field(grid, np.random.default_rng(seed)), 4.0, 48)
        dt = float(times[1] - times[0])
        n_t, k = form.values.shape
        fft_columns.clear()
        whole = WindowedPower.of_modes(form, dt)
        assert fft_columns == [k]
        # at least three blocks, the last one shorter
        step = next(s for s in range(k // 3, 0, -1) if k % s)
        monkeypatch.setattr(norms_module, "_TRANSFORM_BLOCK", 16 * n_t * step)
        fft_columns.clear()
        got = WindowedPower.of_modes(form, dt)
        assert len(fft_columns) >= 3 and sum(fft_columns) == k
        assert fft_columns[:-1] == [step] * (len(fft_columns) - 1)
        assert 0 < fft_columns[-1] < step
        for name in ("tau", "power", "cols", "colw"):
            assert same_bits(getattr(got, name), getattr(whole, name)), name
        for norm in ("spacetime", "bourgain", "gap"):
            want = getattr(whole, norm)(0.5, -0.3, 0.2)
            assert getattr(got, norm)(0.5, -0.3, 0.2).hex() == want.hex()

    def test_zero_columns_keep_tau(self, grid):
        n_t, dt = 17, 0.0625
        form = ModeForm(grid, np.zeros(0, dtype=np.intp), np.zeros(0),
                        np.zeros((n_t, 0), dtype=complex))
        power = WindowedPower.of_modes(form, dt)
        assert same_bits(power.tau, taper_transform(np.zeros((n_t, 1)), dt)[0])
        assert power.power.shape == (n_t, 0)
        assert power.spacetime(0.5, 0.1, 0.2) == 0.0

    def test_solve_norms_form_power_keeps_its_bits(self):
        # the form of the benchmark's 256^2 Picard states (M = 32), whose
        # blocks of 1985 columns take |uhat|^2 through a contiguous scratch:
        # the power of one block over all columns, bit for bit
        grid = make_grid(256, 256, np.pi, np.pi)
        u0 = 0.05 * np.exp(-(grid.x[:, None] ** 2 + grid.y[None, :] ** 2) / (2 * 0.7 ** 2))
        times, _, states = solve_states(forward_transform(u0, grid), 0.1, 32)
        band = np.array([state for _, state, _ in states])
        form = band_form(grid, times.size, (band,))
        assert form.values.shape == (33, 14535)
        dt = float(times[1])
        want = np.abs(taper_transform(form.values, dt)[1])
        want **= 2
        got = WindowedPower.of_modes(form, dt).power
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_holds_power_and_one_block(self, alloc_peak):
        # The whole complex transform would add twice the power (4.03 MiB
        # above it measured); the blocks add one block of tapered samples
        # and the transform's buffers, or that block and a quarter-block
        # scratch for the squared modulus, 1.26 MiB measured.  The slack is
        # three 128 KiB buffers.
        grid = make_grid(128, 128, np.pi, np.pi)
        rng = np.random.default_rng(0)
        n_t, k = 33, 8000  # 5 blocks of at most 1985 columns
        values = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))
        form = ModeForm(grid, np.arange(k), np.ones(k), values)
        power, peak = alloc_peak(WindowedPower.of_modes, form, 0.01)
        assert peak <= power.power.nbytes + 2 ** 20 + 3 * 2 ** 17
