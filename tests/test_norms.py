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
from kpblab.norms import (
    bourgain_norm,
    equivalence_gap,
    sobolev_norm,
    sobolev_weight,
    spacetime_norm,
    time_window,
    windowed_time_transform,
)
from kpblab.semigroup import free_table, semigroup_table
from kpblab.solver import Trajectory, _dx_product_full, solve_picard
from kpblab.spectral_core import (
    SpectralField,
    dispersion_values,
    forward_transform,
    l2_norm,
    make_grid,
    project_zero_x_mean,
)
from kpblab.verify import bilinear_ratio, free_trajectory, random_field


def idx(grid, kx, ky):
    return kx % grid.nx, ky % grid.ny


def single_mode(grid, kx, ky, value=1.0):
    coeffs = np.zeros((grid.nx, grid.ny), complex)
    coeffs[idx(grid, kx, ky)] = value
    coeffs[idx(grid, -kx, -ky)] = np.conj(value)
    return SpectralField(grid=grid, coeffs=coeffs)


def free_W_trajectory(phi, T, M):
    times = np.linspace(0.0, T, M + 1)
    coeffs = np.array([semigroup_table(phi.grid, float(t)).factors * phi.coeffs
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
                          coeffs=np.array([free_table(grid, float(t)).factors * phi.coeffs
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
                              coeffs=np.array([free_table(grid, float(t)).factors * phi_low.coeffs
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
                          coeffs=np.array([free_table(grid, float(t)).factors * phi.coeffs
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
    sigma = np.mod(tau - dispersion_values(grid).values[None] + half_band,
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


@pytest.fixture
def fft_columns(monkeypatch):
    """The column count of every np.fft.fft call, recorded while it runs."""
    calls = []
    fft = np.fft.fft

    def counted(a, *args, **kwargs):
        calls.append(a.shape[1])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(norms_module.np.fft, "fft", counted)
    return calls


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
                          coeffs=_dx_product_full(u.coeffs, v.coeffs, u.grid))
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
