"""Tests for kpblab.verify: cutoff, random fields, and the three randomized
estimate suites (free evolution, smoothing, bilinear).

Oracles: closed forms for the cutoff, refinement-embedding identities for the
band-limited random fields, direct norm evaluations for single-mode ratios,
and stability of suite statistics under seed/refinement changes.
"""

import math
import threading

import numpy as np
import pytest

from kpblab import norms, verify
from kpblab.norms import bourgain_norm, sobolev_norm
from kpblab.solver import dx_product
from kpblab.spectral_core import (
    SpectralField,
    hermitian_defect,
    inverse_transform,
    is_kp_admissible,
    make_grid,
)
from kpblab.verify import (
    RatioReport,
    _y_norm,
    bilinear_ratio,
    free_estimate_ratio,
    free_trajectory,
    psi_cutoff,
    random_field,
    run_suite,
    smoothing_ratio,
)


def idx(grid, kx, ky):
    return kx % grid.nx, ky % grid.ny


@pytest.fixture(scope="module")
def grid():
    return make_grid(32, 32, np.pi, np.pi)


class TestPsiCutoff:
    def test_plateau_and_support(self):
        assert psi_cutoff(0.0) == 1.0
        assert psi_cutoff(1.0) == 1.0
        assert psi_cutoff(-1.0) == 1.0
        assert psi_cutoff(2.0) == pytest.approx(0.0, abs=1e-15)
        assert psi_cutoff(5.0) == 0.0
        assert psi_cutoff(-3.0) == 0.0

    def test_even_and_monotone_on_taper(self):
        ts = np.linspace(1.0, 2.0, 21)
        vals = psi_cutoff(ts)
        assert np.all(np.diff(vals) <= 0)
        assert np.max(np.abs(psi_cutoff(-ts) - vals)) < 1e-15

    def test_c1_joints(self):
        # derivative ~ 0 at |t| = 1 and 2 (cos^2 taper)
        h = 1e-6
        for t0 in (1.0, 2.0):
            d = (psi_cutoff(t0 + h) - psi_cutoff(t0 - h)) / (2 * h)
            assert abs(d) < 1e-4

    def test_taper_value(self):
        # midpoint of the taper: cos^2(pi/4) = 1/2
        assert psi_cutoff(1.5) == pytest.approx(0.5, rel=1e-12)


class TestRandomField:
    def test_real_admissible_band_limited(self, grid):
        f = random_field(grid, np.random.default_rng(0), decay=1)
        assert hermitian_defect(f) < 1e-13 * np.max(np.abs(f.coeffs))
        assert is_kp_admissible(f)
        live = np.abs(f.coeffs) > 0
        assert np.all(np.abs(grid.kx_int[np.nonzero(live)[0]]) <= 8)
        assert np.all(np.abs(grid.ky_int[np.nonzero(live)[1]]) <= 8)

    def test_same_seed_same_field(self, grid):
        a = random_field(grid, np.random.default_rng(5), decay=2)
        b = random_field(grid, np.random.default_rng(5), decay=2)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_refinement_preserves_physical_field(self):
        # the hat values are fixed on the mode box, so refining the grid
        # reproduces the same function on the shared sample points
        g32 = make_grid(32, 32, np.pi, np.pi)
        g64 = make_grid(64, 64, np.pi, np.pi)
        u32 = inverse_transform(random_field(g32, np.random.default_rng(3), decay=1))
        u64 = inverse_transform(random_field(g64, np.random.default_rng(3), decay=1))
        assert np.max(np.abs(u64[::2, ::2] - u32)) < 1e-12 * np.max(np.abs(u32))

    def test_decay_orders_spectrum(self, grid):
        rng0 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        flat = random_field(grid, rng0, decay=0)
        steep = random_field(grid, rng2, decay=2)
        # same draw, different weighting: high mode suppressed relative to low
        j_hi = idx(grid, 8, 8)
        j_lo = idx(grid, 1, 0)
        ratio_flat = np.abs(flat.coeffs[j_hi]) / np.abs(flat.coeffs[j_lo])
        ratio_steep = np.abs(steep.coeffs[j_hi]) / np.abs(steep.coeffs[j_lo])
        assert ratio_steep < ratio_flat


class TestFreeTrajectory:
    def test_cutoff_kills_endpoints(self, grid):
        phi = random_field(grid, np.random.default_rng(1), decay=1)
        traj = free_trajectory(phi, T=4.0, M=32, cutoff=True)
        assert np.max(np.abs(traj.coeffs[0])) < 1e-15
        assert np.max(np.abs(traj.coeffs[-1])) < 1e-15
        # centre of the window: cutoff is 1 there, plain W(0) = identity
        mid = 16
        assert np.max(np.abs(traj.coeffs[mid] - phi.coeffs)) < 1e-13

    def test_cutoff_full_support_matches_semigroup(self, grid):
        # every mode occupied: the vectorised build equals the per-time
        # product psi(t - T/2) * W(t - T/2) * phi element for element
        from kpblab.semigroup import semigroup_table
        rng = np.random.default_rng(11)
        phi = SpectralField(grid=grid, coeffs=rng.standard_normal((32, 32))
                            + 1j * rng.standard_normal((32, 32)))
        traj = free_trajectory(phi, T=4.0, M=40, cutoff=True)
        for k, t in enumerate(traj.times):
            shifted = float(t) - 2.0
            expect = psi_cutoff(shifted) * semigroup_table(grid, shifted) * phi.coeffs
            np.testing.assert_array_equal(traj.coeffs[k], expect)

    def test_zero_modes_stay_zero(self, grid):
        phi = random_field(grid, np.random.default_rng(3), decay=0)
        traj = free_trajectory(phi, T=4.0, M=32, cutoff=False)
        assert np.array_equal(np.any(traj.coeffs, axis=0), phi.coeffs != 0)

    def test_no_cutoff_matches_semigroup(self, grid):
        from kpblab.semigroup import semigroup_table
        phi = random_field(grid, np.random.default_rng(2), decay=1)
        traj = free_trajectory(phi, T=2.0, M=16, cutoff=False)
        for k, t in enumerate(traj.times):
            expect = semigroup_table(grid, float(t) - 1.0) * phi.coeffs
            assert np.max(np.abs(traj.coeffs[k] - expect)) < 1e-13


class TestFreeEstimate:
    def test_zero_datum_gives_zero(self, grid):
        phi = SpectralField(grid=grid, coeffs=np.zeros((32, 32), complex))
        assert free_estimate_ratio(phi, 0.5, 0.0, 0.0) == 0.0

    def test_b_out_of_range_rejected(self, grid):
        phi = random_field(grid, np.random.default_rng(4), decay=1)
        for b in (-0.1, 0.6):
            with pytest.raises(ValueError):
                free_estimate_ratio(phi, b, 0.0, 0.0)

    def test_single_mode_ratio_direct_oracle(self, grid):
        # compute both sides of the ratio independently for one mode
        coeffs = np.zeros((32, 32), complex)
        coeffs[idx(grid, 2, 1)] = 5.0
        coeffs[idx(grid, -2, -1)] = 5.0
        phi = SpectralField(grid=grid, coeffs=coeffs)
        b, s1, s2 = 0.25, -0.2, 0.1
        got = free_estimate_ratio(phi, b, s1, s2, M=48)
        traj = free_trajectory(phi, T=4.0, M=48)
        oracle = bourgain_norm(traj, b, s1, s2) / sobolev_norm(phi, s1 + 2 * b - 1, s2)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_ratio_bounded_over_parameter_sweep(self, grid):
        phi = random_field(grid, np.random.default_rng(6), decay=1)
        for b in (0.0, 0.25, 0.5):
            r = free_estimate_ratio(phi, b, -0.2, 0.0)
            assert np.isfinite(r)
            assert r < 10.0


class TestSmoothingRatio:
    @staticmethod
    def signal(seed, n=257):
        rng = np.random.default_rng(seed)
        m = np.arange(-8, 9)
        amp = (rng.standard_normal(17) + 1j * rng.standard_normal(17)) / (1 + m ** 2)
        t = np.linspace(-2.0, 2.0, n)
        return (amp[None, :] * np.exp(0.5j * np.pi * m[None, :] * t[:, None])).sum(axis=1)

    def test_zero_signal(self):
        assert smoothing_ratio(np.zeros(257, complex), 1.0, 0.25) == 0.0

    def test_bad_arguments_rejected(self):
        f = self.signal(0)
        with pytest.raises(ValueError):
            smoothing_ratio(f, 1.0, 0.0)          # delta <= 0
        with pytest.raises(ValueError):
            smoothing_ratio(f, 1.0, 0.6)          # delta > 1/2
        with pytest.raises(ValueError):
            smoothing_ratio(f[:256], 1.0, 0.25)   # even length
        with pytest.raises(ValueError):
            smoothing_ratio(f[:15], 1.0, 0.25)    # too short

    def test_frozen_regression_value(self):
        assert smoothing_ratio(self.signal(3), 1.0, 0.5) == pytest.approx(
            0.8513756830561415, rel=1e-9)

    def test_bounded_over_sweep(self):
        f = self.signal(1)
        for xi in (0.0, 1.0, 4.0, 16.0):
            for delta in (0.1, 0.25, 0.5):
                r = smoothing_ratio(f, xi, delta)
                assert np.isfinite(r)
                assert r < 10.0

    def test_linear_in_amplitude(self):
        f = self.signal(2)
        a = smoothing_ratio(f, 4.0, 0.25)
        b = smoothing_ratio(3.0 * f, 4.0, 0.25)
        assert b == pytest.approx(a, rel=1e-12)

    @staticmethod
    def reference_ratio(f, xi, delta):
        # K_xi by a separate trapezoid sum over [0, t_k] (or [t_k, 0]) per node
        n = f.size
        t = np.linspace(-2.0, 2.0, n)
        dt = t[1] - t[0]
        mid = n // 2
        K = np.zeros(n, dtype=complex)
        for k in range(n):
            lo, hi = min(k, mid), max(k, mid)
            if lo == hi:
                continue
            seg = np.exp(-abs(t[k] - t[lo:hi + 1]) * xi * xi) * f[lo:hi + 1]
            trap = dt * (np.sum(seg) - 0.5 * (seg[0] + seg[-1]))
            K[k] = trap if k > mid else -trap
        K *= psi_cutoff(t)
        left = _y_norm(K, dt, xi, 0.5)
        right = (1.0 + xi * xi) ** (-delta) * _y_norm(f, dt, xi, -0.5 + delta)
        return left / right

    @pytest.mark.parametrize("xi", [0.0, 1.0, 4.0, 16.0])
    @pytest.mark.parametrize("support", ["both", "past", "future"])
    def test_matches_quadratic_trapezoid_reference(self, xi, support):
        # the running sums on each side of t = 0 equal the per-node sums
        for seed, n in ((4, 257), (5, 513)):
            f = self.signal(seed, n)
            if support == "past":
                f[n // 2 + 1:] = 0.0
            elif support == "future":
                f[:n // 2] = 0.0
            for delta in (0.1, 0.5):
                assert smoothing_ratio(f, xi, delta) == pytest.approx(
                    self.reference_ratio(f, xi, delta), rel=1e-13)

    @staticmethod
    def recurrence(f, dt, xi):
        """The trapezoid walk as a sequential recurrence, one node at a
        time: A' = a A + (dt/2)(a f + f') out from t = 0, -A for t < 0."""
        mid, a, half = f.size // 2, math.exp(-dt * xi * xi), 0.5 * dt

        def walk(values):
            sums = [0j]
            for prev, cur in zip(values, values[1:]):
                sums.append(a * sums[-1] + half * (a * prev + cur))
            return sums

        past = walk(f[mid::-1].tolist())
        return np.array([-v for v in past[:0:-1]] + walk(f[mid:].tolist()))

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("xi", [0.0, 1.0, 4.0, 16.0, 64.0, 1000.0])
    def test_doubling_walk_matches_recurrence(self, refine, xi):
        # up to 2.4e-15 of the max was measured over 30 signals; at xi = 64
        # the powers a^(2^j) underflow to 0, and at xi = 1000 a itself does
        n = 256 * refine + 1
        dt = 4.0 / (n - 1)
        for seed in range(3):
            f = self.signal(seed, n)
            got, want = verify._walk(f, dt, xi), self.recurrence(f, dt, xi)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 5e-15 * np.max(np.abs(want))


class TestBilinearRatio:
    def test_zero_input_gives_zero(self, grid):
        zero = free_trajectory(
            SpectralField(grid=grid, coeffs=np.zeros((32, 32), complex)), 4.0, 48)
        assert bilinear_ratio(zero, zero, 0.0, 0.0, 0.05, 0.005) == 0.0

    def test_preconditions_rejected(self, grid):
        phi = random_field(grid, np.random.default_rng(7), decay=2)
        u = free_trajectory(phi, 4.0, 48)
        with pytest.raises(ValueError):
            bilinear_ratio(u, u, -0.6, 0.0, 0.05, 0.005)   # s1 <= -1/2
        with pytest.raises(ValueError):
            bilinear_ratio(u, u, 0.0, 0.0, 0.3, 0.005)     # delta too large
        with pytest.raises(ValueError):
            bilinear_ratio(u, u, 0.0, 0.0, 0.05, 0.2)      # eps >= delta

    def test_time_grids_must_match(self, grid):
        # same grid and sample count, but dt 1/12 against 10/12
        rng = np.random.default_rng(7)
        u = free_trajectory(random_field(grid, rng), 4.0, 48)
        v = free_trajectory(random_field(grid, rng), 40.0, 48)
        assert u.n_times == v.n_times
        with pytest.raises(ValueError, match="time grid"):
            bilinear_ratio(u, v, 0.0, 0.0, 0.05, 0.005)

    def test_frozen_regression_single_mode(self, grid):
        coeffs = np.zeros((32, 32), complex)
        coeffs[idx(grid, 1, 0)] = 200.0
        coeffs[idx(grid, -1, 0)] = 200.0
        u = free_trajectory(SpectralField(grid=grid, coeffs=coeffs), 4.0, 48)
        r = bilinear_ratio(u, u, 0.0, 0.0, 0.05, 0.005)
        assert r == pytest.approx(0.037846138991571125, rel=1e-9)

    def test_shorter_window_does_not_inflate(self, grid):
        coeffs = np.zeros((32, 32), complex)
        coeffs[idx(grid, 1, 0)] = 200.0
        coeffs[idx(grid, -1, 0)] = 200.0
        phi = SpectralField(grid=grid, coeffs=coeffs)
        r4 = bilinear_ratio(free_trajectory(phi, 4.0, 48),
                            free_trajectory(phi, 4.0, 48), 0.0, 0.0, 0.05, 0.005)
        r2 = bilinear_ratio(free_trajectory(phi, 2.0, 24),
                            free_trajectory(phi, 2.0, 24), 0.0, 0.0, 0.05, 0.005)
        assert r2 <= 2.0 * r4


def _count_table_builds(monkeypatch):
    """{"multiplier": evaluations of the free-evolution multiplier, and per
    column count, the sigma wraps on that many columns}, counted from now."""
    counts = {"multiplier": 0}
    multiplier, wrap = verify.w_multiplier, norms.wrapped_sigma

    def counted_multiplier(*args, **kwargs):
        counts["multiplier"] += 1
        return multiplier(*args, **kwargs)

    def counted_wrap(tau, P, dt):
        counts[P.size] = counts.get(P.size, 0) + 1
        return wrap(tau, P, dt)

    monkeypatch.setattr(verify, "w_multiplier", counted_multiplier)
    monkeypatch.setattr(verify, "wrapped_sigma", counted_wrap)
    monkeypatch.setattr(norms, "wrapped_sigma", counted_wrap)
    return counts


def _zero_pair(phi):
    """phi without the mode pair (1, 2), (-1, -2)."""
    coeffs = phi.coeffs.copy()
    coeffs[idx(phi.grid, 1, 2)] = coeffs[idx(phi.grid, -1, -2)] = 0.0
    return SpectralField(grid=phi.grid, coeffs=coeffs)


def _standalone_ratio(suite, seed, k, refine, alter=None):
    """Case k of the free or bilinear suite through the public functions on
    a grid of its own, with ``alter`` applied to the case's first datum."""
    grid = make_grid(32 * refine, 32 * refine, np.pi, np.pi)
    rng = np.random.default_rng([seed, k])
    first = random_field(grid, rng)
    if alter is not None:
        first = alter(first)
    M = 48 * refine
    if suite == "free":
        return free_estimate_ratio(first, (0.0, 0.25, 0.5)[k % 3], 0.0, 0.0, M=M)
    s1 = (-0.4, -0.2, 0.0)[k % 3]
    delta = min(0.05, (s1 + 0.5) / 8.0)
    return bilinear_ratio(free_trajectory(first, 4.0, M),
                          free_trajectory(random_field(grid, rng), 4.0, M),
                          s1, 0.0, delta, delta / 10.0)


class TestSuites:
    def test_free_suite_rows_and_report(self):
        report, rows = run_suite("free", 6, seed=0)
        assert isinstance(report, RatioReport)
        assert report.samples == len(rows)
        assert report.max_ratio >= report.median_ratio >= 0.0
        assert math.isfinite(report.max_ratio)
        for row in rows:
            assert set(row) == {"estimate_id", "seed", "params", "ratio"}
            assert row["estimate_id"] == "free"
            assert math.isfinite(row["ratio"])

    def test_suite_seeds_are_substreams(self):
        # per-case seeds: the first cases of a size-6 and size-3 suite agree
        _, rows6 = run_suite("free", 6, seed=42)
        _, rows3 = run_suite("free", 3, seed=42)
        for a, b in zip(rows3, rows6):
            assert a["seed"] == b["seed"]
            assert a["ratio"] == b["ratio"]

    def test_smoothing_suite_no_violations(self):
        report, rows = run_suite("smoothing", 8, seed=1)
        assert math.isfinite(report.max_ratio)
        assert all(math.isfinite(r["ratio"]) for r in rows)

    def test_bilinear_suite_no_violations(self):
        report, rows = run_suite("bilinear", 6, seed=2)
        assert math.isfinite(report.max_ratio)
        assert all(math.isfinite(r["ratio"]) for r in rows)

    def test_refine2_transforms_take_fast_lengths(self, monkeypatch):
        # the band grid (36) and Rader's transforms for the 97 time samples
        # (96) have no prime factor above 5, and nothing calls numpy's
        # matrix products
        lengths = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def spied(a, n=None, axis=-1, *args, _fn=getattr(np.fft, name), **kwargs):
                lengths.append(n if n is not None else np.shape(a)[axis])
                return _fn(a, n, axis, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, spied)

        def refused(*args, **kwargs):
            raise AssertionError("a matrix product ran")
        monkeypatch.setattr(np, "matmul", refused)
        monkeypatch.setattr(np, "dot", refused)
        for suite in ("free", "bilinear"):
            run_suite(suite, 1, 0, refine=2)
        assert {96, 36} <= set(lengths)
        for n in set(lengths):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            assert n == 1

    def test_bilinear_suite_holds_no_full_trajectory(self, alloc_peak):
        # the suite works on mode forms and band grids: its peak stays below
        # one (97, 64, 64) complex trajectory of the refine = 2 grid.  A first
        # call makes the one-time allocations (numpy.random's lazy import).
        run_suite("bilinear", 1, 0, refine=2)
        (report, _), peak = alloc_peak(run_suite, "bilinear", 2, 0, refine=2)
        assert report.samples == 2
        assert peak < 97 * 64 * 64 * 16

    def test_run_suite_dispatch_and_unknown_id(self):
        report, _ = run_suite("free", 3, seed=0)
        assert report.estimate_id == "free"
        with pytest.raises(ValueError):
            run_suite("nonsense", 3, seed=0)

    @pytest.mark.parametrize("suite", ["free", "smoothing", "bilinear"],
                             ids=["free_suite", "smoothing_suite", "bilinear_suite"])
    def test_negative_seed_rejected_by_name(self, suite):
        # the seed is checked first: before suite_size, and before any draw
        for size in (0, 2):
            with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
                run_suite(suite, size, seed=-3)

    @pytest.mark.parametrize("suite", ["free", "smoothing", "bilinear"])
    @pytest.mark.parametrize("field", ["suite_size", "refine"])
    def test_bad_size_or_refine_rejected_by_name(self, suite, field):
        args = {"suite_size": 2, "refine": 1, field: 0}
        with pytest.raises(ValueError, match=rf"^{field} must be >= 1, got 0$"):
            run_suite(suite, args["suite_size"], 0, refine=args["refine"])

    @pytest.mark.parametrize("suite, fn, calls", [
        ("free", "free_estimate_ratio", 1), ("smoothing", "smoothing_ratio", 1),
        ("bilinear", "_bilinear_modes", 1), ("bilinear", "_free_modes", 2)])
    def test_one_grid_per_suite_and_fixed_calls_per_case(self, monkeypatch, suite,
                                                          fn, calls):
        counts = {"make_grid": 0, fn: 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(verify, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(verify, name, counted)
        run_suite(suite, 4, seed=0)
        assert counts == {"make_grid": 1, fn: 4 * calls}

    @pytest.mark.parametrize("suite, size, wraps", [
        ("free", 12, {136: 1}), ("bilinear", 8, {136: 1, 528: 1})])
    def test_one_free_table_per_suite(self, monkeypatch, suite, size, wraps):
        # every datum of a suite lies on the same 136 columns (the Hermitian
        # half of the |k| <= 8 box off kx = 0), and every product on the
        # same 528, so the multiplier and each column set's wrapped sigma
        # are built once per suite
        counts = _count_table_builds(monkeypatch)
        run_suite(suite, size, 0, refine=2)
        assert counts.pop("multiplier") == 1
        assert counts == wraps

    def test_standalone_calls_keep_nothing(self, monkeypatch, grid):
        # outside run_suite each call builds its own tables
        phi = random_field(grid, np.random.default_rng(0))
        counts = _count_table_builds(monkeypatch)
        first = free_estimate_ratio(phi, 0.25, 0.0, 0.0)
        assert free_estimate_ratio(phi, 0.25, 0.0, 0.0) == first
        assert counts == {"multiplier": 2, 136: 2}

    def test_suites_on_two_threads_hold_their_own_tables(self, monkeypatch):
        # suites "a" and "b" run at once on two threads, each starting
        # before the other returns: "b" starts after "a" has built its
        # tables, and "a" returns before "b" goes on past its first build.
        # Each builds its own tables once and gives the serial rows
        _, serial = run_suite("free", 4, 3, refine=2)
        counts = _count_table_builds(monkeypatch)
        built = {"a": threading.Event(), "b": threading.Event()}
        a_done = threading.Event()
        waits = {"a": built["b"], "b": a_done}

        def paused(*args, _build=verify.w_multiplier, **kwargs):
            table = _build(*args, **kwargs)
            name = threading.current_thread().name
            if not built[name].is_set():
                built[name].set()
                waits[name].wait(60)
            return table

        monkeypatch.setattr(verify, "w_multiplier", paused)
        rows = {}

        def run():
            rows[threading.current_thread().name] = run_suite("free", 4, 3, refine=2)[1]

        a = threading.Thread(target=run, name="a")
        b = threading.Thread(target=run, name="b")
        a.start()
        assert built["a"].wait(60)
        b.start()
        a.join(60)
        a_done.set()
        b.join(60)
        assert rows == {"a": serial, "b": serial}
        assert counts == {"multiplier": 2, 136: 2}

    @pytest.mark.parametrize("refine, cols, band", [(1, 210, 10), (2, 528, 16)])
    def test_bilinear_numerator_band(self, refine, cols, band):
        # the product of two |k| <= 8 fields occupies |k| <= 16.  At refine 2
        # its band grid fits, and the numerator is the exact product; at
        # refine 1 it does not, and the numerator is the product cut to the
        # 32 x 32 grid's 2/3 dealias band |k| <= 10
        g = make_grid(32 * refine, 32 * refine, np.pi, np.pi)
        rng = np.random.default_rng([7, 0])
        _, u = verify._free_modes(random_field(g, rng), 4.0, 48 * refine)
        _, v = verify._free_modes(random_field(g, rng), 4.0, 48 * refine)
        prod = dx_product(u, v)
        kx, ky = np.divmod(prod.cols, g.ny)
        assert prod.cols.size == cols
        assert max(np.max(np.abs(g.kx_int[kx])), np.max(np.abs(g.ky_int[ky]))) == band

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("suite", ["free", "bilinear"])
    def test_rows_equal_the_standalone_path(self, suite, refine):
        _, rows = run_suite(suite, 4, 5, refine=refine)
        assert [row["ratio"] for row in rows] == [
            _standalone_ratio(suite, 5, k, refine) for k in range(4)]

    @pytest.mark.parametrize("suite, draws_per_case", [("free", 1), ("bilinear", 2)])
    def test_datum_off_the_suite_columns(self, monkeypatch, suite, draws_per_case):
        # the first datum of case 1 lacks one mode pair: its evolution builds
        # its own multiplier and its power wraps its own sigma, and every row
        # still equals the standalone path
        draws = []

        def drawn(grid, rng, decay=None, _draw=verify.random_field):
            draws.append(_draw(grid, rng, decay))
            if len(draws) == 1 + draws_per_case:
                return _zero_pair(draws[-1])
            return draws[-1]

        monkeypatch.setattr(verify, "random_field", drawn)
        counts = _count_table_builds(monkeypatch)
        _, rows = run_suite(suite, 3, 9)
        assert counts["multiplier"] == 2
        assert counts[135] == 1
        monkeypatch.undo()
        assert [row["ratio"] for row in rows] == [
            _standalone_ratio(suite, 9, k, 1, _zero_pair if k == 1 else None)
            for k in range(3)]

    def test_reports_do_not_share_params(self):
        first, _ = run_suite("bilinear", 1, seed=0)
        first.params["s1"].append(1.0)
        second, _ = run_suite("bilinear", 1, seed=0)
        assert second.params["s1"] == [-0.4, -0.2, 0.0]

    def test_refinement_stability_free(self):
        r1, _ = run_suite("free", 4, seed=3, refine=1)
        r2, _ = run_suite("free", 4, seed=3, refine=2)
        assert 0.5 <= r2.max_ratio / r1.max_ratio <= 2.0
