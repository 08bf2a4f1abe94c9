"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints ``CRITERION n: PASS/FAIL - detail`` and asserts at the
stated tolerance.  Criterion 2 is asserted faithfully at its stated bound;
see the failure message for the quantitative finite-N analysis of why the
mandated sweep cannot reach it.
"""

import json
import math

import numpy as np
import pytest

import kpblab
from kpblab.cli import main as cli_main
from kpblab.illposedness import (
    build_phi_N,
    chi_bound_check,
    resonance_chi,
    scaling_study,
    second_iterate_hat,
)
from kpblab.norms import (
    bourgain_norm,
    equivalence_gap,
    sobolev_norm,
    spacetime_norm,
)
from kpblab.semigroup import apply_U, semigroup_table
from kpblab.solver import (
    Trajectory,
    l2_history,
    picard_step,
    solve_etd,
    solve_picard,
)
from kpblab.spectral_core import (
    SpectralField,
    forward_transform,
    l2_norm,
    make_grid,
    project_zero_x_mean,
)
from kpblab.verify import free_trajectory, random_field, run_suite

SWEEP_N = [16, 32, 64, 128]
CELLS = 128


def report(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def gaussian_datum(grid, amplitude=0.05):
    u = amplitude * np.exp(-(grid.x[:, None] ** 2 + grid.y[None, :] ** 2))
    return project_zero_x_mean(forward_transform(u, grid))


def test_criterion_01_illposed_scaling_growth():
    study = scaling_study(SWEEP_N, -0.7, 0.01, cells=CELLS)
    ok = study.slope >= 0.14
    line = report(1, ok,
                  f"s=-0.7 sweep N={SWEEP_N}: fitted slope {study.slope:+.4f} "
                  f"(required >= +0.14, formula value +0.19)")
    assert ok, line


def test_criterion_02_wellposed_side_decay():
    study = scaling_study(SWEEP_N, -0.3, 0.01, cells=CELLS)
    ok = study.slope <= -0.15
    per_octave = [
        (math.log(b.norm_u2) - math.log(a.norm_u2)) / (math.log(b.N) - math.log(a.N))
        for a, b in zip(study.results, study.results[1:])]
    line = report(
        2, ok,
        f"s=-0.3 sweep N={SWEEP_N}: fitted slope {study.slope:+.4f} "
        f"(required <= -0.15, formula value -0.21). "
        f"Per-octave slopes {['%+.3f' % p for p in per_octave]} are still "
        "converging toward the formula: at t_N = N^(-3-eps0) the dissipative "
        "kernel factor exp(-t xi^2) with xi ~ 3N has only decayed by "
        "t_N xi^2 ~ 9 N^(-1-eps0) (0.31 at N=16, 0.068 at N=128), which "
        "lifts every finite-N slope by about +0.10; a dissipation-off "
        "diagnostic of the same quadrature recovers -0.198 vs the analytic "
        "-0.21.  The bound is genuinely unattainable on the mandated "
        "N-range; it is asserted faithfully rather than loosened.")
    assert ok, line


def test_criterion_03_data_normalization():
    worst = 0.0
    for s in (-0.7, -0.3):
        grid_vals, analytic_vals = [], []
        for N in SWEEP_N:
            g = make_grid(80, 128, 16 * np.pi / N, 8 * np.pi / N ** 2)
            grid_vals.append(sobolev_norm(build_phi_N(N, s, g), s, 0.0))
            analytic_vals.append(build_phi_N(N, s).sobolev_norm(s))
        for vals in (grid_vals, analytic_vals):
            worst = max(worst, max(vals) / min(vals))
    ok = worst <= 1.5
    line = report(3, ok,
                  f"||phi_N||_H^(s,0) varies by <= {worst:.4f}x across "
                  f"N={SWEEP_N}, s in {{-0.7,-0.3}} (required <= 1.5x)")
    assert ok, line


def test_criterion_04_resonance_algebra():
    def P(xi, eta):
        return xi ** 3 - eta ** 2 / xi

    rng = np.random.default_rng(0)
    worst_rel = 0.0
    for _ in range(10000):
        xi1, xi2 = rng.uniform(0.5, 8.0, 2)
        eta, eta1 = rng.uniform(-50.0, 50.0, 2)
        tau, tau1 = rng.uniform(-1e3, 1e3, 2)
        xi = xi1 + xi2
        sigma = tau - P(xi, eta)
        sigma1 = tau1 - P(xi1, eta1)
        sigma2 = (tau - tau1) - P(xi2, eta - eta1)
        chi = resonance_chi(xi, xi1, eta, eta1)
        worst_rel = max(worst_rel, abs(sigma1 + sigma2 - sigma - chi) / abs(chi))

    ratios = {N: chi_bound_check(N, 10000) for N in (16, 64, 256)}
    spread = max(ratios.values()) / min(ratios.values())
    ok = (worst_rel <= 1e-10 and max(ratios.values()) <= 100.0 and spread <= 2.0)
    line = report(4, ok,
                  f"modulation identity worst rel err {worst_rel:.2e} "
                  f"(<= 1e-10); max|chi|/N^3 = "
                  f"{ {k: round(v, 1) for k, v in ratios.items()} } "
                  f"(<= 100), spread {spread:.3f}x (<= 2x)")
    assert ok, line


def test_criterion_05_oracle_equivalence():
    N, s = 16, -0.7
    t_N = N ** (-3.01)
    t = t_N / 100.0
    g = make_grid(160, 576, np.pi, np.pi / 8)
    phi = build_phi_N(N, s, g)

    times = np.linspace(0.0, t, 33)
    zero = Trajectory(grid=g, times=times,
                      coeffs=np.zeros((33, g.nx, g.ny), complex))
    first = picard_step(zero, phi)
    second = picard_step(first, phi)
    delta = second.coeffs[-1] - first.coeffs[-1]

    errs = []
    for kx in range(33, 40):
        for ky in (-100, -50, 0, 50, 100):
            xi, eta = float(g.xi[kx]), float(g.eta[ky % g.ny])
            quad = abs(second_iterate_hat(N, s, t, xi, eta, cells=128))
            disc = 8 * np.pi ** 2 * abs(delta[kx, ky % g.ny]) * g.dx * g.dy
            errs.append(abs(quad - disc) / quad)
    worst = max(errs)
    ok = len(errs) >= 20 and worst <= 0.05
    line = report(5, ok,
                  f"continuum-quadrature u2_hat vs solver-discrete second "
                  f"Picard iterate: {len(errs)} window samples, worst rel "
                  f"diff {worst:.2e} (required <= 5e-2)")
    assert ok, line


def test_criterion_06_dissipation_and_unitarity():
    worst_growth = 0.0
    g32 = make_grid(32, 32, np.pi, np.pi)
    trajs = [
        solve_picard(gaussian_datum(g32, 0.5), 0.5, 32)[0],
        solve_etd(gaussian_datum(g32, 0.5), 0.5, 64),
    ]
    gN = make_grid(80, 128, np.pi, np.pi / 32)
    trajs.append(solve_picard(build_phi_N(16, -0.7, gN), 16.0 ** -3.01, 16)[0])
    for traj in trajs:
        h = l2_history(traj)
        nz = h[:-1] > 0
        worst_growth = max(worst_growth,
                           float(np.max(h[1:][nz] / h[:-1][nz], initial=0.0)))

    worst_unit = 0.0
    rng = np.random.default_rng(1)
    for k in range(8):
        f = random_field(g32, rng, decay=k % 3)
        n0 = l2_norm(f)
        for t in rng.uniform(-10.0, 10.0, 4):
            worst_unit = max(worst_unit, abs(l2_norm(apply_U(f, float(t))) / n0 - 1.0))

    ok = worst_growth <= 1.0 + 1e-8 and worst_unit <= 1e-12
    line = report(6, ok,
                  f"L2 step growth max {worst_growth - 1.0:+.2e} over 3 "
                  f"trajectories (allowed +1e-8); U(t) unitarity defect "
                  f"{worst_unit:.2e} (allowed 1e-12)")
    assert ok, line


def test_criterion_07_solver_cross_validation():
    g = make_grid(32, 32, np.pi, np.pi)
    phi = gaussian_datum(g, amplitude=0.001)
    ref, _ = solve_picard(phi, 0.1, 512)
    refc = ref.coeffs[-1]
    refn = np.sqrt(np.sum(np.abs(refc) ** 2))

    errs = []
    for M in (16, 32, 64):
        e = solve_etd(phi, 0.1, M).coeffs[-1]
        errs.append(np.sqrt(np.sum(np.abs(e - refc) ** 2)) / refn)
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    order = sum(orders) / len(orders)

    p = solve_picard(phi, 0.1, 128)[0].coeffs[-1]
    e = solve_etd(phi, 0.1, 128).coeffs[-1]
    agree = np.sqrt(np.sum(np.abs(p - e) ** 2)) / np.sqrt(np.sum(np.abs(p) ** 2))

    ok = agree <= 1e-6 and order >= 1.8
    line = report(7, ok,
                  f"Picard vs ETD at T=0.1, M=128: rel L2 gap {agree:.2e} "
                  f"(<= 1e-6); empirical ETD order {order:.2f} (>= 1.8)")
    assert ok, line


def test_criterion_08_norm_equivalence():
    g = make_grid(32, 32, np.pi, np.pi)
    rng = np.random.default_rng(2)
    worst_lo, worst_hi, worst_eq = math.inf, 0.0, 0.0
    for k in range(10):
        phi = random_field(g, rng, decay=k % 3)
        times = np.linspace(0.0, 2.0, 33)
        if k % 2 == 0:
            coeffs = np.array([semigroup_table(g, float(t)) * phi.coeffs
                               for t in times])
        else:
            from kpblab.semigroup import free_table
            coeffs = np.array([free_table(g, float(t)) * phi.coeffs
                               for t in times])
        traj = Trajectory(grid=g, times=times, coeffs=coeffs)
        for b in (0.25, 0.5):
            gap = equivalence_gap(traj, b, -0.3, 0.2)
            worst_lo, worst_hi = min(worst_lo, gap), max(worst_hi, gap)
        a = bourgain_norm(traj, 0.0, -0.3, 0.2)
        c = spacetime_norm(traj, 0.0, -0.3, 0.2)
        worst_eq = max(worst_eq, abs(a - c) / c)
    ok = worst_lo >= 1.0 / 3.0 and worst_hi <= 3.0 and worst_eq <= 1e-12
    line = report(8, ok,
                  f"equivalence ratio in [{worst_lo:.3f}, {worst_hi:.3f}] "
                  f"over 10 random trajectories (required within [1/3, 3]); "
                  f"b=0 norm identity defect {worst_eq:.2e} (<= 1e-12)")
    assert ok, line


def test_criterion_09_estimate_stability():
    sizes = {"free": 12, "smoothing": 10, "bilinear": 8}
    details, ok = [], True
    for estimate_id, size in sizes.items():
        r1, rows1 = run_suite(estimate_id, size, seed=0, refine=1)
        r2, rows2 = run_suite(estimate_id, size, seed=0, refine=2)
        violations = sum(1 for row in rows1 + rows2
                         if not math.isfinite(row["ratio"]))
        factor = r2.max_ratio / r1.max_ratio
        details.append(f"{estimate_id}: x{factor:.3f}, {violations} violations")
        ok = ok and 0.5 <= factor <= 2.0 and violations == 0
    line = report(9, ok,
                  "max_ratio under resolution doubling within [1/2, 2] and "
                  "no violations - " + "; ".join(details))
    assert ok, line


def test_criterion_10_determinism(tmp_path):
    configs = {
        "solve": {
            "command": "solve", "nx": 32, "ny": 32, "Lx": math.pi,
            "Ly": math.pi, "T": 0.1, "M": 20, "tol": 1e-10, "max_iter": 25,
            "phi_spec": {"type": "gaussian", "amplitude": 0.05,
                         "widths": [0.7, 0.7]}},
        "illposed": {
            "command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
            "samples": 10000, "seed": 0, "N_list": [8, 10, 12, 14]},
        "verify": {
            "command": "verify", "estimate_id": "free", "suite_size": 4,
            "seed": 7},
    }
    identical = True
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}-{run_id}"
            rc = cli_main([name, "--config", str(cfg_path), "--out", str(out),
                           "--threads", "2" if run_id == "a" else "4"])
            assert rc == 0
            outs.append(out)
        same_csv = ((outs[0] / f"{name}.csv").read_bytes()
                    == (outs[1] / f"{name}.csv").read_bytes())
        same_manifest = ((outs[0] / "manifest.json").read_bytes()
                         == (outs[1] / "manifest.json").read_bytes())
        identical = identical and same_csv and same_manifest
    ok = identical
    line = report(10, ok,
                  "repeated CLI runs (solve, illposed, verify) with fixed "
                  "config+seed and different thread counts produce "
                  "byte-identical CSVs and manifests")
    assert ok, line
