"""Batch front-end: JSON config in, CSV + manifest out.

Subcommands ``solve``, ``illposed``, ``verify``, ``norms``, each taking
``--config <path>`` and ``--out <dir>`` (``--threads <n>`` optional).  Config
files are flat JSON with a top-level ``command`` field that must match the
subcommand.  Exit codes: 0 success, 2 config error (parse errors reported
with line numbers, precondition violations named by field), 3 numerical
failure (non-convergence where convergence was required).

Outputs are deterministic for a fixed config: rows are computed from sorted
sweep points, gathered from worker threads, and written in sorted order;
floats are printed with 17 significant digits; the manifest records the
config hash, package version, and every tolerance and window parameter in
play (no silent defaults).  Nothing is written until the whole computation
has succeeded, so a failed run leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import zipfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .illposedness import (_MIN_CELLS, _MIN_CHI_SAMPLES, _MIN_N, build_phi_N,
                           chi_bound_check, second_iterate_norm)
from .norms import (_MIN_STEPS, _TAPER_FRACTION, bourgain_norm, equivalence_gap,
                    sobolev_norm, spacetime_norm)
from .semigroup import _ADMISSIBLE_TOL
from .solver import (_MIN_SOLVE_STEPS, _PHI_SERIES_CUTOFF, Trajectory, l2_history,
                     solve_etd, solve_picard)
from .spectral_core import (_HERMITIAN_TOL, _KP_ADMISSIBLE_TOL, Grid2D, SpectralField,
                            forward_transform, make_grid)
from .verify import run_suite

__all__ = ["main", "run", "ConfigError", "NumericalFailure"]


class ConfigError(Exception):
    """Invalid config file or precondition violation (exit code 2)."""


class NumericalFailure(Exception):
    """Required convergence not reached (exit code 3)."""


_TOLERANCES = {
    "hermitian_tol": _HERMITIAN_TOL,
    "kp_admissibility_tol": _KP_ADMISSIBLE_TOL,
    "semigroup_admissibility_tol": _ADMISSIBLE_TOL,
    "taper_alpha": _TAPER_FRACTION,
    "min_time_steps_for_norms": _MIN_STEPS,
    "min_quadrature_cells": _MIN_CELLS,
    "min_chi_samples": _MIN_CHI_SAMPLES,
    "etd_phi_series_cutoff": _PHI_SERIES_CUTOFF,
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _field(cfg: dict, name: str, kind, required: bool = True, default=None):
    if name not in cfg:
        if required:
            raise ConfigError(f"config field '{name}' is required")
        return default
    value = cfg[name]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(
            f"config field '{name}' must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    return value


def _positive(cfg: dict, name: str, kind=float):
    value = _field(cfg, name, kind)
    if value <= 0:
        raise ConfigError(f"config field '{name}' must be positive, got {value}")
    return value


def _check_command(cfg: dict, expected: str) -> None:
    command = _field(cfg, "command", str)
    if command != expected:
        raise ConfigError(
            f"config field 'command' is '{command}' but the "
            f"'{expected}' subcommand was invoked")


def _build_phi(spec, grid: Grid2D) -> SpectralField:
    if not isinstance(spec, dict):
        raise ConfigError("config field 'phi_spec' must be an object")
    kind = spec.get("type")
    if kind == "phi_N":
        try:
            return build_phi_N(float(spec["N"]), float(spec["s"]), grid)
        except KeyError as exc:
            raise ConfigError(f"phi_spec of type phi_N needs field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"phi_spec: {exc}") from exc
    if kind == "gaussian":
        try:
            amp = float(spec["amplitude"])
            wx, wy = (float(w) for w in spec["widths"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                "phi_spec of type gaussian needs 'amplitude' and 'widths' "
                f"[wx, wy]: {exc}") from exc
        if wx <= 0 or wy <= 0:
            raise ConfigError("phi_spec widths must be positive")
        u = amp * np.exp(-(grid.x[:, None] ** 2) / (2 * wx ** 2)
                         - (grid.y[None, :] ** 2) / (2 * wy ** 2))
        return forward_transform(u, grid)
    if kind == "modes":
        entries = spec.get("modes")
        if not isinstance(entries, list) or not entries:
            raise ConfigError(
                "phi_spec of type modes needs a nonempty 'modes' list of "
                "[kx, ky, re, im] entries")
        coeffs = np.zeros((grid.nx, grid.ny), dtype=complex)
        for entry in entries:
            try:
                kx, ky, re, im = entry
                kx, ky = int(kx), int(ky)
                value = complex(float(re), float(im))
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"phi_spec modes entry {entry!r} is not [kx, ky, re, im]"
                ) from exc
            if abs(kx) >= grid.nx // 2 or abs(ky) >= grid.ny // 2:
                raise ConfigError(
                    f"phi_spec mode ({kx},{ky}) outside the grid band")
            coeffs[kx % grid.nx, ky % grid.ny] = value
            coeffs[-kx % grid.nx, -ky % grid.ny] = np.conj(value)
        return SpectralField(grid=grid, coeffs=coeffs)
    if kind == "zero":
        return SpectralField(grid=grid,
                             coeffs=np.zeros((grid.nx, grid.ny), dtype=complex))
    raise ConfigError(
        "phi_spec 'type' must be one of phi_N, gaussian, modes, zero; "
        f"got {kind!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            text = _fmt(cell)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _manifest(cfg: dict, command: str, parameters: dict, results: dict) -> dict:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return {
        "command": command,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "version": __version__,
        "parameters": parameters,
        "tolerances": dict(_TOLERANCES),
        "results": results,
    }


def _write_outputs(out_dir: str, command: str, header: list[str],
                   rows: list[list], manifest: dict,
                   extra_arrays: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, f"{command}.csv"), header, rows)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if extra_arrays:
        np.savez(os.path.join(out_dir, "states.npz"), **extra_arrays)


# ---------------------------------------------------------------- solve

def _run_solve(cfg: dict, out_dir: str, threads: int) -> None:
    _check_command(cfg, "solve")
    nx = int(_positive(cfg, "nx", int))
    ny = int(_positive(cfg, "ny", int))
    Lx = _positive(cfg, "Lx", float)
    Ly = _positive(cfg, "Ly", float)
    T = _positive(cfg, "T", float)
    M = int(_positive(cfg, "M", int))
    tol = _positive(cfg, "tol", float)
    max_iter = int(_positive(cfg, "max_iter", int))
    integrator = _field(cfg, "integrator", str, required=False, default="picard")
    if integrator not in ("picard", "etd"):
        raise ConfigError(
            f"config field 'integrator' must be picard or etd, got {integrator!r}")
    save_states = _field(cfg, "save_states", bool, required=False, default=False)
    if "phi_spec" not in cfg:
        raise ConfigError("config field 'phi_spec' is required")
    try:
        grid = make_grid(nx, ny, Lx, Ly)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    phi = _build_phi(cfg["phi_spec"], grid)
    if M < _MIN_SOLVE_STEPS:
        raise ConfigError(f"config field 'M' must be >= {_MIN_SOLVE_STEPS}, got {M}")

    results: dict = {"integrator": integrator}
    if integrator == "picard":
        traj, report = solve_picard(phi, T, M, tol=tol, max_iter=max_iter)
        results["iterations"] = report.iterations
        results["converged"] = report.converged
        results["residual_history"] = report.residual_history
        if not report.converged:
            raise NumericalFailure(
                f"Picard iteration did not reach tol={tol} within "
                f"{max_iter} iterations (stopped after {report.iterations}, "
                f"last residual {report.residual_history[-1]:.3e})")
    else:
        traj = solve_etd(phi, T, M)

    history = l2_history(traj)
    if not np.all(np.isfinite(history)):
        bad = int(np.argmin(np.isfinite(history)))
        raise NumericalFailure(
            f"{integrator} solution is not finite at step {bad} "
            f"(t={traj.times[bad]:.6g})")
    results["final_l2"] = float(history[-1])
    rows = [[k, float(traj.times[k]), float(history[k])]
            for k in range(traj.n_times)]
    parameters = {"nx": nx, "ny": ny, "Lx": Lx, "Ly": Ly, "T": T, "M": M,
                  "tol": tol, "max_iter": max_iter, "integrator": integrator,
                  "phi_spec": cfg["phi_spec"], "save_states": save_states,
                  "dealias_fraction": grid.dealias_fraction}
    manifest = _manifest(cfg, "solve", parameters, results)
    extra = None
    if save_states:
        extra = {"times": traj.times, "coeffs": traj.coeffs,
                 "nx": nx, "ny": ny, "Lx": Lx, "Ly": Ly,
                 "dealias_fraction": grid.dealias_fraction}
    _write_outputs(out_dir, "solve", ["k", "t", "l2"], rows, manifest, extra)


# ---------------------------------------------------------------- illposed

def _run_illposed(cfg: dict, out_dir: str, threads: int) -> None:
    _check_command(cfg, "illposed")
    s = _field(cfg, "s", float)
    eps0 = _field(cfg, "eps0", float)
    cells = int(_positive(cfg, "cells", int))
    samples = int(_positive(cfg, "samples", int))
    seed = int(_field(cfg, "seed", int, required=False, default=0))
    N_list = _field(cfg, "N_list", list)
    try:
        Ns = sorted(float(N) for N in N_list)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'N_list' must be numeric: {exc}") from exc
    if len(Ns) < 4:
        raise ConfigError(
            f"config field 'N_list' needs at least 4 values, got {len(Ns)}")
    if len(set(Ns)) != len(Ns):
        raise ConfigError("config field 'N_list' has duplicate entries")
    if Ns[0] < _MIN_N:
        raise ConfigError(f"config field 'N_list' entries must be >= {_MIN_N}, got {Ns[0]}")
    if cells < _MIN_CELLS:
        raise ConfigError(
            f"config field 'cells' must be >= {_MIN_CELLS}, got {cells}")
    if samples < _MIN_CHI_SAMPLES:
        raise ConfigError(
            f"config field 'samples' must be >= {_MIN_CHI_SAMPLES}, got {samples}")

    # Independent per-N jobs fan out across threads; the slope fit runs on
    # the gathered table afterwards.
    def one(N: float):
        res = second_iterate_norm(N, s, eps0, cells)
        ratio = chi_bound_check(N, samples, seed=seed)
        return res, ratio

    with ThreadPoolExecutor(max_workers=threads) as pool:
        gathered = list(pool.map(one, Ns))

    logN = np.log([r.N for r, _ in gathered])
    logU = np.log([r.norm_u2 for r, _ in gathered])
    slope, intercept = np.polyfit(logN, logU, 1)

    rows = [[r.N, r.s, r.eps0, r.t_N, r.norm_phi, r.norm_u2,
             r.quadrature_cells, ratio] for r, ratio in gathered]
    parameters = {"s": s, "eps0": eps0, "N_list": Ns, "cells": cells,
                  "samples": samples, "seed": seed}
    results = {"slope": float(slope), "intercept": float(intercept),
               "predicted_slope": (-1.0 - 2.0 * eps0 - 2.0 * s) / 2.0}
    manifest = _manifest(cfg, "illposed", parameters, results)
    header = ["N", "s", "eps0", "t_N", "norm_phi", "norm_u2", "cells",
              "max_chi_ratio"]
    _write_outputs(out_dir, "illposed", header, rows, manifest)


# ---------------------------------------------------------------- verify

def _run_verify(cfg: dict, out_dir: str, threads: int) -> None:
    _check_command(cfg, "verify")
    estimate_id = _field(cfg, "estimate_id", str)
    suite_size = int(_positive(cfg, "suite_size", int))
    seed = int(_field(cfg, "seed", int))
    params = _field(cfg, "params", dict, required=False, default={})
    refine = params.get("refine", 1)
    if isinstance(refine, bool) or not isinstance(refine, int) or refine < 1:
        raise ConfigError(f"params.refine must be a positive integer, got {refine}")
    if estimate_id not in ("free", "smoothing", "bilinear"):
        raise ConfigError(
            "config field 'estimate_id' must be one of free, smoothing, "
            f"bilinear; got {estimate_id!r}")

    report, samples = run_suite(estimate_id, suite_size, seed, refine=refine)
    violations = sum(1 for row in samples if not math.isfinite(row["ratio"]))
    if violations:
        raise NumericalFailure(
            f"{violations} violation events (nonzero numerator over zero "
            "denominator) in the suite")

    rows = [[row["estimate_id"], row["seed"],
             json.dumps(row["params"], sort_keys=True), row["ratio"]]
            for row in sorted(samples, key=lambda r: r["seed"])]
    parameters = {"estimate_id": estimate_id, "suite_size": suite_size,
                  "seed": seed, "params": params}
    results = {"max_ratio": report.max_ratio,
               "median_ratio": report.median_ratio,
               "violations": violations,
               "suite_params": report.params}
    manifest = _manifest(cfg, "verify", parameters, results)
    header = ["estimate_id", "seed", "params", "ratio"]
    _write_outputs(out_dir, "verify", header, rows, manifest)


# ---------------------------------------------------------------- norms

def _run_norms(cfg: dict, out_dir: str, threads: int) -> None:
    _check_command(cfg, "norms")
    input_path = _field(cfg, "input_path", str)
    b = _field(cfg, "b", float)
    s1 = _field(cfg, "s1", float)
    s2 = _field(cfg, "s2", float)
    try:
        with np.load(input_path) as data:
            times = data["times"]
            coeffs = data["coeffs"]
            grid = make_grid(int(data["nx"]), int(data["ny"]),
                             float(data["Lx"]), float(data["Ly"]),
                             float(data["dealias_fraction"]))
    except OSError as exc:
        raise ConfigError(f"cannot read input_path {input_path!r}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(
            f"input_path {input_path!r} lacks required array {exc}") from exc
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"input_path {input_path!r}: {exc}") from exc
    try:
        traj = Trajectory(grid=grid, times=times, coeffs=coeffs)
    except ValueError as exc:
        raise ConfigError(f"input_path {input_path!r}: {exc}") from exc
    if traj.n_times - 1 < _MIN_STEPS:
        raise ConfigError(
            f"input trajectory has {traj.n_times - 1} time steps; norms "
            f"need at least {_MIN_STEPS}")

    row = [b, s1, s2,
           sobolev_norm(traj.state(traj.n_times - 1), s1, s2),
           spacetime_norm(traj, b, s1, s2),
           bourgain_norm(traj, b, s1, s2),
           equivalence_gap(traj, b, s1, s2)]
    parameters = {"input_path": input_path, "b": b, "s1": s1, "s2": s2,
                  "n_times": traj.n_times, "dt": traj.dt}
    results = {"sobolev_final": row[3], "spacetime": row[4],
               "bourgain": row[5], "equivalence_gap": row[6]}
    manifest = _manifest(cfg, "norms", parameters, results)
    header = ["b", "s1", "s2", "sobolev_final", "spacetime", "bourgain",
              "equivalence_gap"]
    _write_outputs(out_dir, "norms", header, [row], manifest)


_RUNNERS = {
    "solve": _run_solve,
    "illposed": _run_illposed,
    "verify": _run_verify,
    "norms": _run_norms,
}


def run(command: str, config_path: str, out_dir: str,
        threads: int | None = None) -> None:
    """Execute one subcommand; raises ConfigError / NumericalFailure."""
    if threads is None:
        threads = os.cpu_count() or 1
    cfg = _load_config(config_path)
    _RUNNERS[command](cfg, out_dir, threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kpblab",
        description="KPB-II spectral laboratory: solve, illposed, verify, norms")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("solve", "Picard/ETD time integration of the Duhamel problem"),
            ("illposed", "second-iterate norm growth sweep"),
            ("verify", "randomized estimate ratio suites"),
            ("norms", "norms of a saved trajectory")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: available parallelism)")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        run(args.command, args.config, args.out, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
