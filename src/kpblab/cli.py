"""Batch front-end: JSON config in, CSV + manifest out.

Subcommands ``solve``, ``illposed``, ``verify``, ``norms``, each taking
``--config <path>`` and ``--out <dir>`` (``--threads <n>`` optional; the
``illposed`` sweep fans out over that many threads).  Config files are flat
JSON with a top-level ``command`` field that must match the subcommand; a
key the subcommand does not read, at the top level or inside verify's
``params``, is rejected.  Exit codes: 0 success, 2 config error (parse
errors reported with line numbers, precondition violations named by field;
the library checks its own preconditions, and ``run`` reports the
``ValueError`` it raises as a config error), 3 numerical failure
(non-convergence where convergence was required, or a result that is not
finite).

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

import numpy as np

from . import __version__
from .illposedness import (_MIN_CELLS, _MIN_CHI_SAMPLES, build_phi_N, chi_bound_check,
                           scaling_study)
from .norms import (_MIN_STEPS, _TAPER_FRACTION, bourgain_norm, equivalence_gap,
                    sobolev_norm, spacetime_norm)
from .semigroup import _ADMISSIBLE_TOL
from .solver import (_PHI_SERIES_CUTOFF, Trajectory, etd_l2_history, l2_history,
                     solve_etd, solve_picard)
from .spectral_core import (_HERMITIAN_TOL, _KP_ADMISSIBLE_TOL, Grid2D, SpectralField,
                            forward_transform, make_grid)
from .verify import run_suite

__all__ = ["main", "run", "ConfigError", "NumericalFailure"]


class ConfigError(Exception):
    """Invalid config file or precondition violation (exit code 2)."""


class NumericalFailure(Exception):
    """Required convergence not reached, or a result not finite (exit code 3)."""


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


def _reject_literal(literal: str):
    if len(literal) > 40:
        literal = f"{literal[:20]}...({len(literal)} characters)"
    raise ConfigError(f"config value {literal} is not a finite number")


def _finite_number(parse):
    """A JSON number hook: ``parse(literal)``, rejecting a literal that does
    not parse or lies outside the float range as a non-finite config value."""
    def hook(literal: str):
        try:
            value = parse(literal)
            if math.isfinite(float(value)):
                return value
        except (OverflowError, ValueError):  # float range; int digit limit
            pass
        _reject_literal(literal)
    return hook


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text, parse_constant=_reject_literal,
                         parse_float=_finite_number(float),
                         parse_int=_finite_number(int))
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


def _check_keys(cfg: dict, allowed: frozenset, prefix: str = "") -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(
            "unknown config field " + ", ".join(f"'{prefix}{k}'" for k in unknown)
            + f"; expected one of {sorted(allowed)}")


def _as_float(value) -> float:
    """float(value) for a number inside a config object or list; ValueError
    unless it is a finite number (a string such as "inf" parses to one)."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"config value {value!r} is not a finite number")
    return number


def _build_phi(spec, grid: Grid2D) -> SpectralField:
    if not isinstance(spec, dict):
        raise ConfigError("config field 'phi_spec' must be an object")
    kind = spec.get("type")
    if kind == "phi_N":
        try:
            return build_phi_N(_as_float(spec["N"]), _as_float(spec["s"]), grid)
        except KeyError as exc:
            raise ConfigError(f"phi_spec of type phi_N needs field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"phi_spec: {exc}") from exc
    if kind == "gaussian":
        try:
            amp = _as_float(spec["amplitude"])
            wx, wy = (_as_float(w) for w in spec["widths"])
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
                value = complex(_as_float(re), _as_float(im))
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


def _manifest(cfg: dict, command: str, parameters: dict, results: dict) -> str:
    """The manifest's JSON text; a result that is not finite is a NumericalFailure."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "version": __version__,
        "parameters": parameters,
        "tolerances": dict(_TOLERANCES),
        "results": results,
    }
    try:
        return json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        bad = [name for name, value in sorted(results.items())
               if isinstance(value, float) and not math.isfinite(value)]
        raise NumericalFailure(
            f"{command} results not finite: {', '.join(bad) or exc}") from None


def _write_outputs(out_dir: str, command: str, header: list[str],
                   rows: list[list], manifest: str, arrays: dict | None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, f"{command}.csv"), header, rows)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(manifest)
    if arrays:
        np.savez(os.path.join(out_dir, "states.npz"), **arrays)


# ---------------------------------------------------------------- solve

def _run_solve(cfg: dict):
    nx = _field(cfg, "nx", int)
    ny = _field(cfg, "ny", int)
    Lx = _field(cfg, "Lx", float)
    Ly = _field(cfg, "Ly", float)
    T = _field(cfg, "T", float)
    M = _field(cfg, "M", int)
    tol = _field(cfg, "tol", float)
    max_iter = _field(cfg, "max_iter", int)
    integrator = _field(cfg, "integrator", str, required=False, default="picard")
    if integrator not in ("picard", "etd"):
        raise ConfigError(
            f"config field 'integrator' must be picard or etd, got {integrator!r}")
    save_states = _field(cfg, "save_states", bool, required=False, default=False)
    if "phi_spec" not in cfg:
        raise ConfigError("config field 'phi_spec' is required")
    grid = make_grid(nx, ny, Lx, Ly)
    phi = _build_phi(cfg["phi_spec"], grid)

    results: dict = {"integrator": integrator}
    traj = None  # etd without save_states keeps no trajectory
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
    elif save_states:
        traj = solve_etd(phi, T, M)
    if traj is None:
        times, history = etd_l2_history(phi, T, M)
    else:
        times, history = traj.times, l2_history(traj)

    if not np.all(np.isfinite(history)):
        bad = int(np.argmin(np.isfinite(history)))
        raise NumericalFailure(
            f"{integrator} solution is not finite at step {bad} "
            f"(t={times[bad]:.6g})")
    results["final_l2"] = float(history[-1])
    rows = [[k, float(times[k]), float(history[k])] for k in range(times.size)]
    parameters = {"nx": nx, "ny": ny, "Lx": Lx, "Ly": Ly, "T": T, "M": M,
                  "tol": tol, "max_iter": max_iter, "integrator": integrator,
                  "phi_spec": cfg["phi_spec"], "save_states": save_states,
                  "dealias_fraction": grid.dealias_fraction}
    arrays = None
    if save_states:
        arrays = {"times": traj.times, "coeffs": traj.coeffs,
                  "nx": nx, "ny": ny, "Lx": Lx, "Ly": Ly,
                  "dealias_fraction": grid.dealias_fraction}
    return ["k", "t", "l2"], rows, parameters, results, arrays


# ---------------------------------------------------------------- illposed

def _run_illposed(cfg: dict, threads: int | None):
    s = _field(cfg, "s", float)
    eps0 = _field(cfg, "eps0", float)
    cells = _field(cfg, "cells", int)
    samples = _field(cfg, "samples", int)
    seed = _field(cfg, "seed", int, required=False, default=0)
    N_list = _field(cfg, "N_list", list)
    try:
        Ns = sorted(_as_float(N) for N in N_list)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'N_list' must be numeric: {exc}") from exc

    # chi_bound_check is cheap: a bad `samples` fails before any quadrature
    ratios = [chi_bound_check(N, samples, seed=seed) for N in Ns]
    study = scaling_study(Ns, s, eps0, cells, threads)

    rows = [[r.N, r.s, r.eps0, r.t_N, r.norm_phi, r.norm_u2,
             r.quadrature_cells, ratio] for r, ratio in zip(study.results, ratios)]
    parameters = {"s": s, "eps0": eps0, "N_list": Ns, "cells": cells,
                  "samples": samples, "seed": seed}
    results = {"slope": study.slope, "intercept": study.intercept,
               "predicted_slope": (-1.0 - 2.0 * eps0 - 2.0 * s) / 2.0}
    header = ["N", "s", "eps0", "t_N", "norm_phi", "norm_u2", "cells",
              "max_chi_ratio"]
    return header, rows, parameters, results, None


# ---------------------------------------------------------------- verify

def _run_verify(cfg: dict):
    estimate_id = _field(cfg, "estimate_id", str)
    suite_size = _positive(cfg, "suite_size", int)
    seed = _field(cfg, "seed", int)
    params = _field(cfg, "params", dict, required=False, default={})
    _check_keys(params, frozenset({"refine"}), "params.")
    refine = params.get("refine", 1)
    if isinstance(refine, bool) or not isinstance(refine, int) or refine < 1:
        raise ConfigError(f"params.refine must be a positive integer, got {refine}")

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
    return ["estimate_id", "seed", "params", "ratio"], rows, parameters, results, None


# ---------------------------------------------------------------- norms

def _run_norms(cfg: dict):
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

    row = [b, s1, s2,
           sobolev_norm(traj.state(traj.n_times - 1), s1, s2),
           spacetime_norm(traj, b, s1, s2),
           bourgain_norm(traj, b, s1, s2),
           equivalence_gap(traj, b, s1, s2)]
    parameters = {"input_path": input_path, "b": b, "s1": s1, "s2": s2,
                  "n_times": traj.n_times, "dt": traj.dt}
    results = {"sobolev_final": row[3], "spacetime": row[4],
               "bourgain": row[5], "equivalence_gap": row[6]}
    header = ["b", "s1", "s2", "sobolev_final", "spacetime", "bourgain",
              "equivalence_gap"]
    return header, [row], parameters, results, None


# runner -> (CSV header, rows, manifest parameters, results, states.npz arrays
# or None), and the top-level config fields it reads
_RUNNERS = {
    "solve": (_run_solve, frozenset({
        "command", "nx", "ny", "Lx", "Ly", "T", "M", "tol", "max_iter",
        "integrator", "save_states", "phi_spec"})),
    "illposed": (_run_illposed, frozenset({
        "command", "s", "eps0", "cells", "samples", "seed", "N_list"})),
    "verify": (_run_verify, frozenset({
        "command", "estimate_id", "suite_size", "seed", "params"})),
    "norms": (_run_norms, frozenset({"command", "input_path", "b", "s1", "s2"})),
}


def run(command: str, config_path: str, out_dir: str,
        threads: int | None = None) -> None:
    """Execute one subcommand; raises ConfigError / NumericalFailure.

    ``threads`` is the illposed sweep's worker count (None: every CPU).
    """
    cfg = _load_config(config_path)
    _check_command(cfg, command)
    runner, keys = _RUNNERS[command]
    _check_keys(cfg, keys)
    args = (cfg, threads) if command == "illposed" else (cfg,)
    try:
        header, rows, parameters, results, arrays = runner(*args)
    except ValueError as exc:  # a library precondition the config broke
        raise ConfigError(str(exc)) from exc
    manifest = _manifest(cfg, command, parameters, results)
    _write_outputs(out_dir, command, header, rows, manifest, arrays)


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
