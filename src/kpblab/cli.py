"""Batch front-end: JSON config in, CSV + manifest out.

Subcommands ``solve``, ``illposed``, ``verify``, ``norms``, each taking
``--config <path>`` and ``--out <dir>`` (``--threads <n>`` optional; the
``illposed`` sweep fans out over that many threads).  Config files are flat
JSON with a top-level ``command`` field that must match the subcommand; a
key the subcommand does not read, at the top level, inside verify's
``params`` or inside solve's ``phi_spec``, is rejected.  ``_COMMANDS`` is
the one table of the subcommands: each one's help text, its runner, and
its config fields in check order, with their kinds and the defaults of
the optional ones.  Exit codes: 0 success, 2 config error (parse errors
reported with line numbers, precondition violations named by field; the
library checks its own preconditions, and ``run`` reports the
``ValueError`` it raises as a config error, and a ``MemoryError`` as a run
that needs more memory than the machine has; ``main`` reports an
``OSError`` from ``run`` as outputs that cannot be written), 3 numerical
failure (non-convergence where convergence was required, a result that is
not finite, or an ``OverflowError``).

Outputs are deterministic for a fixed config: rows are computed from sorted
sweep points, gathered from worker threads, and written in sorted order;
floats are printed with 17 significant digits; the manifest records the
config hash, package version, and every tolerance and window parameter in
play (no silent defaults).  Nothing is written until the whole computation
has succeeded, so a failed run leaves no partial outputs.  The one
exception is ``solve``'s ``states.npz`` (see ``kpblab.states``): it is
streamed, one state at a time, into a temporary file, which is renamed
into the output directory after the CSV and the manifest and removed if
the run fails.  It holds the states on the solver band.  ``norms`` reads
it back with ``states.read``, refuses too few time steps
(``check_steps``) before it reads any band row, builds its mode form in
one pass over the blocks of time rows (``solver.band_form``), takes the
Sobolev norm from the form's last row and then the three time-dependent
norms from ``WindowedPower.of_modes``, which keeps only the form's
power, so neither side holds a full trajectory.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import TOLERANCES, __version__, states
from .illposedness import build_phi_N, chi_bound_check, scaling_study
from .modes import ModeForm
from .norms import WindowedPower, check_steps, sobolev_norm
from .solver import band_form, solve_states
from .spectral_core import Grid2D, SpectralField, forward_transform, make_grid
from .verify import run_suite

__all__ = ["main", "run", "ConfigError", "NumericalFailure"]


class ConfigError(Exception):
    """Invalid config file or precondition violation (exit code 2)."""


class NumericalFailure(Exception):
    """Required convergence not reached, or a result not finite (exit code 3)."""


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


def _typed(what: str, value, kind):
    """``value`` as a ``kind`` (an int as a float, a bool only as a bool)."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(
            f"{what} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    return value


def _check_keys(cfg: dict, allowed: frozenset, prefix: str = "") -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(
            "unknown config field " + ", ".join(f"'{prefix}{k}'" for k in unknown)
            + f"; expected one of {sorted(allowed)}")


def _as_float(what: str, value) -> float:
    """``value``, a number inside a config object or list, as a float.  Only
    a JSON number is one, by ``_typed``'s rule: an int or a float, never a
    bool or a string (the loader has rejected the non-finite ones)."""
    try:
        return _typed(what, value, float)
    except ConfigError:
        raise ConfigError(f"{what} is not a finite number, got "
                          f"{type(value).__name__}") from None


def _build_phi(spec: dict, grid: Grid2D) -> SpectralField:
    kind = spec.get("type")
    if kind == "phi_N":
        _check_keys(spec, frozenset({"type", "N", "s"}), "phi_spec.")
        try:
            return build_phi_N(_as_float("phi_spec N", spec["N"]),
                               _as_float("phi_spec s", spec["s"]), grid)
        except KeyError as exc:
            raise ConfigError(f"phi_spec of type phi_N needs field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"phi_spec: {exc}") from exc
    if kind == "gaussian":
        _check_keys(spec, frozenset({"type", "amplitude", "widths"}), "phi_spec.")
        try:
            amp = _as_float("phi_spec amplitude", spec["amplitude"])
            wx, wy = (_as_float(f"phi_spec widths[{i}]", w)
                      for i, w in enumerate(spec["widths"]))
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
        _check_keys(spec, frozenset({"type", "modes"}), "phi_spec.")
        entries = spec.get("modes")
        if not isinstance(entries, list) or not entries:
            raise ConfigError(
                "phi_spec of type modes needs a nonempty 'modes' list of "
                "[kx, ky, re, im] entries")
        coeffs = np.zeros((grid.nx, grid.ny), dtype=complex)
        for entry in entries:
            try:
                kx, ky, re, im = entry
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"phi_spec modes entry {entry!r} is not [kx, ky, re, im]"
                ) from exc
            kx = _typed(f"phi_spec modes entry {entry!r}: kx", kx, int)
            ky = _typed(f"phi_spec modes entry {entry!r}: ky", ky, int)
            value = complex(_as_float(f"phi_spec modes entry {entry!r}: re", re),
                            _as_float(f"phi_spec modes entry {entry!r}: im", im))
            if abs(kx) >= grid.nx // 2 or abs(ky) >= grid.ny // 2:
                raise ConfigError(
                    f"phi_spec mode ({kx},{ky}) outside the grid band")
            coeffs[kx % grid.nx, ky % grid.ny] = value
            coeffs[-kx % grid.nx, -ky % grid.ny] = np.conj(value)
        return SpectralField(grid=grid, coeffs=coeffs)
    if kind == "zero":
        _check_keys(spec, frozenset({"type"}), "phi_spec.")
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)


def _manifest(cfg: dict, command: str, parameters: dict, results: dict) -> str:
    """The manifest's JSON text; a result that is not finite is a NumericalFailure."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "version": __version__,
        "parameters": parameters,
        "tolerances": dict(TOLERANCES),
        "results": results,
    }
    try:
        return json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        bad = [name for name, value in sorted(results.items())
               if isinstance(value, float) and not math.isfinite(value)]
        raise NumericalFailure(
            f"{command} results not finite: {', '.join(bad) or exc}") from None


def _staging_path(out_dir: str) -> str:
    """A fresh temporary path for ``states.npz``.  It lies in the closest
    existing directory on the way up from ``out_dir``, so renaming it into
    ``out_dir`` stays on one file system."""
    where = os.path.abspath(out_dir)
    while not os.path.isdir(where):
        where = os.path.dirname(where)
    return os.path.join(where, f".states.npz.{os.urandom(6).hex()}.part")


def _write_outputs(out_dir: str, command: str, header: list[str], rows: list[list],
                   manifest: str, states_path: str) -> None:
    """Write the CSV and the manifest, then rename the temporary file at
    ``states_path``, if the run wrote one, to states.npz in ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, f"{command}.csv"), header, rows)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(manifest)
    if os.path.exists(states_path):
        os.replace(states_path, os.path.join(out_dir, "states.npz"))


# ---------------------------------------------------------------- solve

def _run_solve(p: dict, threads, states_path: str):
    M, integrator, tol, max_iter = p["M"], p["integrator"], p["tol"], p["max_iter"]
    grid = make_grid(p["nx"], p["ny"], p["Lx"], p["Ly"])
    phi = _build_phi(p["phi_spec"], grid)
    if p["save_states"]:
        states.check_fits(grid, M)

    results: dict = {"integrator": integrator}
    times, report, band_states = solve_states(phi, p["T"], M, integrator, tol, max_iter)
    if report is not None:
        results["iterations"] = report.iterations
        results["converged"] = report.converged
        results["residual_history"] = report.residual_history
        if not report.converged:
            raise NumericalFailure(
                f"Picard iteration did not reach tol={tol} within "
                f"{max_iter} iterations (stopped after {report.iterations}: "
                f"{report.stop_reason}, last residual "
                f"{report.residual_history[-1]:.3e})")
    history = []

    def finite_states():
        """The band states in time order, each L^2 norm appended to history."""
        for k, state, l2 in band_states:
            if not math.isfinite(l2):
                raise NumericalFailure(
                    f"{integrator} solution is not finite at step {k} "
                    f"(t={times[k]:.6g})")
            history.append(l2)
            yield state

    if p["save_states"]:
        states.write(states_path, grid, times, finite_states())
    else:
        for _ in finite_states():
            pass
    results["final_l2"] = history[-1]
    rows = [[k, float(times[k]), history[k]] for k in range(times.size)]
    p["dealias_fraction"] = grid.dealias_fraction
    return ["k", "t", "l2"], rows, results


# ---------------------------------------------------------------- illposed

def _run_illposed(p: dict, threads: int | None, states_path: str):
    eps0 = p["eps0"]
    Ns = p["N_list"] = sorted(_as_float(f"config field 'N_list' entry {i}", N)
                              for i, N in enumerate(p["N_list"]))

    # chi_bound_check is cheap: a bad `samples` fails before any quadrature
    ratios = [chi_bound_check(N, p["samples"], seed=p["seed"]) for N in Ns]
    study = scaling_study(Ns, p["s"], eps0, p["cells"], threads)

    rows = [[r.N, r.s, r.eps0, r.t_N, r.norm_phi, r.norm_u2,
             r.quadrature_cells, ratio] for r, ratio in zip(study.results, ratios)]
    results = {"slope": study.slope, "intercept": study.intercept,
               "predicted_slope": (-1.0 - 2.0 * eps0 - 2.0 * p["s"]) / 2.0}
    header = ["N", "s", "eps0", "t_N", "norm_phi", "norm_u2", "cells",
              "max_chi_ratio"]
    return header, rows, results


# ---------------------------------------------------------------- verify

def _run_verify(p: dict, threads, states_path: str):
    _check_keys(p["params"], frozenset({"refine"}), "params.")
    refine = _typed("config field 'params.refine'", p["params"].get("refine", 1), int)

    report, samples = run_suite(p["estimate_id"], p["suite_size"], p["seed"],
                                refine=refine)
    violations = sum(1 for row in samples if not math.isfinite(row["ratio"]))
    if violations:
        raise NumericalFailure(
            f"{violations} violation events (nonzero numerator over zero "
            "denominator) in the suite")

    rows = [[row["estimate_id"], row["seed"],
             json.dumps(row["params"], sort_keys=True), row["ratio"]]
            for row in sorted(samples, key=lambda r: r["seed"])]
    results = {"max_ratio": report.max_ratio,
               "median_ratio": report.median_ratio,
               "violations": violations,
               "suite_params": report.params}
    return ["estimate_id", "seed", "params", "ratio"], rows, results


# ---------------------------------------------------------------- norms

def _run_norms(p: dict, threads, states_path: str):
    input_path, b, s1, s2 = p["input_path"], p["b"], p["s1"], p["s2"]
    try:
        grid, times, dt, blocks = states.read(input_path)
        check_steps(times.size)
        form = band_form(grid, times.size, blocks())
    except OSError as exc:
        raise ConfigError(f"cannot read input_path {input_path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"input_path {input_path!r}: {exc}") from exc
    # the final state's norm first, so that the form can go once it is
    # transformed: the three time-dependent norms read only its power
    last = ModeForm(grid, form.cols, form.colw, form.values[-1:]).expand()
    sobolev_final = sobolev_norm(SpectralField(grid, last.reshape(grid.nx, grid.ny)),
                                 s1, s2)
    del last
    power = WindowedPower.of_modes(form, dt)
    del form

    row = [b, s1, s2, sobolev_final,
           power.spacetime(b, s1, s2), power.bourgain(b, s1, s2), power.gap(b, s1, s2)]
    p["n_times"], p["dt"] = times.size, dt
    results = {"sobolev_final": row[3], "spacetime": row[4],
               "bourgain": row[5], "equivalence_gap": row[6]}
    header = ["b", "s1", "s2", "sobolev_final", "spacetime", "bourgain",
              "equivalence_gap"]
    return header, [row], results


# subcommand -> (help text, runner, config fields in check order).  A field
# is (name, kind) when required and (name, kind, default) when optional.
# runner(parameters, threads, states_path) returns the CSV header, the rows
# and the results; the parameters are the fields ``_read`` returns, to which
# it adds only derived entries, and they become the manifest's parameters.
_COMMANDS = {
    "solve": ("Picard/ETD time integration of the Duhamel problem", _run_solve, (
        ("nx", int), ("ny", int), ("Lx", float), ("Ly", float), ("T", float),
        ("M", int), ("tol", float), ("max_iter", int), ("integrator", str, "picard"),
        ("save_states", bool, False), ("phi_spec", dict))),
    "illposed": ("second-iterate norm growth sweep", _run_illposed, (
        ("s", float), ("eps0", float), ("cells", int), ("samples", int),
        ("seed", int, 0), ("N_list", list))),
    "verify": ("randomized estimate ratio suites", _run_verify, (
        ("estimate_id", str), ("suite_size", int), ("seed", int), ("params", dict, {}))),
    "norms": ("norms of a saved trajectory", _run_norms, (
        ("input_path", str), ("b", float), ("s1", float), ("s2", float))),
}


def _read(cfg: dict, command: str) -> dict:
    """The fields of ``command`` in ``cfg``, typed, with the defaults filled
    in.  ``command`` is checked first, then the unknown keys, then each
    field in table order."""
    if "command" not in cfg:
        raise ConfigError("config field 'command' is required")
    given = _typed("config field 'command'", cfg["command"], str)
    if given != command:
        raise ConfigError(
            f"config field 'command' is '{given}' but the "
            f"'{command}' subcommand was invoked")
    fields = _COMMANDS[command][2]
    _check_keys(cfg, frozenset(["command", *(field[0] for field in fields)]))
    read = {}
    for name, kind, *default in fields:
        if name in cfg:
            read[name] = _typed(f"config field '{name}'", cfg[name], kind)
        elif default:
            read[name] = copy.copy(default[0])  # verify's params: a fresh {}
        else:
            raise ConfigError(f"config field '{name}' is required")
    return read


def run(command: str, config_path: str, out_dir: str,
        threads: int | None = None) -> None:
    """Execute one subcommand; raises ConfigError / NumericalFailure, or
    OSError if the outputs cannot be written.

    ``threads`` is the illposed sweep's worker count (None: every CPU).
    """
    cfg = _load_config(config_path)
    parameters = _read(cfg, command)
    runner = _COMMANDS[command][1]
    states_path = _staging_path(out_dir)  # solve --save_states writes here
    try:
        try:
            header, rows, results = runner(parameters, threads, states_path)
        except ValueError as exc:  # a library precondition the config broke
            raise ConfigError(str(exc)) from exc
        except MemoryError as exc:
            raise ConfigError(
                f"the run needs more memory than this machine has: {exc}") from exc
        except OverflowError as exc:
            raise NumericalFailure(f"a value overflowed the float range: {exc}") from exc
        manifest = _manifest(cfg, command, parameters, results)
        _write_outputs(out_dir, command, header, rows, manifest, states_path)
    finally:  # a failed run leaves no states file behind
        with contextlib.suppress(FileNotFoundError):
            os.remove(states_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kpblab",
        description=f"KPB-II spectral laboratory: {', '.join(_COMMANDS)}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _, _) in _COMMANDS.items():
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
    except OSError as exc:
        print(f"config error: cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
