"""Workloads of the kpblab benchmark: config generators and output checks.

One iteration of a workload is a fixed list of ``kpblab`` commands.  The
configs come from the workload seed only; the program never sees the seed
except where a config field carries it.  Seed 0 is the default seed: its
outputs are compared number by number against ``reference.json``.  Every
seed is checked against the invariants the test suite asserts.

Stdlib only, so the parent process never imports numpy.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

DEFAULT_SEED = 0
# The frozen-anchor tolerance, applied as pytest.approx(rel=1e-9) does:
# relative 1e-9 with an absolute floor of 1e-12.
REL_TOL = 1e-9
ABS_TOL = 1e-12
L2_GROWTH_TOL = 1e-8
MAX_CHI_RATIO = 100.0

# cells = 64 is the CLI minimum.  Each (n_eta, cells, cells) complex
# temporary of _window_density is 64**3 * 16 B = 4.2 MB, twice the 2 MiB
# per-core L2 of the reference machine, so the quadrature runs in its
# memory-bound regime while one sweep still fits a run several times.
ILLPOSED_CELLS = 64
ILLPOSED_THREADS = 2

_DATUM = {"type": "gaussian", "amplitude": 0.05, "widths": [0.7, 0.7]}
_SOLVE_BASE = {"command": "solve", "nx": 256, "ny": 256,
               "Lx": math.pi, "Ly": math.pi, "T": 0.1,
               "tol": 1e-10, "max_iter": 25, "phi_spec": _DATUM}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def illposed_sweep(seed: int, out_dir: str) -> list[tuple[str, dict, int | None]]:
    """One ``kpblab illposed`` sweep over four octave-spaced N.

    Non-default seeds scale the N ladder by a factor in [1, 1.5); the
    quadrature cost depends on ``cells`` only, so the work does not change.
    """
    scale = 1.0
    if seed != DEFAULT_SEED:
        scale = 1.0 + 0.5 * _rng("illposed_sweep", seed).random()
    cfg = {"command": "illposed", "s": -0.7, "eps0": 0.01,
           "cells": ILLPOSED_CELLS, "samples": 10000, "seed": seed,
           "N_list": [round(N * scale) for N in (16, 32, 64, 128)]}
    return [("illposed", cfg, ILLPOSED_THREADS)]


def solve_norms(seed: int, out_dir: str) -> list[tuple[str, dict, int | None]]:
    """Picard solve (saving states), ETD solve, and norms of the Picard states.

    The datum is fixed, so the Picard iteration count and the work do not
    depend on the seed; non-default seeds draw the norm exponents.
    """
    b, s1, s2 = 0.5, -0.3, 0.2
    if seed != DEFAULT_SEED:
        rng = _rng("solve_norms", seed)
        b = round(rng.uniform(0.25, 0.5), 6)
        s1 = round(rng.uniform(-0.4, -0.1), 6)
        s2 = round(rng.uniform(0.0, 0.3), 6)
    picard = dict(_SOLVE_BASE, M=32, integrator="picard", save_states=True)
    etd = dict(_SOLVE_BASE, M=128, integrator="etd")
    norms = {"command": "norms", "b": b, "s1": s1, "s2": s2,
             "input_path": os.path.join(out_dir, "picard", "states.npz")}
    return [("picard", picard, None), ("etd", etd, None), ("norms", norms, None)]


def verify_suites(seed: int, out_dir: str) -> list[tuple[str, dict, int | None]]:
    """The free, smoothing and bilinear suites at refine=2, seeded by the workload seed."""
    return [(estimate_id, {"command": "verify", "estimate_id": estimate_id,
                           "suite_size": size, "seed": seed,
                           "params": {"refine": 2}}, None)
            for estimate_id, size in (("free", 12), ("smoothing", 10),
                                      ("bilinear", 8))]


WORKLOADS = {
    "illposed_sweep": illposed_sweep,
    "solve_norms": solve_norms,
    "verify_suites": verify_suites,
}


# ---------------------------------------------------------------- outputs

def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_outputs(step_dir: str, command: str) -> dict:
    """The CSV rows (numbers parsed) and the manifest of one command."""
    with open(os.path.join(step_dir, f"{command}.csv"), newline="",
              encoding="utf-8") as fh:
        rows = [{k: _number(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]
    with open(os.path.join(step_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return {"csv": rows, "manifest": manifest}


def _compare(ref, got, path: str, errors: list[str]) -> None:
    """Every number in ``ref`` must be matched in ``got``; other leaves are skipped."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            errors.append(f"{path}: expected an object")
            return
        for key, value in ref.items():
            if key not in got:
                errors.append(f"{path}.{key}: missing")
            else:
                _compare(value, got[key], f"{path}.{key}", errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, f"{path}[{i}]", errors)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
              and math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL))
        if not ok:
            errors.append(f"{path}: {got!r} != reference {ref!r}")


def _invariants(command: str, out: dict) -> list[str]:
    errors = []
    results = out["manifest"].get("results", {})
    if command == "solve":
        if results.get("integrator") == "picard" and results.get("converged") is not True:
            errors.append("Picard did not converge")
        l2 = [row["l2"] for row in out["csv"]]
        if not all(b <= a * (1.0 + L2_GROWTH_TOL) for a, b in zip(l2, l2[1:])):
            errors.append("l2 column increases by more than 1e-8")
    elif command == "verify":
        if results.get("violations") != 0:
            errors.append(f"{results.get('violations')} verify violations")
    elif command == "illposed":
        worst = max(row["max_chi_ratio"] for row in out["csv"])
        if not worst <= MAX_CHI_RATIO:
            errors.append(f"max_chi_ratio {worst} > {MAX_CHI_RATIO}")
        slope = results.get("slope")
        if not (isinstance(slope, float) and math.isfinite(slope)):
            errors.append(f"illposed slope {slope!r} is not finite")
    return errors


def check_step(label: str, command: str, step_dir: str,
               reference: dict | None) -> list[str]:
    """Errors in one command's outputs: invariants always, reference if given."""
    try:
        out = read_outputs(step_dir, command)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{label}: unreadable outputs: {exc}"]
    try:
        errors = _invariants(command, out)
    except (KeyError, TypeError, ValueError) as exc:
        errors = [f"malformed outputs: {exc!r}"]
    if reference is not None:
        _compare(reference, out, "", errors)
    return [f"{label}: {e}" for e in errors]
