"""Golden CLI outputs: a fixed config set and the SHA-256 of every file the
CLI writes for it.

Run from the root of a checkout to (re)write the record::

    PYTHONPATH=src python tests/golden_record.py [--keep DIR]

With ``--keep DIR`` the run also leaves every output (and each case's
config) under DIR, one directory per case, so two trees' outputs can be
compared value by value; without it only the hashes are kept.

``tests/test_golden.py`` runs the same configs and compares the hashes with
``tests/golden_outputs.json``.  A change that moves output bytes on purpose
regenerates the record with this script in the same commit, and lists each
moved value and its largest relative move.  Before it rewrites the record,
the script prints each output whose hash moved, appeared or disappeared
against the record it replaces.

The set covers the three criterion-10 configs, the free verify suite at
refine 2, a Picard and an ETD solve that save their states, ``kpblab
norms`` on both saved states, the bilinear verify suite at refine 1 (the
whole-grid product) and refine 2 (the band-grid product), and the
smoothing verify suite.  Every command runs with the working directory
at the run's root and relative paths, so the norms manifests, which
record ``input_path``, do not depend on where the run happens.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")

_SOLVE = {"command": "solve", "nx": 32, "ny": 32, "Lx": math.pi, "Ly": math.pi,
          "T": 0.1, "M": 20, "tol": 1e-10, "max_iter": 25,
          "phi_spec": {"type": "gaussian", "amplitude": 0.05, "widths": [0.7, 0.7]}}
_NORMS = {"command": "norms", "b": 0.5, "s1": -0.3, "s2": 0.2}
_BILINEAR = {"command": "verify", "estimate_id": "bilinear", "suite_size": 4,
             "seed": 7}

# (output directory, config); each runs with --threads 2, in this order
CASES = [
    ("solve", _SOLVE),
    ("illposed", {"command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
                  "samples": 10000, "seed": 0, "N_list": [8, 10, 12, 14]}),
    ("verify", {"command": "verify", "estimate_id": "free", "suite_size": 4,
                "seed": 7}),
    ("verify_free_refine2", {"command": "verify", "estimate_id": "free",
                             "suite_size": 4, "seed": 7, "params": {"refine": 2}}),
    ("solve_picard_states", {**_SOLVE, "save_states": True}),
    ("solve_etd_states", {**_SOLVE, "integrator": "etd", "save_states": True}),
    ("norms_picard", {**_NORMS, "input_path": "solve_picard_states/states.npz"}),
    ("norms_etd", {**_NORMS, "input_path": "solve_etd_states/states.npz"}),
    ("verify_bilinear_refine1", {**_BILINEAR, "params": {"refine": 1}}),
    ("verify_bilinear_refine2", {**_BILINEAR, "params": {"refine": 2}}),
    ("verify_smoothing", {"command": "verify", "estimate_id": "smoothing",
                          "suite_size": 4, "seed": 7}),
]


def environment() -> dict:
    """numpy's version and FFT backend: other builds may round differently."""
    backend = np.fft.fft.__module__
    if backend == "numpy.fft" and hasattr(np.fft, "_pocketfft_umath"):
        backend = "pocketfft (numpy.fft._pocketfft_umath)"
    return {"numpy": np.__version__, "fft_backend": backend}


def run_cases(root: str) -> dict:
    """Run every case under ``root`` (made the working directory meanwhile)
    and return {relative output path: SHA-256 hex digest}."""
    from kpblab.cli import main

    here = os.getcwd()
    os.chdir(root)
    try:
        for name, cfg in CASES:
            with open(f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            rc = main([cfg["command"], "--config", f"{name}.json", "--out", name,
                       "--threads", "2"])
            if rc != 0:
                raise RuntimeError(f"golden case {name} exited {rc}")
        hashes = {}
        for name, _ in CASES:
            for file in sorted(os.listdir(name)):
                with open(os.path.join(name, file), "rb") as fh:
                    hashes[f"{name}/{file}"] = hashlib.sha256(fh.read()).hexdigest()
        return hashes
    finally:
        os.chdir(here)


def moved(recorded: dict, hashes: dict) -> list:
    """The sorted output paths whose hash differs between two
    {path: hash} records, a path in only one of them included."""
    return sorted(path for path in set(recorded) | set(hashes)
                  if recorded.get(path) != hashes.get(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden record.")
    parser.add_argument("--keep", metavar="DIR",
                        help="also write the outputs to DIR (made if missing)")
    args = parser.parse_args(argv)
    if args.keep is not None:
        os.makedirs(args.keep, exist_ok=True)
        if os.listdir(args.keep):
            parser.error(f"--keep {args.keep}: the directory is not empty")
    with tempfile.TemporaryDirectory() as scratch:
        record = {**environment(), "outputs": run_cases(args.keep or scratch)}
    previous = {}
    if os.path.exists(RECORD):
        with open(RECORD, encoding="utf-8") as fh:
            previous = json.load(fh)["outputs"]
    changes = moved(previous, record["outputs"])
    for path in changes:
        state = ("appeared" if path not in previous else
                 "disappeared" if path not in record["outputs"] else "moved")
        print(f"{state}: {path}")
    print(f"{len(changes)} of {len(record['outputs'])} outputs moved, appeared "
          "or disappeared against the record")
    with open(RECORD, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(record['outputs'])} hashes to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
