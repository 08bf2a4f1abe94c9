"""Golden CLI outputs: a fixed config set and the SHA-256 of every file the
CLI writes for it.

Run from the root of a checkout to (re)write the record::

    PYTHONPATH=src python tests/golden_record.py [--keep DIR]

With ``--keep DIR`` the run also leaves every output (and each case's
config) under DIR, one directory per case, so two trees' outputs can be
compared value by value; without it only the hashes are kept.  To compare
two such directories, say of the parent commit and of a change, without
running anything or writing the record::

    python tests/golden_record.py --compare OLD NEW

prints each file whose bytes differ and the largest relative move,
|new - old| / |old|, over its numbers: the cells of a CSV and the numbers
of a JSON manifest.  A changed text value, a changed layout or a file of
another format reads "not numeric"; a file in one directory only is
named as such.

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
import csv
import filecmp
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


def _values(path: str) -> list | None:
    """The values of an output file in order, numbers as floats: the cells
    of a CSV, or the leaves of a JSON document with their keys; None for
    a file of another format."""
    def number(text):
        try:
            return float(text)
        except ValueError:
            return text

    def leaves(doc, where=()):
        if isinstance(doc, dict):
            return [leaf for key in sorted(doc) for leaf in leaves(doc[key], where + (key,))]
        if isinstance(doc, list):
            return [leaf for item in doc for leaf in leaves(item, where)]
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            return [where, float(doc)]
        return [where, doc]

    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            return [number(cell) for row in csv.reader(fh) for cell in row]
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return leaves(json.load(fh))
    return None


def largest_move(old_path: str, new_path: str) -> float:
    """The largest |new - old| / |old| over the paired numbers of two
    output files, 0.0 when none moved, and inf when they differ in
    anything else (a text value, the layout, or a format without
    numbers)."""
    old, new = _values(old_path), _values(new_path)
    if old is None or new is None or len(old) != len(new):
        return math.inf
    move = 0.0
    for a, b in zip(old, new):
        if a == b or repr(a) == repr(b):  # repr: a NaN is not equal to itself
            continue
        if not (isinstance(a, float) and isinstance(b, float)) or a == 0.0:
            return math.inf
        rel = abs(b - a) / abs(a)
        if math.isnan(rel):  # a NaN or an infinity on one side
            return math.inf
        move = max(move, rel)
    return move


def compare(old_root: str, new_root: str) -> list[str]:
    """A line for each file under ``old_root`` or ``new_root`` whose bytes
    differ between the two (``largest_move``), or that only one holds."""
    def files(root):
        return {os.path.relpath(os.path.join(top, name), root)
                for top, _, names in os.walk(root) for name in names}

    old, new = files(old_root), files(new_root)
    lines = []
    for path in sorted(old | new):
        if path not in new or path not in old:
            lines.append(f"{path}: only in {old_root if path in old else new_root}")
            continue
        paths = (os.path.join(old_root, path), os.path.join(new_root, path))
        if not filecmp.cmp(*paths, shallow=False):
            move = largest_move(*paths)
            lines.append(f"{path}: " + ("not numeric" if math.isinf(move) else
                                        f"largest relative move {move:.2e}"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden record.")
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--keep", metavar="DIR",
                      help="also write the outputs to DIR (made if missing)")
    runs.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="compare two --keep directories and exit")
    args = parser.parse_args(argv)
    if args.compare is not None:
        lines = compare(*args.compare)
        print("\n".join(lines + [f"{len(lines)} files differ"]))
        return 0
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
