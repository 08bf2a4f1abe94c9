"""One benchmark run inside a fresh interpreter: drive ``kpblab.cli.main``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Generates the workload's configs from the seed, runs one warm-up
iteration, then times iterations for at most ``--seconds`` (always at least
one), checking every iteration's outputs.  Each iteration also records the
host's steal time during it (``steal.py``), and a unit of reference work
runs before the first iteration and after each one (``speed.py``).  With
``--trace 1`` it alternates one untraced iteration of the workload with
one traced round (one iteration of every workload, this one first), and
reports per-layer metrics as medians over rounds.  Prints one JSON line.

``--record`` instead runs one default-seed iteration of the workload and
writes its outputs into ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import speed
import steal
import workloads
from tracing import Recorder, aggregate, tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


class Iterations:
    """Runs iterations of one workload and tallies failures."""

    def __init__(self, kpblab_cli, workload: str, seed: int, out_root: str):
        self.cli = kpblab_cli
        self.workload = workload
        self.out_dir = os.path.join(out_root, workload)
        self.steps = workloads.WORKLOADS[workload](seed, self.out_dir)
        self.threads = max(threads or 1 for _, _, threads in self.steps)
        self.reference = None
        if seed == workloads.DEFAULT_SEED and os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as fh:
                self.reference = json.load(fh).get(workload)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        os.makedirs(self.out_dir, exist_ok=True)
        for label, cfg, _ in self.steps:
            with open(self._config(label), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2)

    def _config(self, label: str) -> str:
        return os.path.join(self.out_dir, f"{label}.json")

    def _step_dir(self, label: str) -> str:
        return os.path.join(self.out_dir, label)

    def run(self) -> tuple[float, float, float, int]:
        """One iteration; returns (wall s, process CPU s, stolen s, bytes written)."""
        for label, _, _ in self.steps:
            shutil.rmtree(self._step_dir(label), ignore_errors=True)
        errors = []
        stolen0 = steal.stolen_seconds()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for label, cfg, threads in self.steps:
            argv = [cfg["command"], "--config", self._config(label),
                    "--out", self._step_dir(label)]
            if threads is not None:
                argv += ["--threads", str(threads)]
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed iteration, not a stop
                traceback.print_exc()
                code = repr(exc)
            if code != 0:
                errors.append(f"{label}: exit {code}")
                break
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        stolen = steal.stolen_seconds() - stolen0

        written = 0
        if not errors:
            for label, cfg, _ in self.steps:
                step_dir = self._step_dir(label)
                ref = self.reference.get(label) if self.reference else None
                errors += workloads.check_step(label, cfg["command"], step_dir, ref)
                if os.path.isdir(step_dir):
                    written += sum(e.stat().st_size for e in os.scandir(step_dir))
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{self.workload}: {e}" for e in errors]
        return wall, cpu, stolen, written

    def record(self) -> dict:
        self.run()
        if self.failed:
            raise SystemExit("reference run failed: " + "; ".join(self.errors))
        return {label: workloads.read_outputs(self._step_dir(label), cfg["command"])
                for label, cfg, _ in self.steps}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], hits: int, misses: int,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (one iteration of every workload)."""
    agg = aggregate(spans)
    out: dict[str, float] = {}
    for name in ("illposedness.second_iterate_norm", "solver.picard_step",
                 "solver._w_factors", "solver._nonlin",
                 "spectral_core.dispersion_values", "semigroup.semigroup_table",
                 "norms.windowed_time_transform"):
        out[f"{name}.calls"] = agg[name]["calls"]
    for name in ("illposedness.second_iterate_norm", "illposedness.chi_bound_check",
                 "solver.picard_step", "solver._w_factors", "solver.solve_etd",
                 "solver._nonlin", "spectral_core.dispersion_values",
                 "semigroup.semigroup_table", "verify.free_trajectory",
                 "verify.bilinear_ratio", "verify.smoothing_ratio",
                 "norms.windowed_time_transform", "norms.bourgain_norm",
                 "norms.equivalence_gap"):
        out[f"{name}.self_s"] = agg[name]["self_s"]

    quad = agg["illposedness.second_iterate_norm"]
    out["illposedness.nodes_per_s"] = _rate(quad["counters"].get("nodes", 0),
                                            quad["self_s"])
    out["illposedness.row_bytes"] = quad["max"].get("row_bytes", 0)
    task = agg["cli.illposed.task"]
    busy = sum((s["end"] - s["start"]) * s["counters"].get("threads", 1)
               for s in spans if s["name"] == "cli.illposed.pool")
    out["cli.illposed.thread_efficiency"] = _rate(task["total_s"], busy)
    etd = agg["solver.solve_etd"]
    out["solver.etd.steps_per_s"] = _rate(etd["counters"].get("steps", 0),
                                          etd["total_s"])
    nonlin = agg["solver._nonlin"]
    out["solver._nonlin.modes_per_s"] = _rate(nonlin["counters"].get("modes", 0),
                                              nonlin["self_s"])
    out["semigroup.cache_hit_ratio"] = _rate(hits, hits + misses)
    out["norms.windowed_time_transform.bytes"] = \
        agg["norms.windowed_time_transform"]["counters"].get("bytes", 0)
    out["cli.self_s"] = agg["cli.main"]["self_s"]
    out["cli.bytes_written"] = bytes_written
    return out


def _cache_counts(semigroup) -> tuple[int, int]:
    factors = getattr(semigroup, "_factors", None)
    info = getattr(factors, "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


def environment() -> dict:
    import numpy
    import scipy
    backend = numpy.fft.fft.__module__
    if backend == "numpy.fft" and hasattr(numpy.fft, "_pocketfft_umath"):
        backend = "pocketfft (numpy.fft._pocketfft_umath)"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "fft_backend": backend}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    import kpblab
    import kpblab.cli
    import kpblab.semigroup
    src = os.path.join(os.path.dirname(HERE), "src")
    if os.path.commonpath([os.path.abspath(kpblab.__file__), src]) != src:
        print(f"kpblab imported from {kpblab.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    def make(name: str) -> Iterations:
        return Iterations(kpblab.cli, name, args.seed, args.out)

    if args.record:
        if args.seed != workloads.DEFAULT_SEED:
            parser.error("--record needs the default seed")
        reference = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as fh:
                reference = json.load(fh)
        reference[args.workload] = make(args.workload).record()
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    main_run = make(args.workload)
    runs = [main_run]
    if args.trace:
        runs += [make(w) for w in workloads.WORKLOADS if w != args.workload]
    for r in runs:  # warm-up: lazy imports, FFT plans, first-touch pages
        r.run()
    speed.unit_seconds()

    walls, cpus, stolens, traced_walls, rounds = [], [], [], [], []
    units = [speed.unit_seconds()]
    recorder = Recorder()
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        wall, cpu, stolen, _ = main_run.run()
        walls.append(wall)
        cpus.append(cpu)
        stolens.append(stolen)
        units.append(speed.unit_seconds())
        if args.trace:
            first = len(recorder.spans)
            hits0, misses0 = _cache_counts(kpblab.semigroup)
            written = 0
            with tracing(recorder):
                for r in runs:
                    wall, _, _, nbytes = r.run()
                    written += nbytes
                    if r is main_run:
                        traced_walls.append(wall)
            hits1, misses1 = _cache_counts(kpblab.semigroup)
            rounds.append(layer_metrics(recorder.spans[first:], hits1 - hits0,
                                        misses1 - misses0, written))
        # Stop before a further step of the same length would overrun.
        now = time.perf_counter()
        if now - start + (now - step_start) > args.seconds:
            break

    result = {
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "errors": [e for r in runs for e in r.errors][:20],
        "wall_s": walls, "cpu_s": cpus, "stolen_s": stolens,
        "unit_cpu_s": units, "speed": speed.factor(units),
        "threads": main_run.threads,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }
    if args.trace:
        layers = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        result["layers"] = layers
        result["rounds"] = len(rounds)
        with open(os.path.join(main_run.out_dir, "trace.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "rounds": rounds}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
