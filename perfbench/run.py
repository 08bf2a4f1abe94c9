"""kpblab benchmark: one workload, one fresh child interpreter, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload illposed_sweep --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json`` (``setup_s``, ``wall_s``, ``cpu_s``, ``peak_rss_mb``),
measured with no wrapper installed.  ``setup_s`` and ``wall_s`` leave out
the time the hypervisor held the vCPUs back (``steal.py``), and all three
are scaled to the host's reference speed (``speed.py``); the raw medians
are printed too.  With ``--trace 1`` it holds the
per-layer metrics from a traced run.  Human-readable lines (sample counts,
error rate, environment stamp) come first; the last line of standard output
is the JSON result.  Everything the run writes goes under ``.perfbench_out/``
in the checkout.  Exit code 2 when the checkout has no ``src/kpblab``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import steal
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run, set-up probes included


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _caches() -> dict[str, str]:
    """Per-core cache sizes of cpu0 by level, e.g. {'L2': '2048K'}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        path = os.path.join(base, index)
        if _read(os.path.join(path, "type")) in ("Unified", "Data"):
            out["L" + _read(os.path.join(path, "level"))] = _read(os.path.join(path, "size"))
    return out


# Runs in a fresh interpreter: the import being timed comes first.
_SETUP_PROBE = f"""
import kpblab.cli, time
imported, cpu = time.monotonic(), time.process_time()
import sys
sys.path.insert(0, {HERE!r})
import steal
print(repr(imported), repr(cpu), repr(steal.stolen_seconds()))
"""


def setup_seconds(env: dict) -> tuple[float, float, float]:
    """Seconds from launching a fresh interpreter until ``import kpblab.cli``
    returns: (wall, CPU of the interpreter, steal on all CPUs)."""
    stolen0 = steal.stolen_seconds()
    launched = time.monotonic()
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=60)
    imported, cpu, stolen1 = map(float, done.stdout.strip().splitlines()[-1].split())
    return imported - launched, cpu, stolen1 - stolen0


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"none (n={n} < 11)"
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return f"p{p} {sorted(values)[rank - 1]:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kpblab", "cli.py")):
        print(f"no kpblab sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    out_root = os.path.join(ROOT, ".perfbench_out")
    tmp = os.path.join(out_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Only the checkout's sources; one BLAS thread, so the illposed pool's
    # two threads are the only parallelism (the machine has nproc = 2).
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=tmp, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    load_start = _read("/proc/loadavg")

    setup = []
    if not args.trace:
        # The median absorbs the first probe of a fresh checkout, which also
        # writes the bytecode caches.
        setup = [setup_seconds(env) for _ in range(SETUP_PROBES)]

    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_root]
    try:
        child = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("benchmark child exceeded the deadline", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"benchmark child exited {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])

    stamp = dict(result["environment"], nproc=os.cpu_count(),
                 affinity=len(os.sched_getaffinity(0)), cpu_model=_cpu_model(),
                 caches=_caches(), loadavg_start=load_start,
                 loadavg_end=_read("/proc/loadavg"),
                 illposedness_row_bytes_computed=16 * workloads.ILLPOSED_CELLS ** 3)
    threads, factor = result["threads"], result["speed"]
    unstolen = {
        "setup_s": [steal.unstolen(w, c, st, 1) for w, c, st in setup],
        "wall_s": [steal.unstolen(w, c, st, threads) for w, c, st in
                   zip(result["wall_s"], result["cpu_s"], result["stolen_s"])],
        "cpu_s": result["cpu_s"],
    }
    samples = {name: [t * factor for t in times]
               for name, times in unstolen.items()}
    raw_wall = {"setup_s": [w for w, _, _ in setup], "wall_s": result["wall_s"]}
    attempted, failed = result["attempted"], result["failed"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(stamp, sort_keys=True))
    for error in result["errors"]:
        print(f"check failed: {error}")
    metrics = {}
    if args.trace:
        print(f"traced rounds {result['rounds']} (one iteration of every workload each)")
    for m in declared:
        name = m["name"]
        if args.trace:
            value, note = result["layers"][name], "median over rounds"
        elif name == "peak_rss_mb":
            value, note = result["peak_rss_kib"] * 1024 / 1e6, "n=1"
        else:
            value, note = statistics.median(samples[name]), f"n={len(samples[name])}"
            if name != "setup_s":
                note += f"; {high_percentile(samples[name])}"
            note += f"; x{factor:.4g} to reference speed"
            if name in raw_wall:
                note += (f"; steal left out; raw wall median "
                         f"{statistics.median(raw_wall[name]):.6g} s")
            else:
                note += f"; raw median {statistics.median(unstolen[name]):.6g} s"
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"{name:<44} {value:.6g} {m['unit']}  ({note})")
    print(f"error_rate   {failed}/{attempted} = {failed / attempted:g}  "
          "(failed iterations / attempted, warm-up included)")

    with open(os.path.join(out_root, args.workload, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": stamp,
                   "samples": samples, "unstolen": unstolen, "raw_wall": raw_wall,
                   "speed": factor, "unit_cpu_s": result["unit_cpu_s"],
                   "stolen_s": {"setup_s": [st for _, _, st in setup],
                                "wall_s": result["stolen_s"]},
                   "metrics": metrics,
                   "attempted": attempted, "failed": failed,
                   "errors": result["errors"]}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
