"""Span recording around calls into kpblab, installed from outside the package.

Each wrapper goes on the name through which callers look the function up:
``cli``, ``solver``, ``norms`` and ``verify`` bind their imports with
``from .x import y``, so ``kpblab.cli.second_iterate_norm`` is wrapped, not
``kpblab.illposedness.second_iterate_norm``.  Nothing in ``src/`` changes;
``tracing`` restores every original name on exit.  A name a later version
of the package no longer has is skipped, and its metrics read 0.

Spans are kept in memory (name, start, end, parent, thread, counters).  The
recorder is safe to call from the ``illposed`` worker threads: each thread
has its own span stack, and tasks submitted to the CLI's thread pool take
the pool span as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class Recorder:
    """Collects spans; ``spans`` is a list of dicts, appended as spans end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **counters):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = next(self._ids)
        record = {"id": span_id, "name": name, "parent": parent,
                  "thread": threading.get_ident(), "start": time.perf_counter(),
                  "end": None, "counters": counters}
        stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)


# Counters computed from call arguments (array sizes, not measurements).
def _quadrature_counters(N, s, eps0, cells, *args, **kwargs):
    return {"nodes": cells ** 4, "row_bytes": 16 * cells ** 3}


def _etd_counters(phi, T, M, *args, **kwargs):
    return {"steps": M}


def _nonlin_counters(coeffs, *args, **kwargs):
    return {"modes": coeffs.size}


def _transform_counters(traj, *args, **kwargs):
    return {"bytes": traj.coeffs.nbytes}


# (module, attribute, span name, counters from the call arguments)
WRAPS = [
    ("kpblab.cli", "main", "cli.main", None),
    ("kpblab.cli", "second_iterate_norm", "illposedness.second_iterate_norm",
     _quadrature_counters),
    ("kpblab.cli", "chi_bound_check", "illposedness.chi_bound_check", None),
    ("kpblab.cli", "solve_picard", "solver.solve_picard", None),
    ("kpblab.solver", "picard_step", "solver.picard_step", None),
    ("kpblab.solver", "_w_factors", "solver._w_factors", None),
    ("kpblab.cli", "solve_etd", "solver.solve_etd", _etd_counters),
    ("kpblab.solver", "_nonlin", "solver._nonlin", _nonlin_counters),
    ("kpblab.cli", "l2_history", "solver.l2_history", None),
    ("kpblab.solver", "dispersion_values", "spectral_core.dispersion_values", None),
    ("kpblab.norms", "dispersion_values", "spectral_core.dispersion_values", None),
    ("kpblab.semigroup", "dispersion_values", "spectral_core.dispersion_values", None),
    ("kpblab.verify", "semigroup_table", "semigroup.semigroup_table", None),
    ("kpblab.cli", "run_suite", "verify.run_suite", None),
    ("kpblab.verify", "free_trajectory", "verify.free_trajectory", None),
    ("kpblab.verify", "bilinear_ratio", "verify.bilinear_ratio", None),
    ("kpblab.verify", "smoothing_ratio", "verify.smoothing_ratio", None),
    ("kpblab.norms", "windowed_time_transform", "norms.windowed_time_transform",
     _transform_counters),
    ("kpblab.cli", "sobolev_norm", "norms.sobolev_norm", None),
    ("kpblab.verify", "sobolev_norm", "norms.sobolev_norm", None),
    ("kpblab.cli", "spacetime_norm", "norms.spacetime_norm", None),
    ("kpblab.cli", "bourgain_norm", "norms.bourgain_norm", None),
    ("kpblab.verify", "bourgain_norm", "norms.bourgain_norm", None),
    ("kpblab.cli", "equivalence_gap", "norms.equivalence_gap", None),
]


def _wrap(recorder: Recorder, fn, name: str, counters_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        counters = {}
        if counters_of is not None:
            try:
                counters = counters_of(*args, **kwargs)
            except (TypeError, AttributeError):
                counters = {}
        with recorder.span(name, **counters):
            return fn(*args, **kwargs)
    return traced


def _traced_pool(recorder: Recorder, base):
    class TracedPool(base):
        """The CLI's thread pool: one span for the pool, one per task."""

        def __enter__(self):
            self._span = recorder.span("cli.illposed.pool",
                                       threads=self._max_workers)
            self._span.__enter__()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                self._span.__exit__(None, None, None)

        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()

            def task(*a, **k):
                with recorder.span("cli.illposed.task", parent=parent):
                    return fn(*a, **k)
            return super().submit(task, *args, **kwargs)
    return TracedPool


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, counters_of in WRAPS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, _wrap(recorder, fn, name, counters_of))
        cli = importlib.import_module("kpblab.cli")
        pool = getattr(cli, "ThreadPoolExecutor", None)
        if isinstance(pool, type) and issubclass(pool, ThreadPoolExecutor):
            saved.append((cli, "ThreadPoolExecutor", pool))
            cli.ThreadPoolExecutor = _traced_pool(recorder, pool)
        yield recorder
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------- analysis

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap across threads)."""
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children[s["id"]]]
        covered = _covered([(lo, hi) for lo, hi in clipped if hi > lo])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, self_s, total_s, and summed / max counters."""
    selfs = self_times(spans)
    agg: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                 "total_s": 0.0, "counters": {},
                                                 "max": {}})
    for s in spans:
        a = agg[s["name"]]
        a["calls"] += 1
        a["self_s"] += selfs[s["id"]]
        a["total_s"] += s["end"] - s["start"]
        for key, value in s["counters"].items():
            a["counters"][key] = a["counters"].get(key, 0) + value
            a["max"][key] = max(a["max"].get(key, 0), value)
    return agg
