"""Shared test helpers."""

import sys
import tracemalloc

import numpy as np
import pytest

import kpblab.norms as norms_module


@pytest.fixture
def alloc_peak():
    """``measure(fn, *args, **kwargs) -> (result, peak)``: call ``fn`` and
    return its result with the peak bytes allocated during the call above
    what was allocated before it, as tracemalloc counts them (numpy reports
    its array buffers to tracemalloc)."""

    def measure(fn, *args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        return result, peak

    return measure


@pytest.fixture
def fft_columns(monkeypatch):
    """The column count of every np.fft.fft call made by kpblab.norms on
    columns of time samples, recorded while it runs (the solver's band
    product calls it too).  The 1-D transform that builds a Rader table
    on a prime length's first use (``norms._rader_plan``) is not one."""
    calls = []
    fft = np.fft.fft

    def counted(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == norms_module.__name__ and a.ndim == 2:
            calls.append(a.shape[1])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(norms_module.np.fft, "fft", counted)
    return calls
