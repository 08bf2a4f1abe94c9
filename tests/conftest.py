"""Shared test helpers."""

import tracemalloc

import pytest


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
