"""Steal time: how long the hypervisor kept this machine's vCPUs from running.

The reference machine is a 2-vCPU guest on a shared host.  When the host
is busy it holds the guest's vCPUs back, and a fixed unit of work then
takes up to 2.5 times as long in wall time, while its CPU time moves far
less.  The kernel counts the held-back time in the ``steal`` column of
``/proc/stat``.  The benchmark reads it before and after each timed piece
of work and takes it out of the wall time (``unstolen``).

Stdlib only; reads ``/proc/stat`` and writes nothing.
"""

from __future__ import annotations

import os

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def stolen_seconds() -> float:
    """Steal time summed over all CPUs since boot; 0.0 where it is not reported."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / _TICKS_PER_S
    except (OSError, IndexError, ValueError):
        return 0.0


def unstolen(wall: float, cpu: float, stolen: float, threads: int) -> float:
    """Wall seconds less the steal that fell on the work's ``threads`` threads.

    Steal on all CPUs is shared evenly among the work's threads.  It can
    only explain time the work was off the CPU, so the result is never
    below ``cpu / threads``.
    """
    return max(wall - stolen / threads, cpu / threads)
