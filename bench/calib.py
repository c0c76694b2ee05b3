"""Frozen host-speed calibration kernel.

Times a fixed amount of work that does not depend on dimest and is made of
the kinds of work the benchmark's steps do: a pure-Python float recurrence
stored element by element into a numpy array (interpreter speed, as in an
orbit generator), ``repr`` and ``float`` over the stored values (string
formatting and parsing, as in CSV I/O) and a numpy ``unique`` over a fixed
integer array larger than a core's L2 cache (sort and memory speed, as in
occupancy counting).

The benchmark runs a pass right before and right after every timed step, in
the process that runs the step, and reports each step time scaled to a host
on which one pass takes ``REFERENCE_S``. The host of a shared machine runs
fast and slow spells of tens of seconds that move both the step and the
kernel, so the scaled times spread far less than the wall times.

Keep this file unchanged: scaled times are comparable across commits only
while the work the kernel does is the same.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 200_000
FORMATTED = 40_000
KEYS = 1_000_000
REFERENCE_S = 0.1  # seconds per pass on the reference host


def make_keys() -> np.ndarray:
    """The fixed input of the numpy part of the kernel."""
    return np.random.default_rng(20241007).integers(0, 1 << 20, size=KEYS)


def run_kernel(keys: np.ndarray) -> float:
    """Wall seconds taken by one pass of the kernel over ``keys``."""
    start = time.perf_counter()
    orbit = np.empty(ITERATIONS)
    x, y = 0.0, 0.0
    for i in range(ITERATIONS):
        x, y = 1.0 - 1.4 * x * x + y, 0.3 * x
        orbit[i] = x
    text = "\n".join(repr(float(v)) for v in orbit[:FORMATTED])
    parsed = [float(field) for field in text.split("\n")]
    uniq, counts = np.unique(keys, return_counts=True)
    elapsed = time.perf_counter() - start
    if parsed != orbit[:FORMATTED].tolist() or int(counts.sum()) != keys.size or uniq.size == 0:
        raise RuntimeError("calibration kernel produced an impossible result")
    return elapsed


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` on the reference host, from the passes just before and after it."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2.0)
