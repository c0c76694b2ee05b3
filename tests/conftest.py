"""Shared fixtures: the benchmark clouds and their count/entropy series.

Session scoped because the large clouds (10^6 points) are reused by many
tests; every generator here is fully deterministic, so fixture reuse cannot
couple tests.
"""

from __future__ import annotations

import os
import sys
import threading

# Before anything imports dimest: a test run leaves no __pycache__ in src/,
# which would speed up the next benchmark of the same checkout.
sys.dont_write_bytecode = True

import numpy as np
import pytest

import dimest.boxcount
from dimest import (
    HenonParams,
    PointCloud,
    ScaleSchedule,
    cantor_points,
    count_series,
    entropy_series,
    henon_orbit,
    ifs_chaos_game,
    sierpinski_spec,
    uniform_segment,
    uniform_square,
)

CANTOR_LEVEL = 12


def make_series(cloud: PointCloud, schedule: ScaleSchedule, anchor=None):
    """Count and entropy series off one shared occupancy pass."""
    return count_series(cloud, schedule, anchor), entropy_series(cloud, schedule, anchor)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or zombie."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    # (0, 0) for a child still running; a zombie's pid and status, now reaped.
    pytest.fail(f"a child process outlived the test: waitpid gave {(pid, status)}")


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a thread running, naming the threads."""
    before = set(threading.enumerate())
    yield
    left = sorted(t.name for t in threading.enumerate() if t not in before)
    if left:
        pytest.fail(f"threads outlived the test: {', '.join(left)}")


@pytest.fixture
def box_indices_calls(monkeypatch):
    """Scale of every ``box_indices`` call occupancy counting makes, in order."""
    calls = []
    original = dimest.boxcount.box_indices

    def spy(grid, points):
        calls.append(grid.epsilon)
        return original(grid, points)

    monkeypatch.setattr(dimest.boxcount, "box_indices", spy)
    return calls


@pytest.fixture(scope="session")
def henon_cloud() -> PointCloud:
    # Canonical parameters, transient 1000, one million samples.
    return henon_orbit(HenonParams())


@pytest.fixture(scope="session")
def henon_schedule() -> ScaleSchedule:
    return ScaleSchedule.dyadic(3, 7)


@pytest.fixture(scope="session")
def henon_series(henon_cloud, henon_schedule):
    return make_series(henon_cloud, henon_schedule)


@pytest.fixture(scope="session")
def sierpinski_cloud() -> PointCloud:
    return ifs_chaos_game(sierpinski_spec(10**6, rng_seed=0, transient=64))


@pytest.fixture(scope="session")
def sierpinski_schedule() -> ScaleSchedule:
    return ScaleSchedule.dyadic(2, 7)


@pytest.fixture(scope="session")
def sierpinski_series(sierpinski_cloud, sierpinski_schedule):
    return make_series(sierpinski_cloud, sierpinski_schedule)


@pytest.fixture(scope="session")
def square_cloud() -> PointCloud:
    return uniform_square(2**20)


@pytest.fixture(scope="session")
def square_schedule() -> ScaleSchedule:
    return ScaleSchedule.dyadic(5, 9)


@pytest.fixture(scope="session")
def square_series(square_cloud, square_schedule):
    return make_series(square_cloud, square_schedule)


@pytest.fixture(scope="session")
def segment_cloud() -> PointCloud:
    return uniform_segment(10**5)


@pytest.fixture(scope="session")
def segment_schedule() -> ScaleSchedule:
    return ScaleSchedule.dyadic(6, 10)


@pytest.fixture(scope="session")
def segment_series(segment_cloud, segment_schedule):
    return make_series(segment_cloud, segment_schedule)


@pytest.fixture(scope="session")
def cantor_cloud() -> PointCloud:
    # Integer-lattice similarity copy: endpoints and ternary box sides are
    # exact doubles, so occupied counts are exactly 2**k.
    return cantor_points(CANTOR_LEVEL, scale=3**CANTOR_LEVEL)


@pytest.fixture(scope="session")
def cantor_schedule() -> ScaleSchedule:
    return ScaleSchedule.from_epsilons(
        [float(3 ** (CANTOR_LEVEL - k)) for k in range(1, 9)]
    )


@pytest.fixture(scope="session")
def cantor_series(cantor_cloud, cantor_schedule):
    return make_series(cantor_cloud, cantor_schedule, anchor=np.zeros(1))
