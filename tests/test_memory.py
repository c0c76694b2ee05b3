"""Memory ledger: the traced peak of whole commands, as a multiple of the cloud.

Each row runs one ``dimest`` command in process through ``dimest.cli.run``
under tracemalloc and bounds its peak above the memory traced before it, as
a multiple of the bytes of the cloud it reads: a 2*10**5-point Henon orbit
(3.2 MB) or the 10**5-point Sierpinski cloud of the volume benchmark
(1.6 MB). The command reads the cloud's CSV, so the peak includes the cloud
itself and the reader's buffers.

tracemalloc sees numpy's buffers, the KD-tree's index array among them, but
not scipy's KD-tree nodes, which scipy allocates in C++, nor the malloc arena
of the thread that queries the tree. scipy is imported before tracing
starts, so its import is not counted either. One row therefore bounds the
peak resident memory of ``report --volume`` in a fresh interpreter
(``resource.getrusage``), above the peak of its imports.

Each bound is written beside the peak measured before explicit scales were
counted from chunked keys ("was") and after ("now"), on a 2-vCPU host with
numpy 2.4.6 and scipy 1.17.1. At 10 times the orbit and 5 times the
Sierpinski cloud every row read the same or a smaller multiple. The two
rows added with ``volume_estimates`` give the range over repeated runs of the
serial per-scale loop it replaced ("was") and of its own ("now").
"""

from __future__ import annotations

import gc
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import scipy.spatial  # noqa: F401  imported before tracing: not counted

import dimest
from dimest import (
    HenonParams,
    PointCloud,
    ScaleSchedule,
    count_series,
    entropy_series,
    henon_orbit,
    ifs_chaos_game,
    save_points_csv,
    sierpinski_spec,
    volume_estimate,
    volume_estimates,
)
from dimest.cli import run

EXPLICIT = "0.1,0.05,0.02,0.01,0.005"
VOLUME = "0.012,0.008,0.006,0.004"  # the volume benchmark's scales


def traced_peak(call) -> int:
    """Bytes traced at the peak of ``call()`` above those traced before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


@pytest.fixture(scope="module")
def clouds(tmp_path_factory):
    """The two clouds by name, each with the path of its CSV."""
    folder = tmp_path_factory.mktemp("ledger")
    made = {
        "orbit": henon_orbit(HenonParams(samples=2 * 10**5)),
        "sierpinski": ifs_chaos_game(sierpinski_spec(10**5, rng_seed=0)),
    }
    for name, cloud in made.items():
        save_points_csv(cloud, folder / f"{name}.csv")
    return {name: (cloud, folder / f"{name}.csv") for name, cloud in made.items()}


# (command, cloud, bound): peak / cloud bytes was -> now.
LEDGER = [
    (["count", "--epsilons", EXPLICIT], "orbit", 2.5),  # 3.54 -> 2.02
    (["report", "--epsilons", EXPLICIT], "orbit", 2.5),  # 3.54 -> 2.02
    (["report", "--volume", "--epsilons", VOLUME], "orbit", 4.5),  # 5.52 -> 3.77
    (["report", "--volume", "--epsilons", VOLUME], "sierpinski", 5.5),  # 9.44 -> 4.64
    (["report", "--kmin", "3", "--kmax", "7"], "orbit", 2.5),  # control: 2.01 -> 2.01
]


@pytest.mark.parametrize(
    "argv, name, bound",
    LEDGER,
    ids=["count-explicit", "report-explicit", "volume-orbit", "volume-sierpinski", "report-k3-7"],
)
def test_command_peak(tmp_path, clouds, argv, name, bound):
    cloud, path = clouds[name]
    out = ["--out" if argv[0] == "count" else "--json", str(tmp_path / "out")]
    codes = []
    peak = traced_peak(lambda: codes.append(run([*argv, "--in", str(path), *out])))
    assert codes == [0]
    assert peak < bound * cloud.points.nbytes


def test_volume_estimate_peak_after_the_tree(clouds):
    # The first call builds the cloud's KD-tree; the second is measured.
    cloud = clouds["sierpinski"][0]
    volume_estimate(cloud, 0.004)
    peak = traced_peak(lambda: volume_estimate(cloud, 0.004))
    assert peak < 4 * cloud.points.nbytes  # 7.42 -> 3.10


def test_explicit_scalar_pass_peak(clouds):
    # A fresh cloud holds no kept pass. 8n is the bytes of one int64 a point.
    cloud = PointCloud(clouds["orbit"][0].points)
    schedule = ScaleSchedule.from_epsilons([float(e) for e in EXPLICIT.split(",")])
    peak = traced_peak(lambda: (count_series(cloud, schedule), entropy_series(cloud, schedule)))
    assert peak < 2.5 * 8 * len(cloud)  # 5.04 -> 2.00


def test_volume_estimates_peak_on_a_fresh_cloud(clouds):
    # The four benchmark scales on a cloud with no tree yet: the first builds it.
    cloud = PointCloud(clouds["sierpinski"][0].points)
    scales = [float(e) for e in VOLUME.split(",")]
    peak = traced_peak(lambda: volume_estimates(cloud, scales))
    assert peak < 4.5 * cloud.points.nbytes  # 3.60 -> 3.61-3.66


# Runs report --volume and prints the peak RSS in KiB before and after it.
RSS_RUN = """
import resource, sys
import scipy.spatial
from dimest.cli import run
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
scales, cloud, out = sys.argv[1:]
code = run(["report", "--volume", "--epsilons", scales, "--in", cloud, "--json", out])
print(code, before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Starts a fresh interpreter with its arguments. Linux carries a process's
# peak RSS across exec, so one started by this large test process would read
# this process's peak; this small one reads its own.
LAUNCH = (
    "import subprocess, sys; sys.exit(subprocess.run([sys.executable, *sys.argv[1:]]).returncode)"
)


def test_volume_report_resident_peak(tmp_path, clouds):
    cloud, path = clouds["sierpinski"]
    argv = ["-B", "-c", RSS_RUN, VOLUME, str(path), str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", LAUNCH, *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(dimest.__file__).parents[1])},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, before, after = map(int, proc.stdout.split())
    assert code == 0
    assert (after - before) * 1024 < 8.5 * cloud.points.nbytes  # 7.03-7.16 -> 7.25-7.46
