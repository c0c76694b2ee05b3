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
serial per-scale loop it replaced ("was") and of its own ("now"). The read
rows give the peak of ``load_points_csv`` alone on the orbit's CSV, as
written or rewritten, while np.loadtxt read the lines of 64 KiB pieces (or
the whole-file parser read a file with a skipped line, a lone b"\\r" or a
non-ASCII comment: "was") and since np.loadtxt reads the checked file itself
("now"). The ``count --histogram``, ``generate`` and ``report --kmin 0
--kmax 40`` rows, added later, give the peak they were set from alone;
``generate`` writes its cloud instead of reading one. The volume rows' "now"
was measured again, over repeated runs, once the first scale's bitmaps were
built beside the KD-tree and two query blocks could wait on the worker.
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
    load_points_csv,
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
    (["report", "--volume", "--epsilons", VOLUME], "orbit", 4.5),  # 5.52 -> 3.89-3.94
    (["report", "--volume", "--epsilons", VOLUME], "sierpinski", 5.5),  # 9.44 -> 4.76-4.85
    (["report", "--kmin", "3", "--kmax", "7"], "orbit", 2.5),  # control: 2.01 -> 2.01
    # k = 3..7; 3.05 when it is the first CSV read in the process.
    (["count", "--histogram", "{tmp}/histogram.json"], "orbit", 3.5),  # 3.02
    (["report", "--kmin", "0", "--kmax", "40"], "orbit", 8.0),  # 7.02
]


@pytest.mark.parametrize(
    "argv, name, bound",
    LEDGER,
    ids=[
        "count-explicit",
        "report-explicit",
        "volume-orbit",
        "volume-sierpinski",
        "report-k3-7",
        "count-histogram",
        "report-k0-40",
    ],
)
def test_command_peak(tmp_path, clouds, argv, name, bound):
    cloud, path = clouds[name]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    out = ["--out" if argv[0] == "count" else "--json", str(tmp_path / "out")]
    codes = []
    peak = traced_peak(lambda: codes.append(run([*argv, "--in", str(path), *out])))
    assert codes == [0]
    assert peak < bound * cloud.points.nbytes


# (generator and its options, bound): peak / bytes of the 2*10**5-point cloud it writes.
GENERATE = [
    (["henon"], 1.6),  # 1.32
    (["sierpinski", "--rng-seed", "0"], 1.6),  # 1.35
]


@pytest.mark.parametrize("argv, bound", GENERATE, ids=["henon", "sierpinski"])
def test_generate_peak(tmp_path, argv, bound):
    out = tmp_path / "out.csv"
    codes = []
    peak = traced_peak(
        lambda: codes.append(run(["generate", *argv, "--samples", "200000", "--out", str(out)]))
    )
    assert codes == [0]
    assert peak < bound * 2 * 10**5 * 2 * 8


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
    assert peak < 4.5 * cloud.points.nbytes  # 3.60 -> 3.72-3.80


def with_mid_comment(data: bytes) -> bytes:
    """The CSV with one "# mid" line after its 100th row."""
    head = data.split(b"\n", 100)
    return b"\n".join([*head[:100], b"# mid", head[100]])


# (rewrite of the orbit's CSV, bound): peak / cloud bytes was -> now.
READS = [
    (with_mid_comment, 1.6),  # 19.91 -> 1.31 -> 1.26
    (lambda data: data.replace(b"\n", b"\r"), 1.6),  # 19.91 -> 1.31 -> 1.26
    (lambda data: data, 1.6),  # as written: 1.31 -> 1.26
    (lambda data: "# made with dimest \u2014 caf\u00e9\n".encode() + data, 1.6),  # 22.38 -> 1.26
]


@pytest.mark.parametrize(
    "rewrite, bound", READS, ids=["mid-comment", "cr-breaks", "as-written", "non-ascii-comment"]
)
def test_read_peak(tmp_path, clouds, rewrite, bound):
    cloud, path = clouds["orbit"]
    rewritten = tmp_path / "rewritten.csv"
    rewritten.write_bytes(rewrite(path.read_bytes()))
    loaded = []
    peak = traced_peak(lambda: loaded.append(load_points_csv(rewritten)))
    assert loaded[0].points.tobytes() == cloud.points.tobytes()
    assert peak < bound * cloud.points.nbytes


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
    assert (after - before) * 1024 < 8.5 * cloud.points.nbytes  # 7.03-7.16 -> 7.32-7.72
