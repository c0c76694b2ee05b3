"""Command-line interface: pipelines, formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimest
from dimest import (
    REPORT_JSON_SCHEMA,
    DimestError,
    PointCloud,
    ScaleSchedule,
    build_report,
    count_series,
    entropy_series,
    load_points_csv,
    uniform_segment,
    volume_estimate,
)
from dimest.boxcount import VOLUME_MAX_CELLS, occupancy_scalars
from dimest.cli import run


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "generate" in capsys.readouterr().out


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "dimest" in capsys.readouterr().out


def test_generate_segment_round_trips(tmp_path):
    out = tmp_path / "seg.csv"
    assert run(["generate", "segment", "--samples", "101", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# dimest generate segment samples=101\n")
    cloud = load_points_csv(out)
    assert np.array_equal(cloud.points, uniform_segment(101).points)


@pytest.mark.parametrize(
    "flags, header",
    [
        (
            ["henon", "--a", "1.3", "--seed-y", "0.1", "--transient", "5"],
            "henon a=1.3 b=0.3 seed=(0.0,0.1) transient=5 samples=50",
        ),
        (["cantor", "--level", "3"], "cantor level=3"),
        (
            ["sierpinski", "--rng-seed", "7", "--transient", "9"],
            "sierpinski samples=50 rng_seed=7 transient=9",
        ),
        (["segment"], "segment samples=50"),
        (["square"], "square samples=50"),
    ],
)
def test_generate_header_records_the_flags(tmp_path, flags, header):
    out = tmp_path / "pts.csv"
    assert run(["generate", *flags, "--samples", "50", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == f"# dimest generate {header}"


def test_count_single_scale_row(tmp_path, capsys):
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "100000", "--out", str(src)])
    assert run(["count", "--in", str(src), "--kmin", "4", "--kmax", "4"]) == 0
    out = capsys.readouterr().out
    # 16 cells cover [0,1); the endpoint x=1 owns a 17th.
    assert out == "k,epsilon,count\n4,0.0625,17\n"


def test_count_csv_and_histogram(tmp_path):
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "1000", "--out", str(src)])
    counts_csv = tmp_path / "counts.csv"
    hist_json = tmp_path / "hist.json"
    code = run(
        [
            "count",
            "--in", str(src),
            "--kmin", "2",
            "--kmax", "4",
            "--out", str(counts_csv),
            "--histogram", str(hist_json),
        ]
    )
    assert code == 0
    lines = counts_csv.read_text().splitlines()
    assert lines[0] == "k,epsilon,count"
    assert len(lines) == 4
    payload = json.loads(hist_json.read_text())
    assert len(payload["scales"]) == 3
    for scale in payload["scales"]:
        assert sum(scale["cells"].values()) == scale["total"] == 1000
    # Atomic writes leave no temp files behind.
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"seg.csv", "counts.csv", "hist.json"}


@pytest.mark.parametrize(
    "command",
    [["report"], ["report", "--anchor", "origin"], ["count", "--histogram", "hist.json"]],
)
def test_counts_and_entropy_share_one_indexing_pass(
    tmp_path, monkeypatch, box_indices_calls, command
):
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "1000", "--out", str(src)])
    monkeypatch.chdir(tmp_path)
    assert run([command[0], "--in", str(src), "--kmin", "2", "--kmax", "6", *command[1:]]) == 0
    assert box_indices_calls == [2.0**-6]


def test_entropy_output(tmp_path, capsys):
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "4096", "--out", str(src)])
    assert run(["entropy", "--in", str(src), "--kmin", "2", "--kmax", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,epsilon,occupied,entropy_bits"
    assert len(lines) == 5
    k, eps, occupied, bits = lines[1].split(",")
    assert (k, eps) == ("2", "0.25")
    assert int(occupied) == 5
    assert 0.0 <= float(bits) <= math.log2(5)


def test_report_stdout_schema_and_verdicts(tmp_path, capsys):
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "100000", "--out", str(src)])
    code = run(
        [
            "report",
            "--in", str(src),
            "--kmin", "6",
            "--kmax", "10",
            "--reference-dim", "1.0",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, REPORT_JSON_SCHEMA)
    assert payload["dim_box"] == pytest.approx(1.0, abs=0.03)
    names = [v["name"] for v in payload["inequality_verdicts"]]
    assert names == ["info_le_box", "reference_le_box", "reference_le_info"]
    assert all(v["holds"] for v in payload["inequality_verdicts"])
    assert payload["config"]["anchor_mode"] == "min"


def test_report_with_volume_to_file(tmp_path):
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "10000", "--out", str(src)])
    dst = tmp_path / "report.json"
    code = run(
        [
            "report",
            "--in", str(src),
            "--kmin", "4",
            "--kmax", "7",
            "--volume",
            "--json", str(dst),
        ]
    )
    assert code == 0
    payload = json.loads(dst.read_text())
    jsonschema.validate(payload, REPORT_JSON_SCHEMA)
    assert payload["dim_box_volume"] == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize(
    "rows, epsilons, message",
    [
        # 30**3 lattice points 4 coarse cells apart: over the fine-cell budget.
        (
            [f"{x},{y},{z}" for x in range(30) for y in range(30) for z in range(30)],
            "0.25,0.2",
            f"too many volume cells at epsilon 0.25 (over {VOLUME_MAX_CELLS})",
        ),
        (["1e13,0", "10000000000001,1"], "0.008,0.004", "epsilon too small for coordinate range"),
    ],
)
def test_report_volume_refuses_unbounded_input(tmp_path, capsys, rows, epsilons, message):
    src = tmp_path / "pts.csv"
    src.write_text("\n".join(rows) + "\n")
    assert run(["report", "--in", str(src), "--epsilons", epsilons, "--volume"]) == 1
    assert capsys.readouterr().err == f"dimest: error: {message}\n"


def test_report_volume_refuses_huge_epsilon(tmp_path, capsys):
    src, out = tmp_path / "pts.csv", tmp_path / "report.json"
    src.write_text("0,0\n1,0.5\n0.25,0.75\n")
    flags = ["--volume", "--epsilons", "1e200,1e199", "--json", str(out)]
    assert run(["report", "--in", str(src), *flags]) == 1
    assert capsys.readouterr().err == "dimest: error: epsilon too large for coordinate range\n"
    assert not out.exists()


def test_report_volume_refuses_underflowing_cell_volume(tmp_path, capsys):
    # h = 2.5e-201 is a normal float and the points span 4e10 cells, but h**2 is 0.
    src, out = tmp_path / "pts.csv", tmp_path / "report.json"
    src.write_text("0,0\n1e-190,1e-190\n5e-191,2e-191\n")
    flags = ["--volume", "--epsilons", "1e-200,5e-201", "--json", str(out)]
    assert run(["report", "--in", str(src), *flags]) == 1
    message = "epsilon too small: cell volume h**d underflows to 0"
    assert capsys.readouterr().err == f"dimest: error: {message}\n"
    assert not out.exists()


def test_report_json_round_trip_bytes(tmp_path):
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "5000", "--out", str(src)])
    dst = tmp_path / "report.json"
    run(["report", "--in", str(src), "--kmin", "3", "--kmax", "6", "--json", str(dst)])
    text = dst.read_text()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_missing_input_is_exit_one(tmp_path, capsys):
    assert run(["count", "--in", str(tmp_path / "nope.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dimest: error:")
    assert err.count("\n") == 1


def test_unknown_flag_is_exit_one(capsys):
    assert run(["count", "--in", "x.csv", "--frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_csv_reports_line(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("0.1,0.2\n0.3,zzz\n")
    assert run(["count", "--in", str(src)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_non_utf8_input_is_exit_one(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_bytes(b"\xff\xfe1,2\n")
    assert run(["count", "--in", str(src)]) == 1
    assert capsys.readouterr().err == f"dimest: error: {src}: not valid UTF-8\n"


# Each fails at its first request: 10**15 points in numpy; 2**59 (the fewest
# 2-D points whose bytes pass the index range) and 10**30 in the generators'
# own size check, where numpy would raise ValueError.
@pytest.mark.parametrize("samples", [10**15, 2**59, 10**30])
@pytest.mark.parametrize("kind", ["henon", "sierpinski", "segment", "square"])
def test_generate_out_of_memory_is_one_line_exit_one(tmp_path, capsys, kind, samples):
    out = tmp_path / "huge.csv"
    assert run(["generate", kind, "--samples", str(samples), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dimest: error: Unable to allocate ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["sierpinski", "--rng-seed", "-1"], "rng_seed must be non-negative"),
        (["sierpinski", "--transient", "-1"], "transient must be non-negative"),
        (["henon", "--samples", "0"], "samples must be at least 1"),
        (["cantor", "--level", "0"], "level out of range (expected 1..20)"),
    ],
)
def test_generate_bad_parameter_is_one_line_exit_one(tmp_path, capsys, flags, message):
    out = tmp_path / "points.csv"
    assert run(["generate", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"dimest: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--reference-dim", "nan"], "reference_dim"),
        (["--reference-dim", "inf"], "reference_dim"),
        (["--reference-dim=-inf"], "reference_dim"),
        (["--tolerance", "nan"], "tolerance"),
        (["--tolerance", "inf"], "tolerance"),
        (["--gap-threshold", "nan"], "gap_threshold"),
        (["--gap-threshold", "inf"], "gap_threshold"),
    ],
)
def test_report_non_finite_parameter_is_one_line_exit_one(tmp_path, capsys, flags, name):
    # NaN and Infinity have no JSON form (RFC 8259), so no report is written.
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "100", "--out", str(src)])
    dst = tmp_path / "report.json"
    assert run(["report", "--in", str(src), *flags, "--json", str(dst)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"dimest: error: {name} must be finite\n"
    assert captured.out == ""
    assert not dst.exists()


def test_report_overflowing_margin_is_one_line_exit_one(tmp_path, capsys):
    # Each parameter is finite, but the margin 1e308 + 1e308 - slope is not.
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "100", "--out", str(src)])
    dst = tmp_path / "report.json"
    flags = ["--tolerance", "1e308", "--reference-dim=-1e308", "--json", str(dst)]
    assert run(["report", "--in", str(src), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == "dimest: error: reference_le_box margin is not finite\n"
    assert captured.out == ""
    assert not dst.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kmin", "-1100", "--kmax", "2"], "scales must be finite and positive"),
        (["--epsilons", "1e-320"], "box index overflow: epsilon too small for coordinate range"),
        (["--kmin", "0", "--kmax", "1000000000000"], "scales must be finite and positive"),
        (["--kmin", "-1000000000000", "--kmax", "0"], "scales must be finite and positive"),
    ],
)
def test_count_overflowing_scale_is_one_line_exit_one(tmp_path, capsys, flags, message):
    # numpy overflows to inf here, or the k range (at |k| = 10**12, 8 TB of
    # scales) is refused before it is listed; no RuntimeWarning reaches stderr.
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "100", "--out", str(src)])
    capsys.readouterr()
    assert run(["count", "--in", str(src), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"dimest: error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "anchor, digest",
    [
        ("min", "51b35ff6954259c716a794fb4a8e9189843fbba57333bec1754d4b24d7480e49"),
        ("origin", "8adba0d7343ef9672904d840250eee0e4f53a6d19e691c177c37ab391e9f05f0"),
    ],
)
def test_histogram_bytes_are_pinned(tmp_path, anchor, digest):
    # k = 0..40 on the Henon orbit: histograms merged from the finest scale's
    # rows, whose spans (about 2**41 cells an axis) are too wide for a Z-order key.
    src, dst = tmp_path / "h.csv", tmp_path / "hist.json"
    assert run(["generate", "henon", "--samples", "2000", "--out", str(src)]) == 0
    flags = ["--kmin", "0", "--kmax", "40", "--anchor", anchor, "--histogram", str(dst)]
    assert run(["count", "--in", str(src), *flags]) == 0
    assert hashlib.sha256(dst.read_bytes()).hexdigest() == digest


def test_subnormal_epsilon_prints_a_finite_label(tmp_path, capsys):
    # 1/1e-320 overflows; the row carries -log2(1e-320), not inf.
    src = tmp_path / "p.csv"
    src.write_text("0,0\n")
    assert run(["count", "--in", str(src), "--epsilons", "1e-320", "--anchor", "origin"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"k,epsilon,count\n{float(-np.log2(1e-320))!r},1e-320,1\n"
    assert captured.err == ""


def test_entropy_of_a_single_cell_prints_negative_zero(tmp_path, capsys):
    src = tmp_path / "one.csv"
    src.write_text("0.25,0.5\n0.25,0.5\n")
    assert run(["entropy", "--in", str(src), "--kmin", "0", "--kmax", "2"]) == 0
    assert capsys.readouterr().out == (
        "k,epsilon,occupied,entropy_bits\n0,1.0,1,-0.0\n1,0.5,1,-0.0\n2,0.25,1,-0.0\n"
    )


def _python(*args):
    """Run a fresh interpreter on this checkout of dimest, environment cleared.

    ``-B``: the run writes no ``__pycache__`` into the source tree.
    """
    return subprocess.run(
        [sys.executable, "-B", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(dimest.__file__).parents[1])},
        timeout=60,
    )


def test_huge_transient_fails_at_once(tmp_path):
    # Unbounded, the orbit would iterate its transient until killed.
    out = tmp_path / "t.csv"
    flags = ["generate", "henon", "--transient", "1" + "0" * 30, "--samples", "1"]
    proc = _python("-m", "dimest.cli", *flags, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "dimest: error: transient must be at most 2147483647\n"
    assert not out.exists()


def test_module_entry_point_runs():
    proc = _python("-m", "dimest.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout == f"dimest {dimest.__version__}\n"


def test_bad_epsilons_flag(tmp_path, capsys):
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "10", "--out", str(src)])
    assert run(["count", "--in", str(src), "--epsilons", "0.5,abc"]) == 1
    assert "epsilons" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "entropy", "report"])
def test_empty_epsilons_flag_is_exit_one(tmp_path, capsys, command):
    # An empty list of scales is an error, not a fall back to --kmin/--kmax.
    src = tmp_path / "seg.csv"
    run(["generate", "segment", "--samples", "10", "--out", str(src)])
    capsys.readouterr()
    assert run([command, "--in", str(src), "--epsilons", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dimest: error: schedule needs at least one scale\n"


def test_single_point_report_degenerates_exit_two(tmp_path, capsys):
    src = tmp_path / "one.csv"
    src.write_text("0.5,0.5\n")
    assert run(["report", "--in", str(src), "--kmin", "3", "--kmax", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dimest: error: degenerate fit")
    assert err.count("\n") == 1


def test_diverging_orbit_exit_two(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = run(
        ["generate", "henon", "--a", "5.0", "--samples", "100", "--out", str(out)]
    )
    assert code == 2
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


def test_orbit_overflow_is_one_line_exit_two(tmp_path):
    # y_1 = 1e303 * 1e5 overflows to inf; numpy's overflow warning must not reach stderr.
    out = tmp_path / "orbit.csv"
    flags = ["--b", "1e303", "--seed-x", "1e5", "--transient", "0", "--samples", "10"]
    proc = _python("-m", "dimest.cli", "generate", "henon", *flags, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "dimest: error: orbit diverged at step 1\n"
    assert not out.exists()


def test_scipy_is_loaded_only_by_the_volume_estimator(tmp_path):
    # Records, after each step, whether scipy is loaded; the last step builds a KD-tree.
    code = """
import json, sys
import numpy as np
loaded = {}
import dimest
loaded["import dimest"] = "scipy" in sys.modules
from dimest.cli import run
loaded["import dimest.cli"] = "scipy" in sys.modules
from dimest import InputError, PointCloud, volume_estimate, volume_estimates
lattice = np.stack(np.meshgrid(*[np.arange(30.0)] * 3), axis=-1).reshape(-1, 3)
try:
    volume_estimate(PointCloud(lattice), 0.25)
except InputError:
    loaded["refused volume_estimate"] = "scipy" in sys.modules
try:
    volume_estimates(PointCloud(lattice), [0.25, 1.0])
except InputError:
    loaded["refused volume_estimates"] = "scipy" in sys.modules
cloud, out = sys.argv[1] + "/cloud.csv", sys.argv[1] + "/out"
scales = ["--in", cloud, "--kmin", "2", "--kmax", "5"]
for command, flags in (
    ("generate", ["henon", "--samples", "2000", "--out", cloud]),
    ("count", [*scales, "--out", out]),
    ("entropy", [*scales, "--out", out]),
    ("report", [*scales, "--json", out]),
    ("report --volume", [*scales, "--json", out, "--volume"]),
):
    assert run([command.split()[0], *flags]) == 0
    loaded[command] = "scipy" in sys.modules
print(json.dumps(loaded))
"""
    proc = _python("-c", code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import dimest": False,
        "import dimest.cli": False,
        "refused volume_estimate": False,
        "refused volume_estimates": False,
        "generate": False,
        "count": False,
        "entropy": False,
        "report": False,
        "report --volume": True,
    }


def test_import_adds_no_third_party_package_but_numpy():
    # The modules a bare interpreter starts with are there before the import.
    code = """
import sys
before = set(sys.modules)
import dimest.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(added - set(sys.stdlib_module_names)))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['dimest', 'numpy']\n"


def test_import_loads_no_subprocess():
    # save_points_csv imports subprocess when it starts a helper, and
    # volume_estimates concurrent.futures when it starts its worker, not before.
    modules = "('subprocess', 'concurrent.futures')"
    code = f"import sys, dimest.cli; print([m in sys.modules for m in {modules}])"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False]\n"


def test_missing_scipy_fails_only_volume_in_one_line(tmp_path):
    src, usual = tmp_path / "cloud.csv", tmp_path / "report.json"
    assert run(["generate", "sierpinski", "--samples", "2000", "--out", str(src)]) == 0
    report = ["report", "--in", str(src), "--kmin", "2", "--kmax", "5"]
    assert run(report + ["--json", str(usual)]) == 0
    code = 'import sys; sys.modules["scipy.spatial"] = None; import dimest.cli; dimest.cli.main()'
    proc = _python("-c", code, *report, "--volume")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("dimest: error: ") and proc.stderr.count("\n") == 1
    assert "scipy.spatial" in proc.stderr
    proc = _python("-c", code, *report)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == usual.read_text()


def test_generate_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["generate", "sierpinski", "--samples", "20000", "--rng-seed", "9"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_parallelism_is_byte_deterministic(tmp_path):
    src = tmp_path / "cloud.csv"
    run(
        [
            "generate", "henon",
            "--samples", "20000",
            "--out", str(src),
        ]
    )
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    base = ["report", "--in", str(src), "--kmin", "3", "--kmax", "6"]
    assert run(base + ["--workers", "1", "--json", str(first)]) == 0
    assert run(base + ["--workers", "3", "--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_report_parallelism_explicit_scales_is_byte_deterministic(tmp_path):
    src = tmp_path / "cloud.csv"
    assert run(["generate", "henon", "--samples", "20000", "--out", str(src)]) == 0
    outputs = []
    for i, workers in enumerate(([], ["--workers", "1"], ["--workers", "3"])):
        flags = ["--in", str(src), "--epsilons", "0.3,0.2,0.1,0.05,0.03"] + workers
        report, hist = tmp_path / f"r{i}.json", tmp_path / f"h{i}.json"
        assert run(["report"] + flags + ["--json", str(report)]) == 0
        assert run(["count"] + flags + ["--out", str(tmp_path / "c.csv"), "--histogram", str(hist)]) == 0
        outputs.append((report.read_bytes(), hist.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_anchor_origin_mode(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    # Negative coordinates: origin anchoring must still index correctly.
    src.write_text("-0.1,0.0\n0.1,0.0\n")
    assert run(["count", "--in", str(src), "--kmin", "0", "--kmax", "0", "--anchor", "origin"]) == 0
    assert capsys.readouterr().out == "k,epsilon,count\n0,1.0,2\n"


# Coordinates at the edges of float64: signed zeros, the least subnormal, tiny,
# huge and the largest finite values, and a few plain ones that fit a report.
EDGE_COORDS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]
EDGE_COORDS += [1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.5, 0.3]
EDGE_SCALES = [1.7976931348623157e308, 1e300, 1e200, 1.0, 0.5, 0.004, 1e-200, 1e-300, 5e-324]
# None leaves the flag out.
EDGE_PARAMS = [None, None, float("nan"), float("inf"), float("-inf"), 0.0, 0.05, 1e308, -1e308]
REPORT_PARAMS = ("reference_dim", "tolerance", "gap_threshold")


@st.composite
def cli_cases(draw):
    """Rows of a d = 1..3 CSV, a subcommand and its scale and report flags."""
    d = draw(st.integers(min_value=1, max_value=3))
    pool = draw(st.lists(st.sampled_from(EDGE_COORDS), min_size=1, max_size=5, unique=True))
    coords = st.lists(st.sampled_from(pool), min_size=d, max_size=d)
    rows = draw(st.lists(coords, min_size=1, max_size=8))
    command = draw(st.sampled_from(["count", "entropy", "report"]))
    if draw(st.booleans()):
        scales = draw(st.lists(st.sampled_from(EDGE_SCALES), min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):
            scales.sort(reverse=True)
        flags = ["--epsilons=" + ",".join(map(repr, scales))]
    else:
        kmin, kmax = sorted(draw(st.integers(min_value=-5, max_value=60)) for _ in range(2))
        flags = [f"--kmin={kmin}", f"--kmax={kmax}"]
    if draw(st.booleans()):
        flags.append("--anchor=origin")
    if command == "report":
        if draw(st.booleans()):
            flags.append("--volume")
        for name in REPORT_PARAMS:
            value = draw(st.sampled_from(EDGE_PARAMS))
            if value is not None:
                flags.append(f"--{name.replace('_', '-')}={value!r}")
    return rows, command, flags


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cli_cases())
def test_cli_contract_on_edge_inputs(case):
    # Exit 0 writes its file and nothing on stderr; any other exit is 1 or 2,
    # one "dimest: error:" line and no file.
    rows, command, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = Path(tmp) / "pts.csv", Path(tmp) / "out"
        src.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        out_flag = "--json" if command == "report" else "--out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([command, "--in", str(src), *flags, out_flag, str(dst)])
        if code == 0:
            assert err.getvalue() == ""
            assert dst.exists()
        else:
            assert code in (1, 2)
            assert err.getvalue().startswith("dimest: error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert not dst.exists()


@st.composite
def library_cases(draw):
    """The library twin of ``cli_cases``: a cloud, schedule, anchor and report flags."""
    d = draw(st.integers(min_value=1, max_value=3))
    pool = draw(st.lists(st.sampled_from(EDGE_COORDS), min_size=1, max_size=5, unique=True))
    coords = st.lists(st.sampled_from(pool), min_size=d, max_size=d)
    cloud = PointCloud(np.array(draw(st.lists(coords, min_size=1, max_size=8))))
    scales = draw(st.lists(st.sampled_from(EDGE_SCALES), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        scales.sort(reverse=True)
    kmin, kmax = sorted(draw(st.integers(min_value=-5, max_value=60)) for _ in range(2))
    schedule = draw(st.sampled_from([("dyadic", kmin, kmax), ("from_epsilons", scales)]))
    anchor = draw(st.sampled_from([None, np.zeros(d), np.full(d, draw(st.sampled_from(pool)))]))
    drawn = {name: draw(st.sampled_from(EDGE_PARAMS)) for name in REPORT_PARAMS}
    params = {name: value for name, value in drawn.items() if value is not None}
    epsilon = draw(st.sampled_from(EDGE_SCALES + [0.0, -1.0, float("nan"), float("inf")]))
    return cloud, schedule, anchor, draw(st.booleans()), params, epsilon


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=library_cases())
def test_library_raises_only_dimest_errors(case):
    # What the CLI maps to exit codes; any other exception, or a warning, which
    # tier-1 turns into one, escapes this test.
    cloud, (make, *args), anchor, volume, params, epsilon = case
    with contextlib.suppress(DimestError, MemoryError):
        volume_estimate(cloud, epsilon)
    with contextlib.suppress(DimestError, MemoryError):
        schedule = getattr(ScaleSchedule, make)(*args)
        occupancy_scalars(cloud, schedule, anchor)
        counts = count_series(cloud, schedule, anchor)
        entropies = entropy_series(cloud, schedule, anchor)
        volumes = [volume_estimate(cloud, e) for e in schedule.epsilons] if volume else None
        build_report(counts, entropies, volumes, **params)
