"""Command-line interface: pipelines, formats, exit codes, determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import dimest
from dimest import REPORT_JSON_SCHEMA, load_points_csv, uniform_segment
from dimest.boxcount import VOLUME_MAX_CELLS
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


def test_entropy_of_a_single_cell_prints_negative_zero(tmp_path, capsys):
    src = tmp_path / "one.csv"
    src.write_text("0.25,0.5\n0.25,0.5\n")
    assert run(["entropy", "--in", str(src), "--kmin", "0", "--kmax", "2"]) == 0
    assert capsys.readouterr().out == (
        "k,epsilon,occupied,entropy_bits\n0,1.0,1,-0.0\n1,0.5,1,-0.0\n2,0.25,1,-0.0\n"
    )


def test_module_entry_point_runs():
    src = str(Path(dimest.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dimest.cli", "--version"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
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
