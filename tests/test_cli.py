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


def test_anchor_origin_mode(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    # Negative coordinates: origin anchoring must still index correctly.
    src.write_text("-0.1,0.0\n0.1,0.0\n")
    assert run(["count", "--in", str(src), "--kmin", "0", "--kmax", "0", "--anchor", "origin"]) == 0
    assert capsys.readouterr().out == "k,epsilon,count\n0,1.0,2\n"
