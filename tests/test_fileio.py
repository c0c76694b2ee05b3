"""Point-cloud CSV parsing, serialization, and atomic writes."""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimest import InputError, PointCloud, load_points_csv, save_points_csv
from dimest.fileio import atomic_write_text, points_to_csv


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(size=(100, 3)) * 1e-7)
    path = tmp_path / "pts.csv"
    save_points_csv(cloud, path)
    back = load_points_csv(path)
    assert np.array_equal(back.points, cloud.points)


def test_comments_are_written_and_skipped(tmp_path):
    cloud = PointCloud(np.array([[1.0, 2.0]]))
    path = tmp_path / "pts.csv"
    save_points_csv(cloud, path, comments=["generated for a test"])
    text = path.read_text()
    assert text.startswith("# generated for a test\n")
    assert len(load_points_csv(path)) == 1


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# header\n\n1.0,2.0\n\n3.0,4.0\n")
    cloud = load_points_csv(path)
    assert np.array_equal(cloud.points, [[1.0, 2.0], [3.0, 4.0]])


def test_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(InputError, match="line 2"):
        load_points_csv(path)


def test_inconsistent_width_reports_line_number(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError, match="line 2"):
        load_points_csv(path)


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,nan\n")
    with pytest.raises(InputError, match="line 1"):
        load_points_csv(path)


def test_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_points_csv(tmp_path / "absent.csv")


def test_empty_file_errors(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(InputError, match="no points"):
        load_points_csv(path)


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write_text(path, "new")
    assert path.read_text() == "new"
    # No stray temp files left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_serialization_full_precision():
    value = 0.1 + 0.2  # not representable prettily
    cloud = PointCloud(np.array([[value]]))
    text = points_to_csv(cloud)
    assert text == f"{value!r}\n"


def test_written_file_mode_follows_umask(tmp_path):
    modes = []
    for umask in (0o022, 0o077):
        old = os.umask(umask)
        try:
            plain, atomic = tmp_path / f"plain{umask:o}", tmp_path / f"atomic{umask:o}"
            plain.open("w").close()
            atomic_write_text(atomic, "x")
        finally:
            os.umask(old)
        modes.append((stat.S_IMODE(plain.stat().st_mode), stat.S_IMODE(atomic.stat().st_mode)))
    assert modes == [(0o644, 0o644), (0o600, 0o600)]


# --- Writer: differential against the per-float repr join ---------------------


def reference_csv(points, comments=()) -> str:
    """The writer as a per-float ``repr`` join: the byte-level specification."""
    lines = [f"# {c}" for c in comments]
    lines += [",".join(repr(float(v)) for v in row) for row in points]
    return "\n".join(lines) + "\n"


# Signed zero, the smallest subnormal, both sides of the normal range, both
# sides of repr's switch to exponent form, and the largest finite double.
SPECIAL_FLOATS = [
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    1e-05,
    0.0001,
    9.999999999999999e15,
    1e16,
    -1e16,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1 + 0.2,
]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_writer_special_floats_match_reference(tmp_path, loadtxt_calls, d):
    values = SPECIAL_FLOATS[: len(SPECIAL_FLOATS) // d * d]
    points = np.array(values).reshape(-1, d)
    comments = ["dimest generate test", "second line"]
    text = points_to_csv(PointCloud(points), comments)
    assert text == reference_csv(points, comments)
    path = tmp_path / "special.csv"
    save_points_csv(PointCloud(points), path, comments)
    assert load_points_csv(path).points.tobytes() == points.tobytes()
    assert len(loadtxt_calls) == 1  # what the writer writes takes the fast path


def test_writer_empty_cloud_matches_reference():
    for comments in ([], ["c"]):
        empty = np.empty((0, 2))
        assert points_to_csv(PointCloud(empty), comments) == reference_csv(empty, comments)


finite_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    values=st.lists(finite_floats, max_size=30),
    comments=st.lists(st.text(max_size=12), max_size=3),
)
def test_writer_matches_per_float_repr(d, values, comments):
    points = np.array(values[: len(values) // d * d], dtype=float).reshape(-1, d)
    assert points_to_csv(PointCloud(points), comments) == reference_csv(points, comments)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    values=st.lists(finite_floats, min_size=3, max_size=30),
)
def test_round_trip_bits_property(tmp_path_factory, d, values):
    points = np.array(values[: len(values) // d * d], dtype=float).reshape(-1, d)
    path = tmp_path_factory.mktemp("round") / "pts.csv"
    save_points_csv(PointCloud(points), path, comments=["header"])
    assert load_points_csv(path).points.tobytes() == points.tobytes()


# --- Reader: differential against the line-by-line parser ---------------------


def reference_parse(text: str, path) -> np.ndarray:
    """The line-by-line parser the reader must match: result bits and messages."""
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [float(f) for f in line.split(",")]
        except ValueError:
            raise InputError(f"{path}: line {lineno}: not a number: {line!r}") from None
        if any(not np.isfinite(v) for v in values):
            raise InputError(f"{path}: line {lineno}: non-finite coordinate")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise InputError(
                f"{path}: line {lineno}: expected {width} coordinates, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise InputError(f"{path}: no points found")
    return np.asarray(rows, dtype=float)


def assert_reads_as_reference(path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_parse(text, path)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            load_points_csv(path)
        assert str(raised.value) == str(exc)
    else:
        got = load_points_csv(path).points
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


# Inputs np.loadtxt and the line parser read differently: the first two
# loadtxt accepts and the line parser rejects, the rest the other way round.
DIVERGENCES = ["1,2 # c\n", "1\x0c,2\n", "  # c\n1,2\n", "1_0,2\n", "\u0661,2\n"]

READER_CASES = DIVERGENCES + [
    "# h\r\n1.5,2\r\n-3,4e-3\r\n",
    "1,2\x0b3,4\n",
    "1,2\u20283,4\n",
    "# hidden\x0b1,2\n",
    "# hidden\u20281,2\n3,4\n",
    "1,2\r3,4\r",
    "1,2\r\r\n3,4\n",
    "1\n2\n3\n",
    "1,2,3\n",
    "1,2\n3\n",
    "1,2,\n",
    "1,nan\n",
    "inf,1\n",
    "1e999,1\n",
    "-1e999,1\n",
    "1e-999,1\n",
    "# only a header\n",
    "",
    "\n \t\n",
    "\r",
    "\r\r1,2\r",
    "# c\r1,2\n",
    "  ",
    "# a\n# b\n\n1,2\n1,x\n",
    "# a\n# b\n1,2\n3,4\n5\n",
    "# a\n# b\n1,2\n3,4\n5,inf\n",
    "1,2\n  \n3,4\n",
    " 1 ,\t2\n",
    "\ufeff1,2\n",
    "# caf\u00e9\n1,2\n",
    "\t# indented\n1,2\n",
    "1,2\n3,4",
] + [
    # Whitespace-only lines among the rows (np.loadtxt rejects them unblanked).
    "1,2\n\t\n3,4\n",
    "1,2\n \t \n3,4\n",
    "1,2\n  ",
    "1,2\n3,4\n\t",
    "# h\n1,2\n  \n",
    "1,2\r\n  \r\n3,4\r\n",
    "1,2\r\n\t\r\n3,4",
    "1,2\r  \r3,4\r",
    "1,2\n  \r3,4\n",
    "1,2\n \r\n3,4\n",
    "  \n1,2\n \t\n3,4\n",
    "1,2\n  \n3\n",
    "1,2\n\t\n3,x\n",
    "1,2\n  \n3,inf\n",
    "1,2\n \n 3 , 4 \n",
    "1,2\n  \n\n  \n",
]


@pytest.mark.parametrize("text", READER_CASES)
def test_reader_matches_reference_cases(tmp_path, text):
    assert_reads_as_reference(tmp_path / "case.csv", text)


def test_error_on_line_five_after_comment_header(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# a\n# b\n1,2\n3,4\n5\n")
    with pytest.raises(InputError, match="line 5: expected 2 coordinates, got 1"):
        load_points_csv(path)


@pytest.mark.parametrize(
    "data", [b"\xff\xfe1,2\n", b"# caf\xe9\n1,2\n", b"1,2\n3,\xff\n"]
)
def test_non_utf8_rejected(tmp_path, data):
    path = tmp_path / "pts.csv"
    path.write_bytes(data)
    with pytest.raises(InputError, match="not valid UTF-8"):
        load_points_csv(path)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    calls = []
    original = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


@pytest.mark.parametrize(
    "text",
    ["1,2\n  \n3,4\n", "1,2\n3,4\n\t", "# h\r\n1,2\r\n \t\r\n3,4\r\n", " 1 , 2 \n \n"],
)
def test_whitespace_only_lines_stay_on_loadtxt(tmp_path, monkeypatch, text):
    returned = []
    original = np.loadtxt

    def spy(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    assert_reads_as_reference(tmp_path / "case.csv", text)
    assert len(returned) == 1  # np.loadtxt read the file; the parser never ran


@pytest.mark.parametrize("text", DIVERGENCES)
def test_divergences_skip_loadtxt(tmp_path, loadtxt_calls, text):
    assert_reads_as_reference(tmp_path / "case.csv", text)
    assert loadtxt_calls == []


_TOKENS = [
    "0", "1", "7", ".", "e", "E", "+", "-", ",", " ", "\t", "\n", "\r\n", "\r",
    "#", "\x0b", "\x0c", "\u2028", "\x85", "_", "\u0661", "nan", "inf", "1e999",
    "5e-324", "-0.0", "0.1", "\u00e9", "\ufeff",
]


@st.composite
def csv_texts(draw):
    """Whole CSV lines (rows, comments, blanks, junk) joined by varied breaks."""
    row = st.lists(finite_floats.map(repr), min_size=1, max_size=3).map(",".join)
    junk = st.lists(st.sampled_from(_TOKENS), max_size=6).map("".join)
    blank = st.text(alphabet=" \t", min_size=1, max_size=3)
    line = st.one_of(row, row, st.just(""), st.just("# comment"), junk, blank)
    breaks = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\u2028"])
    lines = draw(st.lists(st.tuples(line, breaks), max_size=8))
    return "".join(text + end for text, end in lines)


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        csv_texts(), st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join)
    )
)
def test_reader_matches_reference_property(tmp_path_factory, text):
    assert_reads_as_reference(tmp_path_factory.mktemp("read") / "pts.csv", text)
