"""Point-cloud CSV parsing, serialization, and atomic writes."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import os
import re
import stat
import subprocess
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dimest import (
    HenonParams,
    InputError,
    PointCloud,
    fileio,
    henon_orbit,
    load_points_csv,
    save_points_csv,
)
from dimest.cli import run
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


def written_modes(tmp_path, write):
    """(plain open, ``write``) file modes under umasks 022 and 077."""
    modes = []
    for umask in (0o022, 0o077):
        old = os.umask(umask)
        try:
            plain, atomic = tmp_path / f"plain{umask:o}", tmp_path / f"atomic{umask:o}"
            plain.open("w").close()
            write(atomic)
        finally:
            os.umask(old)
        modes.append((stat.S_IMODE(plain.stat().st_mode), stat.S_IMODE(atomic.stat().st_mode)))
    return modes


def test_written_file_mode_follows_umask(tmp_path):
    modes = written_modes(tmp_path, lambda path: atomic_write_text(path, "x"))
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
DIVERGENCES = ["1,2 # c\n", "1\x0c,2\n", "1_0,2\n", "\u0661,2\n"]

READER_CASES = DIVERGENCES + [
    "  # c\n1,2\n",
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


# Lines np.loadtxt rejects as they stand, which the parser skips: emptied first.
@pytest.mark.parametrize(
    "text",
    [
        "1,2\n  \n3,4\n",
        "1,2\n3,4\n\t",
        "# h\r\n1,2\r\n \t\r\n3,4\r\n",
        " 1 , 2 \n \n",
        "  # c\n1,2\n",
    ],
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


@pytest.mark.parametrize(
    "text, plain",
    [("1,2\n3,4\n", True), ("1,2\n# c\n3,4\n", True), ("1,2\n\x0c\n3,4\n", False)],
)
def test_loaded_points_are_adopted_read_only(tmp_path, monkeypatch, text, plain):
    # Both reading paths hand the cloud a fresh array, which it keeps uncopied.
    returned = []
    original = np.loadtxt

    def spy(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    path = tmp_path / "case.csv"
    path.write_text(text)
    points = load_points_csv(path).points
    assert points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert points.base is None and not points.flags.writeable
    if plain:
        assert len(returned) == 1 and returned[0] is points
    else:
        assert returned == []


_TOKENS = [
    "0", "1", "7", ".", "e", "E", "+", "-", ",", " ", "\t", "\n", "\r\n", "\r",
    "#", "\x0b", "\x0c", "\u2028", "\x85", "_", "\u0661", "nan", "inf", "1e999",
    "5e-324", "-0.0", "0.1", "\u00e9", "\ufeff", "\x00", "\x1c", "\u2029",
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


_PLAIN = b"0123456789+-.eE,\r\n \t"


@settings(max_examples=500, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=64),
        st.lists(st.sampled_from(list(_PLAIN + b"\x00#Ax\x80\xff")), max_size=64).map(bytes),
    )
)
def test_plain_byte_check_agrees_with_the_row_regex(data):
    # The byte-deletion check that picks the np.loadtxt path accepts exactly
    # the strings the row regex it replaced fully matched.
    regex = re.compile(rb"[0-9+\-.eE,\r\n \t]*")
    assert (not data.translate(None, _PLAIN)) == bool(regex.fullmatch(data))


# --- Reader: files streamed into np.loadtxt in pieces -------------------------


def numpy_lines(data: bytes) -> list[bytes]:
    """The lines np.loadtxt reads in a file's bytes: universal newlines."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(keepends=True)


@contextlib.contextmanager
def streamed(piece):
    """Reads in pieces of ``piece`` bytes, with np.loadtxt spied on.

    Yields ``(lines, returned)``: the lines each np.loadtxt call read, and
    the arrays the calls that finished returned. A call given the name of a
    file reads the lines of the bytes the name holds when it is called.
    """
    lines, returned = [], []
    original = np.loadtxt

    def spy(rows, *args, **kwargs):
        seen = []
        lines.append(seen)

        def tap(rows):
            for line in rows:
                seen.append(line)
                yield line

        if isinstance(rows, str):
            with open(rows, "rb") as file:
                seen.extend(numpy_lines(file.read()))
        else:
            rows = tap(rows)
        returned.append(original(rows, *args, **kwargs))
        return returned[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_PIECE", piece)
        patch.setattr(np, "loadtxt", spy)
        yield lines, returned


def assert_all_plain(lines):
    # np.loadtxt never sees a byte it may read otherwise than the line parser:
    # each line it reads is plain, or a comment at column 0 that
    # str.splitlines keeps one line (np.loadtxt ends a comment at a line break only).
    for line in itertools.chain.from_iterable(lines):
        if line.translate(None, _PLAIN):
            assert line.startswith(b"#") and len(line.decode("utf-8").splitlines()) == 1, line


@st.composite
def writer_texts(draw):
    """What save_points_csv writes, with any comments."""
    d = draw(st.integers(min_value=1, max_value=3))
    values = draw(st.lists(finite_floats, max_size=30))
    points = np.array(values[: len(values) // d * d], dtype=float).reshape(-1, d)
    return points_to_csv(PointCloud(points), draw(st.lists(st.text(max_size=12), max_size=3)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    text=st.one_of(
        csv_texts(), writer_texts(), st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join)
    ),
    piece=st.integers(min_value=1, max_value=16),
)
def test_streamed_reader_matches_reference(tmp_path_factory, text, piece):
    with streamed(piece) as (lines, _):
        assert_reads_as_reference(tmp_path_factory.mktemp("piece") / "pts.csv", text)
    assert_all_plain(lines)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    d=st.integers(min_value=1, max_value=3),
    values=st.lists(finite_floats, min_size=1, max_size=30),
    # Any comment the writer keeps on one line, non-ASCII ones included.
    comments=st.lists(
        st.text(max_size=12).filter(lambda c: len(f"# {c}".splitlines()) == 1), max_size=3
    ),
    piece=st.integers(min_value=1, max_value=16),
)
def test_streamed_writer_output_stays_on_loadtxt(tmp_path_factory, d, values, comments, piece):
    points = np.array((values * d)[: len(values) * d], dtype=float).reshape(-1, d)
    path = tmp_path_factory.mktemp("piece") / "pts.csv"
    save_points_csv(PointCloud(points), path, comments)
    with streamed(piece) as (lines, returned):
        got = load_points_csv(path).points
    assert got.tobytes() == points.tobytes()
    assert len(lines) == 1 and returned[0] is got  # no piece fell back to the parser
    assert_all_plain(lines)


@st.composite
def skipped_line_texts(draw):
    """Writer output with ASCII comments and blank rows among its rows, any breaks."""
    d = draw(st.integers(min_value=1, max_value=3))
    values = draw(st.lists(finite_floats, min_size=1, max_size=30))
    points = np.array((values * d)[: len(values) * d], dtype=float).reshape(-1, d)
    printable = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
    comments = draw(st.lists(printable, max_size=3))
    lines = points_to_csv(PointCloud(points), comments).splitlines()
    indent = st.text(" \t", max_size=3)
    skipped = st.one_of(st.builds("{}#{}".format, indent, printable), indent)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(skipped))
    breaks = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(breaks) for line in lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=skipped_line_texts(), piece=st.integers(min_value=1, max_value=16))
def test_skipped_lines_and_any_breaks_stay_on_loadtxt(tmp_path_factory, text, piece):
    path = tmp_path_factory.mktemp("piece") / "pts.csv"
    path.write_bytes(text.encode("ascii"))
    with streamed(piece) as (lines, returned):
        got = load_points_csv(path).points
    expected = reference_parse(text, path)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert len(lines) == 1 and returned[0] is got  # one np.loadtxt call read to the end
    assert_all_plain(lines)


# (piece size, text, loaded): np.loadtxt reads the file to the end (True) or,
# the file being checked whole first, is never called (None).
STREAMED_CASES = [
    # b"\r\n" split across the first read boundary, then across later ones.
    (4, "1,2\r\n3,4\r\n5,6\r\n", True),
    (5, "# h\r\n1,2\r\n3,4\r\n", True),
    # A b"\r" ending one piece, its b"\n" starting the next.
    (4, "# h\r\n1,2\r\n3,4\r\n", True),
    # CR-only breaks: each b"\r" is read as b"\n", so the rows are cut as any.
    (4, "1,2\r3,4\r5,6\r", True),
    (3, "# h\r1,2\r  \r3,4\r", True),
    # Space-only rows at a boundary, after one, and longer than a piece.
    (4, "1,2\n  \n3,4\n", True),
    (5, "1,2\n\t \n3,4\n", True),
    (2, "1,2\n      \n3,4\n \t", True),
    (4, "1,2\r\n  \r\n3,4\r\n", True),
    # A header longer than a piece, and one filling whole pieces.
    (8, "# a comment longer than a piece\n# and one more\n\n1,2\n", True),
    (4, "# h\n\n# i\n1,2\n3,4\n", True),
    (1, "  \n# h\n1.5,-2e-3\n", True),
    # Comment lines anywhere: in a piece of their own between rows, and last.
    (8, "1.5,2.5\n# a\n# b\n3.5,4.5\n", True),
    (4, "1,2\n3,4\n# c\n", True),
    # No trailing newline.
    (4, "1,2\n3,4\n5,6", True),
    (16, "1,2\n3,4", True),
    # Header only.
    (4, "# only\n# a header\n\n", None),
    (2, "\n\n\n\n", None),
    # Not plain in the last of three pieces only: an error, a row np.loadtxt
    # would read otherwise, a break it ignores, a comment after a row.
    (4, "1,2\n3,4\n5,x\n", None),
    (4, "1,2\n3,4\n5_0,6\n", None),
    (4, "1,2\n3,4\n5,6\x0b7,8\n", None),
    (4, "1,2\n3,4\n5,6 # c\n", None),
]


@pytest.mark.parametrize("piece, text, loaded", STREAMED_CASES)
def test_streamed_reader_cases(tmp_path, piece, text, loaded):
    with streamed(piece) as (lines, returned):
        assert_reads_as_reference(tmp_path / "case.csv", text)
    assert_all_plain(lines)
    assert len(returned) == (loaded is True)
    assert len(lines) == (loaded is not None)


def test_large_read_holds_no_copy_of_the_file(tmp_path):
    # The file is over twice the cloud's bytes, so no copy of it fits in the bound.
    points = np.random.default_rng(0).random((2 * 10**5, 2))
    path = tmp_path / "pts.csv"
    save_points_csv(PointCloud(points), path, ["header"])
    assert path.stat().st_size > 2 * points.nbytes
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        cloud = load_points_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cloud.points.tobytes() == points.tobytes()
    assert peak - base < 1.6 * points.nbytes


@pytest.mark.parametrize("text", ["# h\n1,2\n3,4\n", "1,2\n3,x\n", "1,2\n# c\n3,4\n"])
def test_pipe_reads_as_reference(tmp_path, text):
    # A pipe cannot be read again: it is held whole, checked, then fed to np.loadtxt.
    path = tmp_path / "pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        got = ("points", load_points_csv(path).points.tolist())
    except InputError as exc:
        got = ("error", str(exc))
    writer.join(timeout=10)
    assert not writer.is_alive()
    try:
        expected = ("points", reference_parse(text, path).tolist())
    except InputError as exc:
        expected = ("error", str(exc))
    assert got == expected


def assert_loadtxt_reads_only_one_line_utf8(path, comment: bytes, piece: int) -> None:
    # A comment at column 0 reaches np.loadtxt when it is UTF-8 that
    # str.splitlines keeps one line; any other never does.
    try:
        text = "#" + comment.decode("utf-8")
    except UnicodeDecodeError:
        one_line = False
    else:
        one_line = text.splitlines() == [text]
    path.write_bytes(b"#" + comment + b"\n1,2\n")
    with streamed(piece) as (lines, returned):
        try:
            got = load_points_csv(path).points.tolist()
        except InputError as exc:
            got = str(exc)
    assert len(lines) == one_line
    if one_line:
        assert got == [[1.0, 2.0]] and len(returned) == 1
    assert_all_plain(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    comment=st.one_of(st.binary(max_size=12), st.text(max_size=6).map(str.encode)).filter(
        lambda data: b"\n" not in data and b"\r" not in data
    ),
    piece=st.integers(min_value=1, max_value=16),
)
def test_loadtxt_reads_exactly_the_one_line_utf8_comments(tmp_path_factory, comment, piece):
    path = tmp_path_factory.mktemp("comment") / "pts.csv"
    assert_loadtxt_reads_only_one_line_utf8(path, comment, piece)


# Bytes at the edges of well-formed UTF-8 (overlong forms, surrogates, past
# U+10FFFF, cut short) and the breaks str.splitlines knows besides \n and \r.
UTF8_EDGES = [
    b"\x00", b"\x0b", b"\x0c", b"\x1b", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x7f",
    b"\x80", b"\xc0\x80", b"\xc1\xbf", b"\xc2\x80", b"\xc2\x85", b"\xdf\xbf",
    b"\xe0\x9f\xbf", b"\xe0\xa0\x80", b"\xe2\x80", b"\xe2\x80\xa8", b"\xe2\x80\xa9",
    b"\xe2\x80\xaa", b"\xed\x9f\xbf", b"\xed\xa0\x80", b"\xed\xbf\xbf", b"\xee\x80\x80",
    b"\xef\xbb\xbf", b"\xf0\x8f\xbf\xbf", b"\xf0\x90\x80\x80", b"\xf4\x8f\xbf\xbf",
    b"\xf4\x90\x80\x80", b"\xf5\x80\x80\x80", b"\xff",
]


@pytest.mark.parametrize("comment", UTF8_EDGES)
def test_loadtxt_reads_only_one_line_utf8_at_the_edges(tmp_path, comment):
    text = b"caf\xc3\xa9 " + comment + b" 9,9"
    assert_loadtxt_reads_only_one_line_utf8(tmp_path / "pts.csv", text, 3)


@pytest.mark.parametrize(
    "name", ["pts.csv.gz", "pts.csv.bz2", "pts.csv.xz", "http://localhost/pts.csv"]
)
def test_names_numpy_would_open_otherwise_load_bit_for_bit(tmp_path, monkeypatch, name):
    # numpy opens a name ending in .gz, .bz2 or .xz as compressed and a
    # "scheme://" name as a URL; a plain CSV under such a name loads as any.
    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.dirname(name) or ".", exist_ok=True)
    cloud = henon_orbit(HenonParams(samples=500))
    save_points_csv(cloud, name, ["header"])
    assert load_points_csv(name).points.tobytes() == cloud.points.tobytes()


def test_file_rewritten_during_the_read_goes_to_the_parser(tmp_path, monkeypatch):
    # The file gains a line np.loadtxt reads otherwise than the parser after it
    # was checked: numpy's array is dropped and the parser reads the new bytes.
    path = tmp_path / "pts.csv"
    path.write_text("1,2\n3,4\n")
    original, calls = np.loadtxt, []

    def spy(*args, **kwargs):
        calls.append(args)
        with open(path, "a") as file:
            file.write("5,6 # c\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    with pytest.raises(InputError) as raised:
        load_points_csv(path)
    assert len(calls) == 1 and isinstance(calls[0][0], str)
    assert str(raised.value) == f"{path}: line 3: not a number: '5,6 # c'"
    with pytest.raises(InputError, match="line 3: not a number"):
        reference_parse(path.read_text(), path)


def test_without_a_descriptor_name_loadtxt_reads_the_pieces(tmp_path, monkeypatch, loadtxt_calls):
    # On a platform with no /dev/fd np.loadtxt is fed the checked lines.
    monkeypatch.setattr(fileio, "_FD_DIR", str(tmp_path / "no-fd"))
    cloud = henon_orbit(HenonParams(samples=500))
    save_points_csv(cloud, tmp_path / "pts.csv", ["header"])
    assert load_points_csv(tmp_path / "pts.csv").points.tobytes() == cloud.points.tobytes()
    assert len(loadtxt_calls) == 1 and not isinstance(loadtxt_calls[0][0], str)


def test_report_is_the_same_on_every_route(tmp_path, monkeypatch, loadtxt_calls):
    # np.loadtxt reads the file itself, the lines of its pieces (an indented
    # comment), or a pipe's: the report's bytes are the same. The report names
    # its input, so each route reads "in.csv" in a folder of its own.
    cloud = henon_orbit(HenonParams(samples=5000))
    save_points_csv(cloud, tmp_path / "plain.csv", ["header"])
    data = (tmp_path / "plain.csv").read_bytes()
    folders = [tmp_path / route for route in ("file", "lines", "pipe")]
    for folder in folders:
        folder.mkdir()
    (folders[0] / "in.csv").write_bytes(data)
    (folders[1] / "in.csv").write_bytes(data.replace(b"\n", b"\n  # indented\n", 1))
    os.mkfifo(folders[2] / "in.csv")
    writer = threading.Thread(target=(folders[2] / "in.csv").write_bytes, args=(data,), daemon=True)
    writer.start()
    digests = []
    for folder in folders:
        monkeypatch.chdir(folder)
        assert run(["report", "--in", "in.csv", "--json", "report.json"]) == 0
        digests.append(hashlib.sha256((folder / "report.json").read_bytes()).hexdigest())
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert [isinstance(args[0], str) for args in loadtxt_calls] == [True, False, False]
    assert len(set(digests)) == 1


# --- Writer: the helper interpreter of large saves ----------------------------

# The fewest coordinates a save hands half of to a helper interpreter.
HELPER_MIN_FLOATS = 2**16
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


@contextlib.contextmanager
def helper_spy(code=None, cpus=(0, 1)):
    """The helpers ``save_points_csv`` starts, with ``cpus`` usable.

    Yields the list of started ``Popen`` objects. ``code``, if given, replaces
    the helper's program: a stand-in for a helper that fails.
    """
    started = []
    original = subprocess.Popen

    def spy(args, **kwargs):
        if code is not None:
            args = [*args[: args.index("-c") + 1], code, *args[args.index("-c") + 2 :]]
        started.append(original(args, **kwargs))
        return started[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subprocess, "Popen", spy)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        yield started


def assert_saved_as(path, expected: str) -> None:
    """The file holds exactly ``expected``, or the first bytes that differ are shown.

    (pytest's own diff of two megabyte texts takes minutes.)
    """
    got, want = path.read_bytes(), expected.encode("utf-8")
    if got != want:
        at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        at = min(len(got), len(want)) if at is None else at
        pytest.fail(f"bytes differ at {at}: {got[at : at + 40]!r} != {want[at : at + 40]!r}")


def assert_helper_ran(started):
    assert [proc.returncode for proc in started] == [0]


def helper_sized_cloud(d, seed=0, extra=0):
    """An odd number of rows, at least HELPER_MIN_FLOATS coordinates."""
    n = -(-HELPER_MIN_FLOATS // d) + extra
    n += 1 - n % 2
    return np.random.default_rng(seed).normal(size=(n, d)) * 10.0 ** (seed % 6 - 3)


@pytest.mark.parametrize(
    "d, floats, runs",
    [
        (1, HELPER_MIN_FLOATS - 1, False),
        (1, HELPER_MIN_FLOATS, True),
        (2, HELPER_MIN_FLOATS, True),
        (3, HELPER_MIN_FLOATS - 2, False),
        (3, HELPER_MIN_FLOATS + 2, True),
    ],
)
def test_helper_starts_from_the_threshold(tmp_path, d, floats, runs):
    points = np.random.default_rng(d).random(floats // d * d).reshape(-1, d)
    with helper_spy() as started:
        save_points_csv(PointCloud(points), tmp_path / "pts.csv")
    assert len(started) == runs
    assert_saved_as(tmp_path / "pts.csv", points_to_csv(PointCloud(points)))


def test_helper_not_started_on_one_cpu(tmp_path):
    points = helper_sized_cloud(2)
    with helper_spy(cpus=[0]) as started:
        save_points_csv(PointCloud(points), tmp_path / "pts.csv")
    assert started == []
    assert_saved_as(tmp_path / "pts.csv", points_to_csv(PointCloud(points)))


# Each example formats 2**16 floats twice: shrinking a failure would take minutes.
@settings(max_examples=12, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(
    d=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=5),
    edges=st.lists(
        st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(EDGE_FLOATS), st.booleans()),
        max_size=8,
    ),
    comments=st.lists(st.text(max_size=12), max_size=2),
)
def test_helper_save_matches_points_to_csv(tmp_path_factory, d, extra, seed, edges, comments):
    points = helper_sized_cloud(d, seed, extra)
    n = len(points)
    # Edge values on both sides of the split, at n - n // 2.
    for where, value, sign in edges:
        points[int(where * n), int(where * d * n) % d] = -value if sign else value
    points[n - n // 2 - 1, 0], points[n - n // 2, d - 1] = EDGE_FLOATS[seed], EDGE_FLOATS[-1 - seed]
    cloud = PointCloud(points)
    path = tmp_path_factory.mktemp("save") / "pts.csv"
    with helper_spy() as started:
        save_points_csv(cloud, path, comments)
    assert_helper_ran(started)
    assert_saved_as(path, points_to_csv(cloud, comments))


def test_helper_save_round_trips_bits(tmp_path):
    points = helper_sized_cloud(3, seed=4)
    points[::97] = np.resize(EDGE_FLOATS + [-v for v in EDGE_FLOATS], points[::97].shape)
    with helper_spy() as started:
        save_points_csv(PointCloud(points), tmp_path / "pts.csv", ["header"])
    assert_helper_ran(started)
    assert load_points_csv(tmp_path / "pts.csv").points.tobytes() == points.tobytes()


def test_helper_save_mode_follows_umask(tmp_path):
    cloud = PointCloud(helper_sized_cloud(2))
    with helper_spy() as started:
        modes = written_modes(tmp_path, lambda path: save_points_csv(cloud, path))
    assert [proc.returncode for proc in started] == [0, 0]
    assert modes == [(0o644, 0o644), (0o600, 0o600)]


def test_helper_that_cannot_start_falls_back(tmp_path, monkeypatch):
    def no_process(*args, **kwargs):
        raise OSError("no process for you")

    cloud = PointCloud(helper_sized_cloud(2))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    save_points_csv(cloud, tmp_path / "pts.csv", ["c"])
    assert_saved_as(tmp_path / "pts.csv", points_to_csv(cloud, ["c"]))


@pytest.mark.parametrize(
    "code",
    [
        "import sys; sys.exit(3)",  # before reading: the feed breaks its pipe
        # Rows past the true tail's end, then failure: all of them are taken out.
        "import sys; sys.stdin.buffer.read(); print('9,9\\n' * 10**6); sys.exit(1)",
    ],
)
def test_failing_helper_falls_back(tmp_path, code):
    cloud = PointCloud(helper_sized_cloud(2, seed=1))
    with helper_spy(code) as started:
        save_points_csv(cloud, tmp_path / "pts.csv", ["c"])
    assert [proc.returncode != 0 for proc in started] == [True]
    assert_saved_as(tmp_path / "pts.csv", points_to_csv(cloud, ["c"]))
    assert [p.name for p in tmp_path.iterdir()] == ["pts.csv"]


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
def test_interrupted_save_leaves_target_and_no_process(tmp_path, monkeypatch, error):
    target = tmp_path / "pts.csv"
    target.write_text("old\n")
    real_fdopen = os.fdopen

    def fdopen(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)
        write, writes = handle.write, []

        def failing_write(text):
            writes.append(len(text))
            if len(writes) == 3:  # the comments, then two chunks of rows
                raise error
            return write(text)

        handle.write = failing_write
        return handle

    with helper_spy() as started:
        monkeypatch.setattr(os, "fdopen", fdopen)
        with pytest.raises(error):
            save_points_csv(PointCloud(helper_sized_cloud(2)), target, ["c"])
    assert len(started) == 1 and started[0].returncode is not None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pts.csv"]


@pytest.mark.parametrize("helper", ["one cpu", "no process"])
def test_save_holds_no_text_of_the_whole_cloud(tmp_path, monkeypatch, helper):
    # Every save writes its rows in chunks, with or without a helper: the file's
    # text is over twice the cloud's bytes, so no copy of it fits in the bound.
    def no_process(*args, **kwargs):
        raise OSError("no process for you")

    cloud = henon_orbit(HenonParams(samples=2 * 10**5))
    cpus = {0} if helper == "one cpu" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    path = tmp_path / "pts.csv"
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        save_points_csv(cloud, path, ["header"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 2 * cloud.points.nbytes
    assert peak - base < 1.0 * cloud.points.nbytes
    assert_saved_as(path, points_to_csv(cloud, ["header"]))


def test_helper_feed_ignores_the_temp_dir_environment(tmp_path, monkeypatch):
    # The helper's input goes to an unnamed file beside the output, wherever
    # TMPDIR and tempfile.tempdir point.
    missing = str(tmp_path / "missing")
    monkeypatch.setattr(tempfile, "tempdir", missing)
    monkeypatch.setenv("TMPDIR", missing)
    cloud = PointCloud(helper_sized_cloud(2, seed=2))
    with helper_spy() as started:
        save_points_csv(cloud, tmp_path / "pts.csv", ["c"])
    assert_helper_ran(started)
    assert_saved_as(tmp_path / "pts.csv", points_to_csv(cloud, ["c"]))
    assert [p.name for p in tmp_path.iterdir()] == ["pts.csv"]
