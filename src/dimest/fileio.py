"""Point-cloud CSV interchange and atomic file writes.

CSV format: UTF-8 text, one point per line, lines ending at any break
``str.splitlines`` knows. Blank lines are skipped, ``#`` comments take whole
lines, commas separate coordinates, every line has as many of them and each
is a finite float as ``float()`` reads it. Floats are written with ``repr``,
so a save/load round trip is bit exact.

A file is first checked whole, in 64 KiB pieces, each with ``\\r`` read as
``\\n`` and cut after its last line break: once the lines the parser skips
are emptied (blank ones, and ``#`` lines of UTF-8 holding no other break), a
plain file holds only decimal rows. ``np.loadtxt`` then reads a plain regular
file itself by the descriptor's name (``/dev/fd/<fd>``; given the path, numpy
would decompress a ``.gz`` name or fetch a URL), and the array is kept only
if the file's size and times did not change. An indented comment or a line
of only spaces and tabs (``np.loadtxt`` rejects both), a pipe (held whole)
or no ``/dev/fd`` feeds it the lines of the emptied pieces instead, so no
copy of a regular file is held either way.
A file with any other byte (a comment with another line break, a row in
error, bytes that are not UTF-8) is read again whole by a line-by-line
parser, the only source of error messages. Both paths accept the same
inputs, bit for bit.

Every save formats its rows in chunks, so no text of the whole cloud is held.
A large save, on two or more usable CPUs, starts one helper interpreter
(``python -I -S``: isolated, so it reads no ``PYTHON*`` environment variable
and loads no site packages) that formats the second half of the rows, read
from an unnamed temp file in the output's directory, while this process
formats the first. If it cannot start or fails, this process formats the rest
itself; the bytes are the same with or without it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import operator
import os
import re
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError
from .geometry import PointCloud

__all__ = ["load_points_csv", "save_points_csv", "atomic_write_text"]

# The bytes of the rows save_points_csv writes, their line breaks included.
_ROW_BYTES = b"0123456789+-.eE,\n"
# The bytes np.loadtxt either rejects or reads exactly as float() does: a file
# holding no other byte once its skipped lines are emptied is plain.
_PLAIN_BYTES = _ROW_BYTES + b" \t"
# A skipped line's end: an optional comment, "#" then UTF-8 text holding no
# line break str.splitlines knows but \n (\r is read as \n), since
# np.loadtxt ends a comment at \n only. A piece holding such a line is
# checked to be UTF-8 whole, so these bytes are whole characters.
_COMMENT = rb"(?:#(?:(?!\xc2\x85|\xe2\x80[\xa8\xa9])[^\n\x0b\x0c\x1c-\x1e])*)?$"
# Lines the parser skips that np.loadtxt skips too: empty, or a comment at column 0.
_SKIPPED = re.compile(rb"^" + _COMMENT, re.MULTILINE)
# Lines the parser skips that np.loadtxt rejects in a file: spaces and tabs
# only, or a comment after them. Emptied, they are lines it skips too.
_INDENTED = re.compile(rb"^[ \t]+" + _COMMENT, re.MULTILINE)
# The fstat fields that show a file changed after it was checked.
_STAMP = operator.attrgetter("st_size", "st_mtime_ns", "st_ctime_ns")
# Bytes read at a time from a CSV file or from the helper's output, so that
# no copy of a whole file is held.
_PIECE = 1 << 16
# Where an open descriptor has a name np.loadtxt can open: /dev/fd/<fd>.
_FD_DIR = "/dev/fd"

# Clouds of fewer coordinates are saved in this process alone. On a 2-vCPU
# guest the helper starts in about 16 ms and broke even between 2**15 floats
# (45 ms against 41 ms alone) and 2**16 (67 ms against 87 ms).
_HELPER_MIN_FLOATS = 2**16
# The helper: reads SIZE bytes of native float64 values from standard input
# and writes them to standard output as rows of the template ROW, in one write.
# Streaming its rows instead filled the 64 KiB pipe while this process was still
# formatting its half, so the two ran in turn (2*10**5-point generate 0.18 -> 0.29 s).
_HELPER_CODE = """\
import sys
from array import array
row, size = sys.argv[1], int(sys.argv[2])
data = sys.stdin.buffer.read(size)
if len(data) != size:
    sys.exit(1)
values = array("d", data)
sys.stdout.buffer.write((row * (len(values) // row.count("%")) % tuple(values)).encode())
"""
# Coordinates formatted at a time: a chunk's floats and text are freed before
# the next, so a save holds no text of the whole cloud.
_CHUNK_FLOATS = 2**14


def _row_template(d: int) -> str:
    """One CSV row of d floats in shortest repr; the helper formats with it too."""
    return "%r," * (d - 1) + "%r\n"


def _csv_pieces(points: np.ndarray, comments: Sequence[str] = ()):
    """The CSV text in pieces: the comment header, then rows of ``_CHUNK_FLOATS`` coordinates."""
    n, d = points.shape
    # A cloud with no points and no comments is one empty line.
    yield "".join(f"# {c}\n" for c in comments) or ("" if n else "\n")
    row, step = _row_template(d), max(1, _CHUNK_FLOATS // d)
    for start in range(0, n, step):
        chunk = points[start : start + step]
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())


@contextlib.contextmanager
def _atomic_open(path):
    """A text handle on a temp file in ``path``'s directory, renamed onto it on success.

    The file gets the mode a plain ``open(path, "w")`` would: 0o666 & ~umask.
    """
    target = Path(path)
    tmp = f"{target}.{os.urandom(6).hex()}"
    # O_EXCL never opens an existing file or link; the kernel applies the umask.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename, as ``_atomic_open`` does."""
    with _atomic_open(path) as handle:
        handle.write(text)


def points_to_csv(cloud: PointCloud, comments: Sequence[str] = ()) -> str:
    """Serialize a cloud to CSV text, full float precision."""
    return "".join(_csv_pieces(cloud.points, comments))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _start_helper(tail: np.ndarray, path):
    """The helper for ``tail``'s rows, fed from an unnamed file beside ``path``, or None."""
    import subprocess  # here, so that importing dimest loads neither module
    import tempfile

    try:  # a temp file in the output's directory: no variable such as TMPDIR moves it
        with tempfile.TemporaryFile(dir=Path(path).parent) as feed:
            tail.tofile(feed)
            feed.seek(0)
            row = _row_template(tail.shape[1])
            return subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", _HELPER_CODE, row, str(tail.nbytes)],
                stdin=feed, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
    except OSError:  # no helper: every row is formatted here
        return None


def _copy_helper_rows(helper, handle) -> bool:
    """Append the helper's rows to ``handle``; on failure, take them out again."""
    mark = handle.tell()
    for chunk in iter(lambda: helper.stdout.read(_PIECE), b""):
        handle.write(chunk.decode("ascii"))
    if helper.wait() == 0:
        return True
    handle.seek(mark)
    handle.truncate()
    return False


def save_points_csv(cloud: PointCloud, path, comments: Sequence[str] = ()) -> None:
    """Write a cloud to ``path`` atomically, the bytes of :func:`points_to_csv`.

    Rows are formatted ``_CHUNK_FLOATS`` coordinates at a time. A cloud of at
    least ``_HELPER_MIN_FLOATS`` coordinates, on two or more usable CPUs, has
    its second half formatted by one helper interpreter meanwhile, or here if
    that fails; the helper is killed, if still running, and reaped before this
    returns or raises.
    """
    points, n = cloud.points, len(cloud.points)
    usable = sys.executable and not getattr(sys, "frozen", False)
    wanted = points.size >= _HELPER_MIN_FLOATS and usable and _usable_cpus() >= 2
    helper = _start_helper(points[n - n // 2 :], path) if wanted else None
    try:
        split = n if helper is None else n - n // 2
        with _atomic_open(path) as handle:
            handle.writelines(_csv_pieces(points[:split], comments))
            if helper is not None and not _copy_helper_rows(helper, handle):
                handle.writelines(_csv_pieces(points[split:]))
    finally:
        if helper is not None:
            helper.kill()  # a no-op once the helper has been waited for
            helper.wait()
            helper.stdout.close()


def _plain_pieces(handle):
    """The handle's bytes in pieces np.loadtxt reads as the line parser does.

    A b"\\r" read as b"\\n" splits lines where str.splitlines does (a
    b"\\r\\n" gives one more empty line, skipped by both). Each piece is cut
    after its last b"\\n" and yielded with its skipped lines emptied, together
    with how many of them were indented or spaces only. ``ValueError`` at
    any other byte np.loadtxt may read otherwise.
    """
    held = []
    # A last b"\n" ends the last line: one more empty line changes no result.
    for chunk in itertools.chain(iter(lambda: handle.read(_PIECE), b""), [b"\n"]):
        chunk = chunk.replace(b"\r", b"\n")
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            held.append(chunk)
            continue
        piece, held, indented = b"".join([*held, chunk[:cut]]), [chunk[cut:]], 0
        # Rows as save_points_csv writes them hold no byte to empty.
        if piece.translate(None, _ROW_BYTES):
            piece.decode("utf-8")  # UnicodeDecodeError, a ValueError, if not UTF-8
            piece, indented = _INDENTED.subn(b"", piece)
            piece = _SKIPPED.sub(b"", piece)
            if piece.translate(None, _PLAIN_BYTES):
                raise ValueError("not plain")
        yield piece, indented


def _load_plain(handle, fd: int) -> np.ndarray | None:
    """The finite points ``np.loadtxt`` reads from a plain file, else None for the parser.

    ``handle`` is checked whole, then read by numpy by the name of ``fd`` or
    as the lines of its pieces (see the module docstring).
    """
    before = os.fstat(fd)
    name = f"{_FD_DIR}/{fd}"
    try:
        rows = indented = False
        for piece, emptied in _plain_pieces(handle):
            rows = rows or bool(piece.strip(b"\n"))
            indented = indented or bool(emptied)
        if not rows:  # only skipped lines, or empty: the parser says there are no points
            return None
        handle.seek(0)
        if indented or not os.path.isfile(name):  # a pipe, or no /dev/fd
            pieces = (piece for piece, _ in _plain_pieces(handle))
            lines = itertools.chain.from_iterable(map(io.BytesIO, pieces))
            points = np.loadtxt(lines, delimiter=",", ndmin=2)
        else:
            points = np.loadtxt(name, delimiter=",", ndmin=2, encoding="utf-8")
            if _STAMP(os.fstat(fd)) != _STAMP(before):
                return None
    except ValueError:  # left to the line parser, which names the line
        return None
    # PointCloud's rule: NaN propagates to min and max, with no (n, d) bool array.
    if not (points.size and np.isfinite(points.min()) and np.isfinite(points.max())):
        return None
    points.setflags(write=False)  # adopted by the cloud, not copied
    return points


def load_points_csv(path) -> PointCloud:
    """Parse a point-cloud CSV file; errors name the offending 1-based line.

    A plain file, with UTF-8 comments and blank lines anywhere and ``\\n``,
    ``\\r\\n`` or ``\\r`` breaks, is checked in pieces and then read by
    ``np.loadtxt`` (see the module docstring); a pipe, which cannot be read
    twice, is held whole.
    """
    try:
        with open(path, "rb") as file:
            handle = file if file.seekable() else io.BytesIO(file.read())
            points = _load_plain(handle, file.fileno())
            if points is None:
                handle.seek(0)
                data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if points is not None:
        return PointCloud(points)
    # The reference parser, one line at a time: the only source of errors.
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise InputError(f"{path}: not valid UTF-8") from None
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            values = [float(f) for f in fields]
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
    points = np.asarray(rows, dtype=float)
    points.setflags(write=False)
    return PointCloud(points)
