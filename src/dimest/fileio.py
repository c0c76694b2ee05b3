"""Point-cloud CSV interchange and atomic file writes.

CSV format: UTF-8 text, one point per line, lines ending at any break
``str.splitlines`` knows. Blank lines are skipped, ``#`` comments take whole
lines, commas separate coordinates, every line has as many of them and each
is a finite float as ``float()`` reads it. Floats are written with ``repr``,
so a save/load round trip is bit exact. A file of leading blank and ASCII
``#`` lines then plain decimal rows, as ``save_points_csv`` writes, is read by
one ``np.loadtxt`` call, with lines of only spaces and tabs emptied first; any
other by a line-by-line parser, the only source of error messages. Both paths
accept exactly the same inputs, bit for bit.

A large save, on two or more usable CPUs, starts one helper interpreter
(``python -I -S``: isolated, so it reads no ``PYTHON*`` environment variable
and loads no site packages) that formats the second half of the rows while
this process formats the first. If it cannot start or fails, this process
formats the rest itself; the bytes are the same with or without it.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError
from .geometry import PointCloud

__all__ = ["load_points_csv", "save_points_csv", "atomic_write_text"]

# Leading blank and ASCII comment lines, each one line to str.splitlines too.
_HEADER = re.compile(rb"(?:(?:#[\t -~]*|[ \t]*)(?:\r\n?|\n))*")
# The bytes of rows that np.loadtxt either rejects or reads exactly as
# float() does: a file holding no other byte after its header is plain.
_PLAIN_BYTES = b"0123456789+-.eE,\r\n \t"
# A line of only spaces and tabs after a row: np.loadtxt rejects it, the
# parser skips it, and emptied it is a blank line np.loadtxt skips too.
_BLANK_ROW = re.compile(rb"([\r\n])[ \t]+(?![^\r\n])")

# Clouds of fewer coordinates are saved in this process alone. On a 2-vCPU
# guest the helper starts in about 16 ms and broke even between 2**15 floats
# (45 ms against 41 ms alone) and 2**16 (67 ms against 87 ms).
_HELPER_MIN_FLOATS = 2**16
# The helper: reads SIZE bytes of native float64 values from standard input
# and writes them to standard output as rows of the template ROW.
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
# Coordinates this process formats at a time beside the helper: one format
# holds the GIL, which the thread feeding the helper needs between its writes,
# and a chunk's floats and text are freed before the next.
_CHUNK_FLOATS = 2**14


def _row_template(d: int) -> str:
    """One CSV row of d floats in shortest repr; the helper formats with it too."""
    return "%r," * (d - 1) + "%r\n"


def _rows(points: np.ndarray) -> str:
    n, d = points.shape
    return (_row_template(d) * n) % tuple(points.ravel().tolist())


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
    # A cloud with no points and no comments is one empty line.
    return "".join(f"# {c}\n" for c in comments) + _rows(cloud.points) or "\n"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _feed(stream, data: np.ndarray) -> None:
    try:
        with stream:
            stream.write(data)
    except OSError:  # the helper is gone, and exits non-zero
        pass


def _copy_helper_rows(helper, handle) -> bool:
    """Append the helper's rows to ``handle``; on failure, take them out again."""
    mark = handle.tell()
    for chunk in iter(lambda: helper.stdout.read(1 << 20), b""):
        handle.write(chunk.decode("ascii"))
    if helper.wait() == 0:
        return True
    handle.seek(mark)
    handle.truncate()
    return False


def save_points_csv(cloud: PointCloud, path, comments: Sequence[str] = ()) -> None:
    """Write a cloud to ``path`` atomically, the bytes of :func:`points_to_csv`.

    A cloud of at least ``_HELPER_MIN_FLOATS`` coordinates, on two or more
    usable CPUs, has the rows of its second half formatted by one helper
    interpreter meanwhile; the helper is killed, if still running, and reaped
    before this returns or raises.
    """
    points = cloud.points
    usable = sys.executable and not getattr(sys, "frozen", False)
    if points.size < _HELPER_MIN_FLOATS or not usable or _usable_cpus() < 2:
        atomic_write_text(path, points_to_csv(cloud, comments))
        return
    import subprocess  # here, so that importing dimest loads no subprocess

    n, d = points.shape
    head, tail = points[: n - n // 2], np.ascontiguousarray(points[n - n // 2 :])
    try:
        helper = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _HELPER_CODE, _row_template(d), str(tail.nbytes)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
    except OSError:  # no helper: every row is formatted here
        atomic_write_text(path, points_to_csv(cloud, comments))
        return
    feeder = threading.Thread(target=_feed, args=(helper.stdin, tail))
    try:
        feeder.start()
        with _atomic_open(path) as handle:
            handle.write("".join(f"# {c}\n" for c in comments))
            step = max(1, _CHUNK_FLOATS // d)
            for start in range(0, len(head), step):
                handle.write(_rows(head[start : start + step]))
            if not _copy_helper_rows(helper, handle):
                handle.write(_rows(tail))
    finally:
        helper.kill()  # a no-op once the helper has been waited for
        helper.wait()
        if feeder.is_alive():
            feeder.join()
        helper.stdin.close()
        helper.stdout.close()


def load_points_csv(path) -> PointCloud:
    """Parse a point-cloud CSV file; errors name the offending 1-based line."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    start = _HEADER.match(data).end()
    if start < len(data) and not data[start:].translate(None, _PLAIN_BYTES):
        stream = io.BytesIO(data)
        stream.seek(start)
        # Rows as save_points_csv writes them hold no space or tab to blank.
        if data.find(b" ", start) >= 0 or data.find(b"\t", start) >= 0:
            stream = io.BytesIO(_BLANK_ROW.sub(rb"\1", data[start:]))
        try:
            points = np.loadtxt(stream, delimiter=",", ndmin=2)
        except ValueError:  # left to the line parser, which names the line
            pass
        else:
            if points.size and np.isfinite(points).all():
                points.setflags(write=False)  # adopted by the cloud, not copied
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
