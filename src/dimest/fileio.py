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
"""

from __future__ import annotations

import io
import os
import re
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


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same directory.

    The file gets the mode a plain ``open(path, "w")`` would: 0o666 & ~umask.
    """
    target = Path(path)
    tmp = f"{target}.{os.urandom(6).hex()}"
    # O_EXCL never opens an existing file or link; the kernel applies the umask.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def points_to_csv(cloud: PointCloud, comments: Sequence[str] = ()) -> str:
    """Serialize a cloud to CSV text, full float precision."""
    n, d = cloud.points.shape
    rows = (("%r," * (d - 1) + "%r\n") * n) % tuple(cloud.points.ravel().tolist())
    # A cloud with no points and no comments is one empty line.
    return "".join(f"# {c}\n" for c in comments) + rows or "\n"


def save_points_csv(cloud: PointCloud, path, comments: Sequence[str] = ()) -> None:
    """Write a cloud to ``path`` atomically."""
    atomic_write_text(path, points_to_csv(cloud, comments))


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
    return PointCloud(np.asarray(rows, dtype=float))
