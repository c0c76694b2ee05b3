"""Every ``np.unique`` call in dimest asks for counts.

Without ``return_counts=True``, numpy 2.4 takes a hash-table path that is 4-10
times slower than its sorting path on int64 values, so a call that dropped the
counts would slow its caller silently.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "dimest").glob("*.py"))


def unique_calls(source: str) -> list[tuple[int, bool]]:
    """(line, passes ``return_counts=True``) of each call of a function named ``unique``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "unique":
            counts = [
                isinstance(k.value, ast.Constant) and k.value.value is True
                for k in node.keywords
                if k.arg == "return_counts"
            ]
            found.append((node.lineno, counts == [True]))
    return found


def test_every_unique_call_asks_for_counts():
    calls = {
        f"{path.name}:{line}": counted
        for path in PACKAGE
        for line, counted in unique_calls(path.read_text(encoding="utf-8"))
    }
    assert calls  # the check found the calls it guards
    assert [where for where, counted in calls.items() if not counted] == []


def test_detector_flags_calls_without_counts():
    source = (
        "np.unique(a, return_counts=True)\n"
        "np.unique(a)\n"
        "numpy.unique(a, axis=0, return_counts=False)\n"
        "unique(a, return_counts=flag)\n"
        "np.unique(a, return_index=True,\n"
        "          return_counts=True)[0]\n"
        "np.unique_counts(a)\n"
    )
    assert unique_calls(source) == [(1, True), (2, False), (3, False), (4, False), (5, True)]
