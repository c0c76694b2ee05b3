"""Span recorder for traced benchmark steps.

A traced step replaces the public layer functions of the loaded ``dimest``
modules with wrappers that record one span per call: name, start, end, the
span that was open when the call began (its parent) and counts taken from
the call's arguments and result. The wrappers are installed from outside the
package; no private name is touched. A function that a later version of the
package removes or renames is skipped and listed as missing, so the traced
run keeps working and its metric reads 0.

Spans stay in memory and are written out once the step ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

# (module, attribute, span name, per-layer metric that takes the span's self
# time). Span names are "<layer>.<function>"; the layer is the dimest module
# that defines the function.
TRACED = (
    ("generators", "henon_orbit", "generators.henon_orbit", "generators.henon_orbit_s"),
    ("generators", "ifs_chaos_game", "generators.ifs_chaos_game", "generators.ifs_chaos_game_s"),
    ("fileio", "save_points_csv", "fileio.save_points_csv", "fileio.save_points_csv_s"),
    ("fileio", "load_points_csv", "fileio.load_points_csv", "fileio.load_points_csv_s"),
    ("geometry", "box_indices", "geometry.box_indices", "geometry.box_indices_s"),
    ("boxcount", "count_boxes", "boxcount.count_boxes", "boxcount.occupancy_s"),
    ("boxcount", "occupancy_series", "boxcount.occupancy_series", "boxcount.occupancy_s"),
    ("boxcount", "count_series", "boxcount.count_series", "boxcount.occupancy_s"),
    (
        "boxcount",
        "count_series_from_histograms",
        "boxcount.count_series_from_histograms",
        "boxcount.occupancy_s",
    ),
    ("boxcount", "volume_estimate", "boxcount.volume_estimate", "boxcount.volume_estimate_s"),
    ("infodim", "entropy_series", "infodim.entropy_series", "infodim.entropy_s"),
    (
        "infodim",
        "entropy_series_from_histograms",
        "infodim.entropy_series_from_histograms",
        "infodim.entropy_s",
    ),
    ("estimation", "build_report", "estimation.build_report", "estimation.build_report_s"),
    ("estimation", "DimensionReport.to_json", "estimation.to_json", "estimation.to_json_s"),
)
SPAN_METRIC = {name: metric for _, _, name, metric in TRACED}


def _arguments(fn, args, kwargs) -> dict:
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _count_csv(fn, args, kwargs, result) -> dict:
    path = _arguments(fn, args, kwargs).get("path")
    return {"fileio.csv_bytes": os.path.getsize(path)} if path is not None else {}


def _count_indices(fn, args, kwargs, result) -> dict:
    # Every occupancy scan maps each point to its cell once.
    return {"geometry.points_indexed": int(result.shape[0]), "boxcount.occupancy_scans": 1}


def _count_occupancy(fn, args, kwargs, result) -> dict:
    return {"boxcount.occupied_cells": sum(int(h.occupied) for h in result)}


def _count_volume(fn, args, kwargs, result) -> dict:
    """Fine cells queried and marked by one neighbourhood-volume estimate.

    The queried count is computed, not observed: the fine grid of step
    eps/4 over the cloud's bounding box inflated by eps, as the estimator
    documents it. The marked count is read back from the returned volume.
    """
    from dimest import bounding_box

    bound = _arguments(fn, args, kwargs)
    cloud, eps = bound.get("cloud"), bound.get("epsilon")
    counts = {
        "boxcount.volume_cells_marked": round(
            result.volume / result.resolution**result.ambient_dim
        )
    }
    if cloud is not None and eps is not None:
        h = float(eps) / 4.0
        queried = 1
        for width in bounding_box(cloud).inflated(float(eps)).widths:
            queried *= max(1, math.ceil(width / h))
        counts["boxcount.volume_cells_queried"] = queried
    return counts


COUNTERS = {
    "fileio.save_points_csv": _count_csv,
    "geometry.box_indices": _count_indices,
    "boxcount.occupancy_series": _count_occupancy,
    "boxcount.volume_estimate": _count_volume,
}


class Recorder:
    """Records nested spans of one process, in call order."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._open: list[dict] = []

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1]["id"] if self._open else None,
                "start": time.perf_counter(),
                "end": None,
                "counts": {},
            }
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            # Counted after the span closes, so counting costs no layer time.
            if counter is not None:
                span["counts"] = counter(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a dimest module refers to it."""
        importlib.import_module("dimest.cli")
        modules = [m for n, m in sys.modules.items() if n == "dimest" or n.startswith("dimest.")]
        for module_name, attr, name, _ in TRACED:
            owner = sys.modules.get(f"dimest.{module_name}")
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name)
            setattr(owner, fn_name, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def take(self, since: int = 0) -> list[dict]:
        """Spans recorded from index ``since`` on, re-numbered from 0."""
        # Steps start with no span open, so a parent never precedes ``since``.
        return [
            dict(s, id=s["id"] - since, parent=None if s["parent"] is None else s["parent"] - since)
            for s in self.spans[since:]
        ]
