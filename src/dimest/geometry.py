"""Core geometric types shared by every estimator.

Point clouds, bounding boxes, grid partitions and scale schedules. All types
are immutable after construction and all operations are pure functions, so
everything here can be used concurrently without locking.

Grid cells are half-open: a point ``x`` belongs to the cell with index
``floor((x[i] - anchor[i]) / epsilon)`` on each axis, so boundary points are
owned by exactly one cell. Coordinates are 64-bit floats throughout; index
arithmetic uses exact integer floor.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InputError

__all__ = [
    "PointCloud",
    "BoundingBox",
    "GridSpec",
    "ScaleSchedule",
    "bounding_box",
    "box_indices",
]

# Indices beyond this magnitude would be unsafe to cast to int64.
_INDEX_LIMIT = 2.0**62

_INDEX_ROWS = 1 << 16  # points box_indices scales at a time, a float64 block

# The bounding box of each cloud, freed with it: a cloud is immutable and
# hashed by identity, so its box cannot be outdated.
_BOXES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _as_vector(value, name: str, dim: int | None = None) -> np.ndarray:
    vec = np.asarray(value, dtype=float)
    if vec.ndim != 1:
        raise InputError(f"{name} must be a 1-d vector, got shape {vec.shape}")
    if dim is not None and vec.shape[0] != dim:
        raise InputError(f"{name} has dimension {vec.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{name} has non-finite coordinates")
    return vec


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A finite ordered set of points in R^d.

    Stored as an immutable ``(n, d)`` float64 array. A 1-d input array is
    interpreted as ``n`` points in R^1. All coordinates must be finite;
    estimators additionally require the cloud to be non-empty.

    A read-only C-contiguous float64 array that owns its memory (``base is
    None``) is adopted, not copied; any other input is copied and made read-only.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise InputError(f"points must be an (n, d) array, got shape {pts.shape}")
        if pts.shape[1] == 0:
            raise InputError("points must have at least one coordinate per point")
        # NaN propagates through min and max: no (n, d) bool array is built.
        if pts.size and not (np.isfinite(pts.min()) and np.isfinite(pts.max())):
            raise InputError("point cloud has non-finite coordinates")
        if pts.flags.writeable or pts.base is not None or not pts.flags.c_contiguous:
            pts = pts.copy()
            pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        """Ambient dimension d."""
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class BoundingBox:
    """Axis-aligned box given by componentwise ``min`` and ``max`` corners."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self) -> None:
        lo = _as_vector(self.min, "min corner")
        hi = _as_vector(self.max, "max corner", dim=lo.shape[0])
        if np.any(lo > hi):
            raise InputError("bounding box has min > max on some axis")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)

    @property
    def widths(self) -> np.ndarray:
        return self.max - self.min

    def inflated(self, margin: float) -> "BoundingBox":
        """The box grown by ``margin`` on every face."""
        if margin < 0:
            raise InputError("margin must be non-negative")
        return BoundingBox(self.min - margin, self.max + margin)


def bounding_box(cloud: PointCloud) -> BoundingBox:
    """Tight axis-aligned bounding box of a cloud, computed once per cloud.

    Raises:
        InputError: for an empty cloud.
    """
    if len(cloud) == 0:
        raise InputError("empty point set")
    box = _BOXES.get(cloud)
    if box is None:
        # Columns reduce ~10x faster than axis 0, but may give a +-0.0 extremum
        # the other sign; only then is the axis-0 result used, so the bits agree.
        cols = cloud.points.T
        lo = np.array([col.min() for col in cols])
        hi = np.array([col.max() for col in cols])
        if not (lo.all() and hi.all()):
            lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
        box = _BOXES[cloud] = BoundingBox(lo, hi)
    return box


@dataclass(frozen=True, eq=False)
class GridSpec:
    """An infinite grid of half-open cubes of side ``epsilon``.

    The cell with index ``i`` on one axis covers
    ``[anchor + i*epsilon, anchor + (i+1)*epsilon)``.
    """

    anchor: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        anchor = _as_vector(self.anchor, "grid anchor")
        anchor.setflags(write=False)
        eps = float(self.epsilon)
        if not np.isfinite(eps) or eps <= 0:
            raise InputError(f"epsilon must be a positive real, got {self.epsilon}")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "epsilon", eps)

    @property
    def dim(self) -> int:
        return self.anchor.shape[0]


def box_indices(grid: GridSpec, points: np.ndarray) -> np.ndarray:
    """Cell indices for an ``(n, d)`` array of points, as ``(n, d)`` int64.

    Row i is the index vector of the unique half-open cell holding point i.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise InputError(
            f"points of dimension {pts.shape[-1]} do not match grid dimension {grid.dim}"
        )
    # A block of rows at a time (no float64 twin of the result), column by column
    # and in place: broadcasting the anchor over the rows is several times slower.
    # All points are checked for non-finite values only when an index is out of range.
    out = np.empty(pts.shape, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(pts), _INDEX_ROWS):
            block = np.empty(pts[start : start + _INDEX_ROWS].shape)
            for axis, col in enumerate(pts[start : start + _INDEX_ROWS].T):
                np.subtract(col, grid.anchor[axis], out=block[:, axis])
            block /= grid.epsilon
            np.floor(block, out=block)
            if block.size and not (-_INDEX_LIMIT < block.min() and block.max() < _INDEX_LIMIT):
                if not np.all(np.isfinite(pts)):
                    raise InputError("points have non-finite coordinates")
                raise InputError("box index overflow: epsilon too small for coordinate range")
            out[start : start + len(block)] = block
    return out


@dataclass(frozen=True, eq=False)
class ScaleSchedule:
    """A strictly decreasing sequence of box sides with log-scale labels.

    ``ks`` holds ``log2(1/epsilon)`` for each scale; on dyadic schedules these
    are the integer exponents k of ``epsilon = 2**-k``. A schedule may carry a
    single scale (enough for plain counting); regressions require at least
    two scales and enforce that themselves.
    """

    epsilons: np.ndarray
    ks: np.ndarray

    def __post_init__(self) -> None:
        eps = np.asarray(self.epsilons, dtype=float)
        ks = np.asarray(self.ks, dtype=float)
        if eps.ndim != 1 or eps.size == 0:
            raise InputError("schedule needs at least one scale")
        if ks.shape != eps.shape:
            raise InputError("schedule labels do not match scales")
        if not np.all(np.isfinite(eps)) or np.any(eps <= 0):
            raise InputError("scales must be finite and positive")
        if eps.size > 1 and not np.all(np.diff(eps) < 0):
            raise InputError("scales must be strictly decreasing")
        eps.setflags(write=False)
        ks.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "ks", ks)

    @classmethod
    def dyadic(cls, k_min: int, k_max: int) -> "ScaleSchedule":
        """Scales ``2**-k`` for k = k_min..k_max (inclusive)."""
        try:
            whole = int(k_min) == k_min and int(k_max) == k_max
        except (OverflowError, ValueError):  # int() of an infinite or nan k
            whole = False
        if not whole:
            raise InputError("dyadic exponents must be integers")
        if k_min > k_max:
            raise InputError(f"k_min={k_min} exceeds k_max={k_max}")
        if k_min < -1023 or k_max > 1074:  # 2.0**-k overflows to inf or rounds to 0
            raise InputError("scales must be finite and positive")
        ks = np.arange(int(k_min), int(k_max) + 1, dtype=float)
        with np.errstate(over="ignore"):  # an infinite scale fails the check in cls
            return cls(epsilons=2.0**-ks, ks=ks)

    @classmethod
    def from_epsilons(cls, values: Iterable[float]) -> "ScaleSchedule":
        """A schedule from an explicit strictly decreasing epsilon list."""
        eps = np.asarray(list(values), dtype=float)
        if eps.ndim != 1 or eps.size == 0:
            raise InputError("schedule needs at least one scale")
        if not np.all(np.isfinite(eps)) or np.any(eps <= 0):
            raise InputError("scales must be finite and positive")
        with np.errstate(over="ignore"):
            ks = np.log2(1.0 / eps)
        overflowed = np.isinf(ks)  # 1/eps for eps <= 2**-1024; -log2(eps) is finite
        ks[overflowed] = -np.log2(eps[overflowed])
        return cls(epsilons=eps, ks=ks)

    def __len__(self) -> int:
        return self.epsilons.size
