"""Grid-occupancy counting and neighborhood-volume estimation.

Two independent routes to the same dimension:

* count the half-open grid cells a cloud occupies at each scale of a
  schedule (``count_boxes`` / ``count_series``), and
* estimate the d-volume of the epsilon-neighborhood of the cloud by marking
  fine-grid cells whose centers lie within epsilon of a point; only cells
  next to occupied ones are examined, so the cost follows the occupied cells,
  up to ``VOLUME_MAX_CELLS`` (``volume_estimate`` / ``volume_dimension``).

For a set of dimension s in R^d the occupied count grows like eps**-s while
the neighborhood volume shrinks like eps**(d-s), so the two estimators agree
in the limit; keeping both implemented separately makes that agreement a
checkable property rather than a tautology.

Occupancy is stored sparsely (occupied cells only) keyed by integer index
vectors, which scales to millions of points; cells are kept in lexicographic
index order so all downstream reductions are deterministic.

On a dyadic schedule, with every scale exactly ``2.0**-k`` for an integer
k >= 0, the points are indexed only at the finest scale k_max: dividing by
``2**-k`` is then an exact multiplication, so
``floor(y * 2**k) == floor(y * 2**k_max) >> (k_max - k)`` (the arithmetic
shift floors negative indices too), and each coarser histogram is the finer
one's cells shifted and merged. Other schedules, negative k among them (where
``y / 2**-k`` can round a tiny negative ``y`` to -0.0), index every scale.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InputError
from .estimation import volume_scaling_dimension
from .geometry import GridSpec, PointCloud, ScaleSchedule, bounding_box, box_indices

__all__ = [
    "OccupancyHistogram",
    "CountSeries",
    "VolumeEstimate",
    "count_boxes",
    "resolve_anchor",
    "occupancy_series",
    "count_series",
    "volume_estimate",
    "volume_dimension",
]

# Each coarse cell near the cloud is 4**d fine cells to query.
VOLUME_MAX_DIM = 3

# Most fine cells one volume estimate may query: over 6x the 5.3e6 of a
# 10**6-point Henon orbit at epsilon = 2**-12, and under a minute of queries.
VOLUME_MAX_CELLS = 1 << 25

# The volume KD-tree of each cloud: immutable and hashed by identity, a cloud
# cannot outdate its tree, which is freed with it.
_TREES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# The last occupancy_series result of each cloud, keyed by anchor and schedule,
# so counts and entropy on one cloud share a pass; freed with the cloud.
_HISTOGRAMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# Packed keys spanning at most this many cells are tallied in a dense array
# (8 MB of int64) rather than sorted.
_DENSE_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class OccupancyHistogram:
    """Per-cell point counts at one scale; empty cells are absent.

    ``indices`` is an ``(m, d)`` int64 array of occupied cell indices in
    lexicographic order and ``counts`` the matching point counts, which sum
    to ``total`` (the cloud size).
    """

    epsilon: float
    indices: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        idx = np.asarray(self.indices, dtype=np.int64)
        cnt = np.asarray(self.counts, dtype=np.int64)
        if idx.ndim != 2 or cnt.shape != (idx.shape[0],):
            raise InputError("histogram indices/counts shapes do not match")
        if np.any(cnt < 1):
            raise InputError("histogram has empty cells")
        if int(cnt.sum()) != self.total:
            raise InputError("histogram counts do not sum to the cloud size")
        idx.setflags(write=False)
        cnt.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "counts", cnt)

    @property
    def occupied(self) -> int:
        """Number of occupied cells n(epsilon)."""
        return self.indices.shape[0]


@dataclass(frozen=True, eq=False)
class CountSeries:
    """Occupied-cell counts n(epsilon) over a shared-anchor schedule."""

    ks: np.ndarray
    epsilons: np.ndarray
    counts: np.ndarray
    anchor: np.ndarray
    n_points: int

    def __post_init__(self) -> None:
        ks = np.asarray(self.ks, dtype=float)
        eps = np.asarray(self.epsilons, dtype=float)
        cnt = np.asarray(self.counts, dtype=np.int64)
        anchor = np.asarray(self.anchor, dtype=float)
        if not (ks.shape == eps.shape == cnt.shape) or ks.ndim != 1 or ks.size == 0:
            raise InputError("count series arrays must be 1-d and equally sized")
        if eps.size > 1 and not np.all(np.diff(eps) < 0):
            raise InputError("count series scales must be strictly decreasing")
        if np.any(cnt < 1):
            raise InputError("counts must be at least 1")
        if np.any(cnt > self.n_points):
            raise InputError("counts cannot exceed the number of points")
        for arr in (ks, eps, cnt, anchor):
            arr.setflags(write=False)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "counts", cnt)
        object.__setattr__(self, "anchor", anchor)

    @property
    def entries(self) -> list:
        """Rows (k, epsilon, count) ordered by k ascending."""
        return [
            (float(k), float(e), int(c))
            for k, e, c in zip(self.ks, self.epsilons, self.counts)
        ]

    def __len__(self) -> int:
        return self.ks.size


@dataclass(frozen=True)
class VolumeEstimate:
    """Fine-grid estimate of the epsilon-neighborhood d-volume."""

    epsilon: float
    volume: float
    resolution: float
    ambient_dim: int

    def __post_init__(self) -> None:
        if self.volume <= 0:
            raise InputError("volume estimate must be positive")


def _unique_index_counts(idx: np.ndarray, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows of an int index array, lexicographically sorted, with counts.

    A row counts ``weights[i]`` when given, else 1; sums are exact int64.
    Packs rows into mixed-radix scalar keys when the index spans allow it,
    which is much faster than row-wise unique and bit-identical to it.
    """
    # Column by column: numpy reduces an (n, d) array along axis 0, and
    # broadcasts over its rows, an order of magnitude slower.
    cols = idx.T
    lo = np.array([col.min() for col in cols])
    dims = tuple(int(col.max() - low + 1) for col, low in zip(cols, lo))
    capacity = math.prod(dims)
    if capacity >= 2**63:
        # Too wide to pack: row-wise unique, rows numbered in order.
        rows, keys = np.unique(idx, axis=0, return_inverse=True)
        return rows, _dense_tally(keys.ravel(), weights, rows.shape[0])
    keys = cols[0] - lo[0]  # C-order mixed-radix packing, as np.ravel_multi_index
    for col, low, size in zip(cols[1:], lo[1:], dims[1:]):
        keys = keys * size + (col - low)
    if capacity <= _DENSE_CELLS:
        tally = _dense_tally(keys, weights, capacity)
        ukeys = np.flatnonzero(tally)
        counts = tally[ukeys]
    elif weights is None:
        ukeys, counts = np.unique(keys, return_counts=True)
    else:
        order = np.argsort(keys, kind="stable")  # finer rows come in sorted runs
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        ukeys, counts = keys[starts], np.add.reduceat(weights[order], starts)
    rows = np.stack(np.unravel_index(ukeys, dims), axis=1).astype(np.int64) + lo
    return rows, counts


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d int array, which is sorted in place."""
    keys.sort()
    return keys[np.r_[True, keys[1:] != keys[:-1]]]


def _dense_tally(keys: np.ndarray, weights, size: int) -> np.ndarray:
    """Summed weights (1 per key without them) of each key in ``range(size)``."""
    tally = np.zeros(size, dtype=np.int64)
    np.add.at(tally, keys, 1 if weights is None else weights)
    return tally


def count_boxes(cloud: PointCloud, grid: GridSpec) -> tuple[int, OccupancyHistogram]:
    """Occupied-cell count and per-cell histogram of a cloud on one grid."""
    if len(cloud) == 0:
        raise InputError("empty point set")
    idx = box_indices(grid, cloud.points)
    rows, counts = _unique_index_counts(idx)
    hist = OccupancyHistogram(
        epsilon=grid.epsilon, indices=rows, counts=counts, total=len(cloud)
    )
    return hist.occupied, hist


def resolve_anchor(cloud: PointCloud, anchor=None) -> np.ndarray:
    """The grid anchor: ``anchor`` checked, or the cloud's bounding-box minimum."""
    if anchor is None:
        return bounding_box(cloud).min
    vec = np.asarray(anchor, dtype=float)
    if vec.shape != (cloud.dim,) or not np.all(np.isfinite(vec)):
        raise InputError(f"anchor must be a finite {cloud.dim}-vector")
    return vec


def occupancy_series(
    cloud: PointCloud, schedule: ScaleSchedule, anchor=None
) -> list[OccupancyHistogram]:
    """Occupancy histograms at every scheduled scale with a shared anchor.

    On a dyadic schedule (every scale exactly ``2**-k``, integer k >= 0) the
    points are indexed once, at the finest scale, and each coarser histogram
    is the next finer one's occupied cells shifted right by the difference
    in k and merged. Any other schedule counts each scale from the points in
    turn. Both give the same histograms bit for bit.

    The last result is kept while the cloud lives, so a second call with the
    same resolved anchor and schedule (``count_series`` then
    ``entropy_series``, say) returns the same immutable histograms in a new
    list without indexing the points again. Clouds and schedules are
    immutable, so a kept result cannot be outdated.
    """
    resolved = resolve_anchor(cloud, anchor)
    key = (resolved.tobytes(), schedule.ks.tobytes(), schedule.epsilons.tobytes())
    kept = _HISTOGRAMS.get(cloud)
    if kept is not None and kept[0] == key:
        return list(kept[1])

    def one(eps: float) -> OccupancyHistogram:
        return count_boxes(cloud, GridSpec(anchor=resolved, epsilon=eps))[1]

    ks, epsilons = schedule.ks, schedule.epsilons
    if np.all(ks == np.floor(ks)) and np.all(ks >= 0) and np.array_equal(epsilons, 2.0**-ks):
        hists = [one(epsilons[-1])]
        for i in range(len(schedule) - 2, -1, -1):
            finer = hists[-1]
            # |index| < 2**62, so shifting by 63 floors like any larger shift.
            shift = min(int(ks[i + 1] - ks[i]), 63)
            rows, counts = _unique_index_counts(finer.indices >> shift, finer.counts)
            hists.append(OccupancyHistogram(float(epsilons[i]), rows, counts, finer.total))
        hists.reverse()
    else:
        hists = [one(eps) for eps in epsilons]
    _HISTOGRAMS[cloud] = (key, tuple(hists))
    return hists


def count_series(cloud: PointCloud, schedule: ScaleSchedule, anchor=None) -> CountSeries:
    """Occupied-cell counts n(epsilon) over the schedule, k ascending.

    The counts come from :func:`occupancy_series`, so an ``entropy_series``
    on the same cloud, schedule and anchor reuses its pass.
    """
    resolved = resolve_anchor(cloud, anchor)
    hists = occupancy_series(cloud, schedule, anchor=resolved)
    return CountSeries(
        ks=schedule.ks,
        epsilons=schedule.epsilons,
        counts=np.array([h.occupied for h in hists], dtype=np.int64),
        anchor=resolved,
        n_points=len(cloud),
    )


def volume_estimate(cloud: PointCloud, epsilon: float) -> VolumeEstimate:
    """Dilation estimate of Vol of the epsilon-neighborhood of the cloud.

    Lays a fine grid of step ``h = epsilon/4`` over the bounding box inflated
    by epsilon and marks every fine cell whose center lies within distance
    epsilon of some cloud point; the volume is (marked cells) * h**d. Only the
    fine cells of the coarse cells (side 4h = epsilon) that hold or neighbor a
    point are queried, so the cost grows with the occupied cells, not with the
    box; over ``VOLUME_MAX_CELLS`` of them raise InputError before any query.

    No other cell is marked: a fine cell m two coarse cells from a point p's
    fine cell f on some axis has |m - f| >= 5, so its center lo + (m + 1/2)h
    is at least 4.5h = epsilon + h/2 from p. With h a normal float and every
    coordinate of the inflated box within 2**48 h of 0 (else InputError),
    rounding moves the index by 1/8 cell and the center by h/8 at most (to
    first order), and the distance by a relative 2**-50, leaving over h/4.
    Candidates use the full grid's centers and tree: the same volume bit for bit.

    Nor does a fine cell within Chebyshev distance r_d = 2, 2, 1 of f (d = 1,
    2, 3) need a query: each coordinate of its center lies within (r_d + 1/2)h
    of p, plus h/8 of index and h/8 of center rounding, so the center is at
    most (r_d + 3/4)h sqrt(d) = 2.75h, 3.89h or 3.04h from p, and the distance,
    off by 2**-50 at most, is under epsilon = 4h. Those cells are counted
    without a query; the rest go to one KD-tree per cloud, built on first use
    and kept while the cloud lives.
    """
    if len(cloud) == 0:
        raise InputError("empty point set")
    if cloud.dim > VOLUME_MAX_DIM:
        raise InputError(f"volume estimator limited to d <= {VOLUME_MAX_DIM}")
    eps = float(epsilon)
    if not np.isfinite(eps) or eps <= 0:
        raise InputError(f"epsilon must be a positive real, got {epsilon}")

    box = bounding_box(cloud).inflated(eps)
    lo, h, d = box.min, eps / 4.0, cloud.dim
    if not (h >= 2.0**-1022 and np.abs([lo, box.max]).max() <= 2.0**48 * h):
        raise InputError("epsilon too small for coordinate range")
    shape = [int(np.ceil(w / h)) for w in box.widths]
    occupied, _ = _unique_index_counts(box_indices(GridSpec(lo, h), cloud.points))
    near, _ = _unique_index_counts(occupied >> 2)
    # The 3**d neighbors axis by axis; near only grows, so the budget stops it early.
    for step in np.eye(d, dtype=np.int64):
        near, _ = _unique_index_counts(np.concatenate([near - step, near, near + step]))
        if len(near) * 4**d > VOLUME_MAX_CELLS:
            raise InputError(f"too many volume cells at epsilon {eps!r} (over {VOLUME_MAX_CELLS})")

    # Key fine cells by their coarse cell's rank among near's values on each
    # axis: lexicographic, and under the budget below 4**d * len(near)**d <= 2**63.
    axes = [np.unique(col) for col in near.T]

    def keys(fine):
        key = np.zeros(len(fine[0]), dtype=np.int64)
        for m, vals in zip(fine, axes):
            key = key * (4 * len(vals)) + 4 * np.searchsorted(vals, m >> 2) + (m & 3)
        return key

    # Near holds both coarse neighbors of each occupied cell, so within 4 fine
    # cells of one a fine step is a step of one in that axis's key digit.
    certain, radius = keys(occupied.T), {1: 2, 2: 2, 3: 1}[d]
    for a in range(d):
        stride = math.prod(4 * len(vals) for vals in axes[a + 1 :])
        certain = _distinct(np.add.outer(certain, stride * np.arange(-radius, radius + 1)).ravel())

    tree = _TREES.get(cloud)
    if tree is None:
        tree = _TREES[cloud] = cKDTree(cloud.points)
    offsets = np.unravel_index(np.arange(4**d), (4,) * d)
    marked, rows = 0, (1 << 16) // 4**d  # 2**16 candidates a block: small temporaries
    for start in range(0, len(near), rows):
        # Coarse cells are disjoint, so their fine cells are distinct. Column
        # by column: row broadcasts over (n, d) arrays are several times slower.
        block = near[start : start + rows].T
        fine = [(4 * col[:, None] + off).ravel() for col, off in zip(block, offsets)]
        keep = np.logical_and.reduce([(m >= 0) & (m < n) for m, n in zip(fine, shape)])
        fine = [m[keep] for m in fine]
        key = keys(fine)
        sure = certain[np.searchsorted(certain, key).clip(max=len(certain) - 1)] == key
        centers = np.stack([low + (m[~sure] + 0.5) * h for low, m in zip(lo, fine)], axis=1)
        dist, _ = tree.query(centers, k=1, distance_upper_bound=eps * (1 + 1e-12))
        marked += int(np.count_nonzero(sure)) + int(np.count_nonzero(dist <= eps))
    return VolumeEstimate(epsilon=eps, volume=marked * h**d, resolution=h, ambient_dim=d)


def volume_dimension(cloud: PointCloud, schedule: ScaleSchedule) -> float:
    """Dimension from neighborhood-volume scaling over the schedule.

    The fit is :func:`~dimest.estimation.volume_scaling_dimension`, the one
    :func:`~dimest.estimation.build_report` uses for ``dim_box_volume``.
    """
    return volume_scaling_dimension([volume_estimate(cloud, eps) for eps in schedule.epsilons])
