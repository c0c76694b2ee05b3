"""Grid-occupancy counting and neighborhood-volume estimation.

Two independent routes to the same dimension:

* count the half-open grid cells a cloud occupies at each scale of a
  schedule (``count_boxes`` / ``count_series``), and
* estimate the d-volume of the epsilon-neighborhood of the cloud by marking
  fine-grid cells whose centers lie within epsilon of a point; only cells
  next to occupied ones are examined, so the cost follows the occupied cells,
  up to ``VOLUME_MAX_CELLS`` (``volume_estimate`` / ``volume_estimates`` /
  ``volume_dimension``). Euclidean stencils around the occupied fine cells
  settle most of them; only the ring the stencils leave undecided is queried
  on a KD-tree. The tree is built on the calling thread; the ring is queried
  mostly on one worker thread, while the next scale's bitmaps are built.

For a set of dimension s in R^d the occupied count grows like eps**-s while
the neighborhood volume shrinks like eps**(d-s), so the two estimators agree
in the limit; keeping both implemented separately makes that agreement a
checkable property rather than a tautology. Only the volume route needs
scipy (its KD-tree), imported at the first tree build; counting runs on numpy.

Occupancy is stored sparsely (occupied cells only) keyed by integer index
vectors, which scales to millions of points; histograms list their cells in
lexicographic index order so all downstream reductions are deterministic.

On a dyadic schedule, with every scale exactly ``2.0**-k`` for an integer
k >= 0, the points are indexed only at the finest scale k_max: dividing by
``2**-k`` is then an exact multiplication, so
``floor(y * 2**k) == floor(y * 2**k_max) >> (k_max - k)`` (the arithmetic
shift floors negative indices too; every index has ``|i| < 2**62``, so any
shift past 62 floors alike). Histograms index the whole cloud into one
``(n, d)`` array and take each coarser scale's lexicographic rows and counts
from the finer one's, shifted and merged (``_unique_index_counts``).

Counts alone build no such array. Indexing is monotone in each coordinate
(the subtraction, the division by a positive epsilon and the floor all keep
order), so the bounding-box corners hold the least and greatest index on each
axis. From them each axis is offset by a multiple of ``2**(k_max - k_min)``
(of ``2**62`` past that), which makes the indices non-negative and keeps
``(i - o) >> s == (i >> s) - (o >> s)`` at every scale. The offset indices
of each point interleave their bits into one Z-order (Morton) key, 32-bit
when the ``d * bits`` bits of the finest scale fit and 64-bit otherwise; the
keys are built a chunk of points at a time (``_KEY_ROWS``), sorted once and
run-length encoded. A cell at scale k is the key shifted right by
``d * (k_max - k)``, still sorted, so each coarser scale merges runs of the
finer one's cells (``np.add.reduceat``) without another sort. A key holds
``63 // d`` bits an axis; the finer scales of wider spans are merged as
histograms are, from an index array freed after the finest merge, and the
keys of the coarser scales are then built from the points again. Other
schedules, negative k among them (where ``y / 2**-k`` can round a tiny
negative ``y`` to -0.0), count each scale in a one-scale pass, which shifts
nothing; their histograms index every scale.

Each scale's count n(eps) and entropy S(eps) (``occupancy_entropy``) are
taken as the pass reaches it, and each cloud keeps only these scalars of its
last pass, so ``count_series`` then ``entropy_series`` index the points once.
Histograms are built, and kept with the scalars, only when
``occupancy_series`` asks for them.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimation import volume_scaling_dimension
from .geometry import GridSpec, PointCloud, ScaleSchedule, bounding_box, box_indices

__all__ = [
    "OccupancyHistogram",
    "CountSeries",
    "VolumeEstimate",
    "count_boxes",
    "resolve_anchor",
    "occupancy_entropy",
    "occupancy_scalars",
    "occupancy_series",
    "count_series",
    "volume_estimate",
    "volume_estimates",
    "volume_dimension",
]

# Each coarse cell near the cloud is 4**d fine cells to examine.
VOLUME_MAX_DIM = 3

# Most fine cells one volume estimate may examine, not all of them queried:
# over 6x the 5.3e6 of a 10**6-point Henon orbit at epsilon = 2**-12.
VOLUME_MAX_CELLS = 1 << 25

# The volume KD-tree of each cloud: immutable and hashed by identity, a cloud
# cannot outdate its tree, which is freed with it.
_TREES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# The last occupancy pass of each cloud, keyed by anchor and schedule: its
# counts and entropies, and its histograms once occupancy_series asked for
# them; freed with the cloud.
_PASSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# Points indexed at a time while their Z-order keys are built; a chunk's
# temporaries take a few MB. On a 10**6-point Henon orbit at dyadic(3, 14)
# (in process, 2 vCPU, median of 12) 2**13 to 2**16 rows time the scalar pass
# alike, 47-49 ms, while 2**18 takes 55 ms and 2**20 65 ms.
_KEY_ROWS = 1 << 16


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
    which is much faster than row-wise unique and bit-identical to it. Keys
    spanning no more cells than there are rows are tallied densely, else sorted.
    """
    # Column by column: numpy reduces an (n, d) array along axis 0, and
    # broadcasts over its rows, an order of magnitude slower.
    cols = idx.T
    lo = np.array([col.min() for col in cols])
    dims = tuple(int(col.max() - low + 1) for col, low in zip(cols, lo))
    capacity = math.prod(dims)
    if capacity >= 2**63:
        # Too wide to pack: sort the rows column by column (np.lexsort takes
        # the most significant key last) and merge runs of equal rows.
        order = np.lexsort(cols[::-1])
        cols = [col[order] for col in cols]
        starts = _run_starts(*cols)
        if weights is None:
            counts = np.diff(np.append(starts, len(order)))
        else:
            counts = np.add.reduceat(weights[order], starts)
        cols = [col[starts] for col in cols]  # frees the sorted columns
        return np.stack(cols, axis=1), counts
    keys = cols[0] - lo[0]  # C-order mixed-radix packing, as np.ravel_multi_index
    for col, low, size in zip(cols[1:], lo[1:], dims[1:]):
        keys *= size  # in place: only col - low is a temporary of the keys' size
        keys += col - low
    if capacity <= len(keys):
        tally = np.zeros(capacity, dtype=np.int64)
        np.add.at(tally, keys, 1 if weights is None else weights)
        ukeys = np.flatnonzero(tally)
        counts = tally[ukeys]
    elif weights is None:
        ukeys, counts = np.unique(keys, return_counts=True)
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = _run_starts(keys)
        ukeys, counts = keys[starts], np.add.reduceat(weights[order], starts)
        del keys, order, starts  # freed before the rows are built
    rows = np.stack(np.unravel_index(ukeys, dims), axis=1, dtype=np.int64)
    rows += lo
    return rows, counts


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Positions where a run of equal rows starts in equal-length columns sorted as rows."""
    starts = np.empty(len(cols[0]), dtype=bool)
    starts[:1] = True
    np.not_equal(cols[0][1:], cols[0][:-1], out=starts[1:])
    for col in cols[1:]:
        starts[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(starts)


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


def occupancy_entropy(counts, total: int) -> float:
    """Shannon information in bits of cells holding ``counts`` of ``total`` points.

    Summed by count class: ``-sum_j m_j * t_j`` over the distinct counts
    (``m_j`` cells each), with ``t_j = p_j * log2(p_j)`` and
    ``p_j = count_j / total`` as numpy computes them. Each ``t_j`` is a dyadic
    rational, so the sum is exact in integers, and one int/int division
    rounds it correctly, as ``math.fsum`` over the cells does: the same double
    in any cell order.

    The probabilities need no sum check: the counts of an occupancy pass sum
    to ``total`` exactly, and each ``p_j`` is off by a relative 3 * 2**-53 at
    most (count and total to float, then the division), so the exact class
    sum is within 3 * 2**-53 of 1.
    """
    values, mult = np.unique(counts, return_counts=True)
    if values.size == 0:
        raise InputError("probability vector must be 1-d and non-empty")
    p = values / float(total)
    ratios = [t.as_integer_ratio() for t in (p * np.log2(p)).tolist()]
    den = max(d for _, d in ratios)  # a power of 2, a multiple of every d
    return -(sum(m * n * (den // d) for m, (n, d) in zip(mult.tolist(), ratios)) / den)


def _spread_table(d: int, bits: int) -> np.ndarray:
    """Every ``bits``-bit value with bit j moved to bit d*j, as uint64.

    In "groups of g", bit j of a value sits at bit ``(j // g) * g * d + j % g``:
    g >= bits is the value itself and g = 1 its bits ``d`` apart, their places
    in a d-axis Z-order key. Shifting the upper half of every 2c-bit group up
    by ``c * (d - 1)`` turns groups of 2c into groups of c, for c = ..., 4, 2,
    1 below ``bits``; the mask clears the copies the shift leaves behind.
    """
    x = np.arange(1 << bits, dtype=np.uint64)
    for c in reversed([1 << e for e in range(max(bits - 1, 0).bit_length())]):
        x |= x << (c * (d - 1))
        x &= sum(1 << (j // c * c * d + j % c) for j in range(bits))
    return x


def _zorder_keys(points: np.ndarray, grid: GridSpec, offsets: list, level: int, bits: int):
    """Z-order keys of the ``bits``-bit cells ``(i - offsets) >> level`` of the points.

    ``i`` is each point's index on ``grid``, taken ``_KEY_ROWS`` points at a
    time, so no index array of the whole cloud is built. Axis 0 is the most
    significant; each axis is spread through a table, up to 16 bits at a time.
    The keys are uint32 when their ``d * bits`` bits fit, else uint64.
    """
    d = len(offsets)
    step = max(min(16, 63 // d, bits), 1)
    table = _spread_table(d, step).astype(np.uint32 if d * bits <= 32 else np.uint64)
    keys = np.zeros(len(points), dtype=table.dtype)
    for start in range(0, len(points), _KEY_ROWS):
        out = keys[start : start + _KEY_ROWS]
        idx = box_indices(grid, points[start : start + _KEY_ROWS])
        for axis, (col, offset) in enumerate(zip(idx.T, offsets)):
            col = col - offset
            col >>= level
            for low in range(0, bits, step):
                part = col >> low if low else col
                if bits - low > step:
                    part = part & ((1 << step) - 1)
                spread = table.take(part)
                spread <<= d * low + d - 1 - axis
                out |= spread
        idx = col = part = spread = None  # freed before the next chunk is indexed
    return keys


def _dyadic_scales(cloud: PointCloud, resolved: np.ndarray, schedule: ScaleSchedule, rows: bool):
    """(scale number, cell counts, index rows or None) of a dyadic schedule, finest first.

    Merged scales give their rows, in lexicographic order, when asked for;
    Z-order scales, used only when no rows are, give counts in Z-order. See
    the module docstring.
    """
    ks = schedule.ks
    grid = GridSpec(resolved, schedule.epsilons[-1])
    shifts = [min(int(ks[-1] - k), 62) for k in ks]
    least = 63  # merged below: rows, or cells too wide for a key
    if not rows:
        # Indexing is monotone in each coordinate, so the bounding-box corners
        # hold the least and greatest index on each axis.
        box = bounding_box(cloud)
        with np.errstate(over="ignore"):
            corners = np.floor((np.stack([box.min, box.max]) - resolved) / grid.epsilon)
        if not np.all(np.abs(corners) < 2.0**62):  # the bound of box_indices
            box_indices(grid, cloud.points)  # raises its error for the points
        lowest, highest = corners.astype(np.int64).tolist()
        offsets = [i >> shifts[0] << shifts[0] for i in lowest]
        width = max((i - o).bit_length() for i, o in zip(highest, offsets))
        least = width - 63 // cloud.dim
    idx = box_indices(grid, cloud.points) if least > 0 else None
    cells = counts = keys = None
    for i in range(len(ks) - 1, -1, -1):
        shift = shifts[i]
        if shift < least:
            cells, counts = _unique_index_counts(
                idx if cells is None else cells >> (shift - shifts[i + 1]), counts
            )
            idx = None
            yield i, counts, cells if rows else None
            continue
        level = min(shift, width)
        # Each array is freed as soon as it is used up: the finer keys before
        # the counts are merged, the run starts before the scale is yielded.
        if keys is None:
            cells = None  # free the merged rows before the keys are built
            keys = _zorder_keys(cloud.points, grid, offsets, level, width - level)
            keys.sort()
            starts = _run_starts(keys)
            total, keys = len(keys), keys[starts]
            counts = np.empty_like(starts)
            np.subtract(starts[1:], starts[:-1], out=counts[:-1])
            counts[-1] = total - starts[-1]
        elif level > finer:
            keys >>= cloud.dim * (level - finer)
            starts = _run_starts(keys)
            keys = keys[starts]
            counts = np.add.reduceat(counts, starts)
        starts, finer = None, level
        yield i, counts, None


def _each_scale(cloud: PointCloud, resolved: np.ndarray, epsilons: np.ndarray, rows: bool):
    """(scale number, cell counts, index rows or None) of each scale counted from the points."""
    for i, eps in enumerate(epsilons):
        if rows:
            hist = count_boxes(cloud, GridSpec(resolved, eps))[1]
            yield i, hist.counts, hist.indices
        else:  # a one-scale pass on chunked keys, which shifts nothing
            one = ScaleSchedule([eps], [0.0])
            yield i, next(_dyadic_scales(cloud, resolved, one, False))[1], None


def _occupancy(cloud: PointCloud, schedule: ScaleSchedule, resolved: np.ndarray, histograms: bool):
    """Counts, entropies and (if asked for, else None) histograms of one pass.

    Each cloud keeps its last pass; a later call with the same resolved
    anchor and schedule reuses it unless it asks for histograms the pass
    did not build. Clouds and schedules are immutable, so a kept pass cannot
    be outdated.
    """
    key = (resolved.tobytes(), schedule.ks.tobytes(), schedule.epsilons.tobytes())
    kept = _PASSES.get(cloud)
    if kept is not None and kept[0] == key and (kept[3] is not None or not histograms):
        return kept[1:]
    if len(cloud) == 0:
        raise InputError("empty point set")
    ks, epsilons = schedule.ks, schedule.epsilons
    if np.all(ks == np.floor(ks)) and np.all(ks >= 0) and np.array_equal(epsilons, 2.0**-ks):
        scales = _dyadic_scales(cloud, resolved, schedule, histograms)
    else:
        scales = _each_scale(cloud, resolved, epsilons, histograms)
    n = len(schedule)
    counts, bits, hists = np.empty(n, dtype=np.int64), np.empty(n), [None] * n
    for i, cell_counts, cells in scales:
        counts[i], bits[i] = len(cell_counts), occupancy_entropy(cell_counts, len(cloud))
        if histograms:
            hists[i] = OccupancyHistogram(float(epsilons[i]), cells, cell_counts, len(cloud))
    counts.setflags(write=False)
    bits.setflags(write=False)
    kept = _PASSES[cloud] = (key, counts, bits, tuple(hists) if histograms else None)
    return kept[1:]


def occupancy_series(
    cloud: PointCloud, schedule: ScaleSchedule, anchor=None
) -> list[OccupancyHistogram]:
    """Occupancy histograms at every scheduled scale with a shared anchor.

    Dyadic schedules index the points once and merge each coarser scale's
    rows from the finer one's; other schedules count each scale from the
    points in turn (see the module docstring). Both give the histograms of
    :func:`count_boxes` bit for bit. Only this histogram path holds an
    ``(n, d)`` index array of the whole cloud on any schedule whose spans
    fit a Z-order key: ``count_series`` and ``entropy_series`` build their
    keys a chunk of points at a time, one scale at a time on other schedules.

    The histograms are kept with the counts and entropies while the cloud
    lives, so a second call with the same resolved anchor and schedule
    returns the same immutable histograms in a new list, and a
    ``count_series`` or ``entropy_series`` after it reuses the pass. They
    hold d + 1 int64s per cell of every scale until the cloud is freed or a
    pass with another anchor or schedule replaces them: at ``dyadic(0, 40)``,
    2.9e6 cells or 69.8 MB for a 10**5-point Henon orbit and 634 MB for
    10**6 points (``tracemalloc``).
    """
    resolved = resolve_anchor(cloud, anchor)
    return list(_occupancy(cloud, schedule, resolved, histograms=True)[2])


def occupancy_scalars(cloud: PointCloud, schedule: ScaleSchedule, anchor=None) -> tuple:
    """Occupied counts n(eps) and entropies S(eps) in bits over the schedule.

    Both come from one occupancy pass, of which each cloud keeps only these
    per-scale scalars (the histograms only after :func:`occupancy_series`):
    a second call with the same resolved anchor and schedule indexes nothing.
    The entropies are :func:`occupancy_entropy` of each scale's cell counts.
    """
    counts, bits, _ = _occupancy(cloud, schedule, resolve_anchor(cloud, anchor), histograms=False)
    return counts, bits


def count_series(cloud: PointCloud, schedule: ScaleSchedule, anchor=None) -> CountSeries:
    """Occupied-cell counts n(epsilon) over the schedule, k ascending.

    The counts come from :func:`occupancy_scalars`, so an ``entropy_series``
    on the same cloud, schedule and anchor reuses its pass.
    """
    resolved = resolve_anchor(cloud, anchor)
    return CountSeries(
        ks=schedule.ks,
        epsilons=schedule.epsilons,
        counts=occupancy_scalars(cloud, schedule, resolved)[0],
        anchor=resolved,
        n_points=len(cloud),
    )


def volume_stencils(d: int, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """S_in(mu) and S_out(mu) of :func:`volume_estimate` as ``(6,) * d`` bool arrays.

    Entry ``[|delta_1|, ..., |delta_d|]`` is set when delta satisfies
    ``sum((|delta_i| + 1/2 + mu)**2) < 16``, respectively
    ``sum(max(0, |delta_i| - 1/2 - mu)**2) <= 16``.
    """
    t = np.arange(6.0)
    inner = sum(np.ix_(*[(t + 0.5 + mu) ** 2] * d)) < 16
    outer = sum(np.ix_(*[np.maximum(t - 0.5 - mu, 0) ** 2] * d)) <= 16
    return inner, outer


def volume_estimate(cloud: PointCloud, epsilon: float) -> VolumeEstimate:
    """Dilation estimate of Vol of the epsilon-neighborhood of the cloud.

    Lays a fine grid of step ``h = epsilon/4`` over the bounding box inflated
    by epsilon and marks every fine cell whose center lies within distance
    epsilon of some cloud point; the volume is (marked cells) * h**d. Only the
    fine cells of the coarse cells (side 4h = epsilon) that hold or neighbor a
    point are examined, a bitmap row each, so the cost grows with the occupied
    cells, not the box; over ``VOLUME_MAX_CELLS`` raise InputError before any query,
    as for an epsilon whose grid or volume would overflow a float, or whose
    cell volume ``h**d`` underflows to 0.

    A point of fine cell f is within (|delta_i| + 1/2) h of the center of
    f + delta on each axis, and at least max(0, |delta_i| - 1/2) h from it.
    Rounding widens both by mu cells an axis (which moves their norms by mu
    or more): with h a normal float and the inflated box within R h of 0,
    R <= 2**48 (else InputError), the index moves by R * 2**-51 cells, the
    center by R * 2**-51 h and the distance by a relative 2**-50 (under
    8 * 2**-50 h) at most, to first order, so mu = (R + 8) * 2**-50: 1/4 at
    the guard, about 1e-12 for coordinates near 1 and h near 1e-3. Every cell
    of S_in(mu) (:func:`volume_stencils`) around an occupied fine cell is then
    marked and counted without a query, no cell outside S_out(mu) around all
    of them is marked, and only the cells in between, inside the grid, are
    queried. At mu = 0 no offset lies on a boundary (a sum of one to three odd
    squares is never 64), so a small mu gives the exact-geometry stencils.
    S_in lies within Chebyshev distance 3 for any mu, and f at least 3 cells
    inside the grid, so sure cells are in it; for any mu the guard allows,
    S_in holds the Chebyshev cube of radius 2, 2, 1 (d = 1, 2, 3) and S_out
    lies within 4.

    Each stencil is downward closed in every |delta_i|, so a union of boxes,
    and a box dilation grows cells a step at a time along each axis. Horner's
    rule over the first axis takes the union: grow the sum a step, add the
    dilation by the section at the next offset down (in 3-D, built the same
    way over the second axis); the innermost sections, nested intervals,
    extend one chain. At most three bitmaps are live: the sure cells wait 8
    to a byte while the reach is dilated.

    The one KD-tree per cloud is unbalanced with loose node boxes, the cheaper
    build. ``dist <= epsilon`` depends only on per-pair distances, alike in any
    tree: the bound epsilon * (1 + 1e-12) keeps a pair at exactly epsilon, and
    a node is pruned only if its lower bound, off by rounding far under that
    slack, exceeds the bound or the best pair found. So trees differ only if a
    best pair a rounding error past epsilon hides one within it. The tree is
    built on the calling thread, on first use, once the first scale's bitmaps
    are built; the ring is queried on it a block at a time, mostly on one
    worker thread (:func:`volume_estimates`).
    """
    return volume_estimates(cloud, [epsilon])[0]


def volume_estimates(cloud: PointCloud, epsilons: Iterable[float]) -> list[VolumeEstimate]:
    """:func:`volume_estimate` at each epsilon, in order, the same volumes.

    The calling thread checks each scale and builds its bitmaps, where the
    serial loop would raise the same InputError, and hands each block of the
    ring's centers, 2**16 fine cells at most, to one worker thread, which only
    queries the KD-tree (releasing the GIL) and counts the marked centers.
    So the queries of one scale run while the next scale's bitmaps are built.
    At most two blocks are live: a block waits for the worker's last one to
    end, except on the last scale, which has no bitmaps left to build; there
    the calling thread queries a block itself while the worker is busy. Errors
    surface in scale order, and the worker ends before the call returns.
    """
    scales = []  # per scale: [epsilon, fine step h, marked cells]
    pending = None  # (scale number, future) of the block on the worker
    tree = pool = None

    def count(centers, eps):  # the worker's task: no traced dimest function
        dist, _ = tree.query(centers, k=1, distance_upper_bound=eps * (1 + 1e-12))
        return int(np.count_nonzero(dist <= eps))

    def collect():  # waits for the worker's block, if any, and adds its count
        nonlocal pending
        if pending is not None:
            (i, future), pending = pending, None
            scales[i][2] += future.result()

    epsilons = list(epsilons)
    try:
        for i, epsilon in enumerate(epsilons):
            ring = _volume_ring(cloud, epsilon)
            scales.append(list(next(ring)))  # checks the scale, counts its sure cells
            if pool is None:
                tree = _TREES.get(cloud)
                if tree is None:  # imported here, so that importing dimest loads no scipy
                    from scipy.spatial import cKDTree

                    tree = cKDTree(cloud.points, balanced_tree=False, compact_nodes=False)
                    _TREES[cloud] = tree
                from concurrent.futures import ThreadPoolExecutor  # scipy.spatial loads it too

                pool = ThreadPoolExecutor(1, thread_name_prefix="dimest-volume")
            last, eps = i == len(epsilons) - 1, scales[i][0]
            for centers in ring:
                if last and pending is not None and not pending[1].done():
                    scales[i][2] += count(centers, eps)  # no bitmap left to build
                else:
                    collect()
                    pending = i, pool.submit(count, centers, eps)
                centers = None  # the next block is built beside the worker's alone
        collect()
    except BaseException:
        collect()  # an earlier block's error surfaces first
        raise
    finally:
        if pool is not None:
            pool.shutdown()
    d = cloud.dim
    return [VolumeEstimate(eps, n * h**d, h, d) for eps, h, n in scales]


def _volume_ring(cloud: PointCloud, epsilon: float):
    """Checks one scale of :func:`volume_estimate` and marks its sure cells.

    Yields ``(epsilon, h, sure cells)``, then the centers of the ring's fine cells
    inside the grid, as ``(m, d)`` arrays of 2**16 cells at most.
    """
    if len(cloud) == 0:
        raise InputError("empty point set")
    if cloud.dim > VOLUME_MAX_DIM:
        raise InputError(f"volume estimator limited to d <= {VOLUME_MAX_DIM}")
    eps = float(epsilon)
    if not np.isfinite(eps) or eps <= 0:
        raise InputError(f"epsilon must be a positive real, got {epsilon}")

    h, d = eps / 4.0, cloud.dim
    box = bounding_box(cloud)
    # An epsilon of 2**-1073 or less makes h zero, the widths over it nan or infinite.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lo, hi = box.min - eps, box.max + eps  # the box inflated by epsilon
        shape = np.ceil((hi - lo) / h)
        # At most VOLUME_MAX_CELLS cells are marked, so the volume is finite too.
        cell = np.float64(h) ** d
        unit = cell * VOLUME_MAX_CELLS
    span = np.abs([lo, hi]).max()
    if np.isfinite(span) and not (h >= 2.0**-1022 and span <= 2.0**48 * h):
        raise InputError("epsilon too small for coordinate range")
    # An infinite span makes the widths, so the shape, infinite too.
    if not np.isfinite([*shape, unit]).all():
        raise InputError("epsilon too large for coordinate range")
    if cell == 0:  # h under about 1.6e-162 at d = 2, 1.4e-108 at d = 3
        raise InputError("epsilon too small: cell volume h**d underflows to 0")
    shape = [int(size) for size in shape]
    occupied, _ = _unique_index_counts(box_indices(GridSpec(lo, h), cloud.points))
    near, _ = _unique_index_counts(occupied >> 2)
    # The 3**d neighbors axis by axis; near only grows, so the budget stops it early.
    for step in np.eye(d, dtype=np.int64):
        near, _ = _unique_index_counts(np.concatenate([near - step, near, near + step]))
        if len(near) * 4**d > VOLUME_MAX_CELLS:
            raise InputError(f"too many volume cells at epsilon {eps!r} (over {VOLUME_MAX_CELLS})")

    # Key near cells by their ranks among near's values on each axis, packed:
    # lexicographic, as near is, and under the budget below len(near)**d <= 2**57.
    axes = [np.unique(col) for col in near.T]
    sizes = [len(vals) for vals in axes]
    ranks = [np.searchsorted(vals, col) for col, vals in zip(near.T, axes)]
    n, keys = len(near), np.ravel_multi_index(ranks, sizes)

    def neighbors(axis, step):
        # The rows of near a step along the axis, n where it has none. The step
        # moves only this axis's rank, by one if near has the value, and so the
        # key by the axis's stride.
        vals, rank = axes[axis], ranks[axis] + step
        rank.clip(0, len(vals) - 1, out=rank)
        found = vals[rank] == near[:, axis] + step
        target = keys + step * math.prod(sizes[axis + 1 :])
        row = np.searchsorted(keys, target).clip(max=n - 1)
        found &= keys[row] == target
        return np.where(found, row, n).astype(np.int32)

    # Bitmaps hold 4**d fine cells a near row, and an empty last row that stands
    # for missing neighbors.
    links = [[np.append(neighbors(axis, s), n) for s in (-1, 1)] for axis in range(d)]
    coarse = [np.searchsorted(vals, col) for col, vals in zip((occupied >> 2).T, axes)]
    seed_rows = np.searchsorted(keys, np.ravel_multi_index(coarse, sizes))  # all are in near
    seeds = np.ravel_multi_index((seed_rows, *(occupied & 3).T), (n + 1,) + (4,) * d)
    seeds = seeds.astype(np.int32)  # a bitmap holds under 2**31 cells
    del occupied, ranks, keys  # the links and seeds stand for them from here on

    def seeded():
        bits = np.zeros((n + 1,) + (4,) * d, dtype=bool)
        bits.reshape(-1)[seeds] = True
        return bits

    def grow(bits, axis, times):
        # A cell a step each way along the axis, times over: the end slabs of the
        # neighbor rows are read first, then every row grows in place slab by
        # slab, copying nothing else. A uint32 is 4 cells on the last axis.
        words = bits.view("<u4")[..., 0] if axis < d - 1 else bits
        slab = [words[(slice(None),) * (axis + 1) + (i,)] for i in range(4)]
        below, above = links[axis]
        for _ in range(times):
            low, high = slab[3][below], slab[0][above]
            for i in (3, 2, 1):
                slab[i] |= slab[i - 1]
            for i in (0, 1, 2):
                slab[i] |= slab[i + 1]
            slab[0] |= low
            slab[3] |= high
        return bits

    def dilate(stencil):
        # Cells at an offset in the stencil (over the last stencil.ndim axes)
        # from an occupied fine cell, by Horner's rule over the first of them.
        axis = d - stencil.ndim
        if stencil.ndim == 1:
            return grow(seeded(), axis, np.count_nonzero(stencil) - 1)
        total = chain = None
        last = np.zeros_like(stencil[0])
        for a in reversed(range(len(stencil))):
            if total is not None:
                grow(total, axis, 1)
            if np.array_equal(stencil[a], last):  # empty, or the last section again
                continue
            last = stencil[a]
            if stencil.ndim > 2:
                part = dilate(stencil[a])
            else:  # the sections are nested intervals: extend one chain
                if chain is None:
                    chain, grown = seeded(), 0
                part = grow(chain, axis + 1, np.count_nonzero(stencil[a]) - 1 - grown)
                grown = np.count_nonzero(stencil[a]) - 1
            if total is None:
                total = part.copy() if part is chain else part
            else:
                total |= part
        return total

    inner, outer = volume_stencils(d, (span / h + 8) * 2.0**-50)
    sure = dilate(inner)
    marked = int(np.count_nonzero(sure))
    sure = np.packbits(sure.reshape(n + 1, -1), axis=1)
    reach = dilate(outer)
    del dilate  # it calls itself: a cycle holding links and seeds until a collection
    yield eps, h, marked

    rows = (1 << 16) // 4**d  # 2**16 fine cells a block
    for start in range(0, n, rows):
        ring = reach[start : start + rows]
        certain = np.unpackbits(sure[start : start + rows], axis=1, count=4**d).view(bool)
        ring &= ~certain.reshape(ring.shape)
        # Column by column: row broadcasts over (n, d) arrays are several times slower.
        row, *offsets = np.nonzero(ring)
        fine = [4 * col[row + start] + m for col, m in zip(near.T, offsets)]
        keep = np.logical_and.reduce([(m >= 0) & (m < size) for m, size in zip(fine, shape)])
        yield np.stack([low + (m[keep] + 0.5) * h for low, m in zip(lo, fine)], axis=1)


def volume_dimension(cloud: PointCloud, schedule: ScaleSchedule) -> float:
    """Dimension from neighborhood-volume scaling over the schedule.

    The fit is :func:`~dimest.estimation.volume_scaling_dimension`, the one
    :func:`~dimest.estimation.build_report` uses for ``dim_box_volume``.
    """
    return volume_scaling_dimension(volume_estimates(cloud, schedule.epsilons))
