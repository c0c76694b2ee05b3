"""Grid-occupancy counting and neighborhood-volume estimation.

Two independent routes to the same dimension:

* count the half-open grid cells a cloud occupies at each scale of a
  schedule (``count_boxes`` / ``count_series``), and
* estimate the d-volume of the epsilon-neighborhood of the cloud by marking
  fine-grid cells whose centers lie within epsilon of a point; only cells
  next to occupied ones are examined, so the cost follows the occupied cells,
  up to ``VOLUME_MAX_CELLS`` (``volume_estimate`` / ``volume_dimension``).
  Euclidean stencils around the occupied fine cells settle most of them; only
  the ring the stencils leave undecided is queried on a KD-tree.

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
shift floors negative indices too). Each axis is offset by a multiple of
``2**(k_max - k_min)`` (of ``2**62`` past that; every index has
``|i| < 2**62``, so any larger shift floors alike), which makes the indices
non-negative and keeps ``(i - o) >> s == (i >> s) - (o >> s)`` at every
scale. Their bits are interleaved axis by axis into one Z-order (Morton) key,
sorted once and run-length encoded. A cell at scale k is then the key shifted
right by ``d * (k_max - k)``: the shift of a sorted array is still sorted, so
each coarser scale merges runs of the finer one's cells (``np.add.reduceat``)
without another sort. Keys have 63 bits, ``63 // d`` per axis; scales whose
offset indices need more bits than that (the finest scales of very wide
spans) are counted one by one from the shifted finest indices, as every
scale of any other schedule is. Other schedules, negative k among them (where
``y / 2**-k`` can round a tiny negative ``y`` to -0.0), index every scale.

Each scale's count n(eps) and entropy S(eps) (``occupancy_entropy``) are
taken as the pass reaches it, and each cloud keeps only these scalars of its
last pass, so ``count_series`` then ``entropy_series`` index the points once.
Histograms are built, and kept with the scalars, only when
``occupancy_series`` asks for them: each Z-order scale's keys are then
de-interleaved and its cells put in lexicographic order.
"""

from __future__ import annotations

import math
import weakref
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
    "volume_dimension",
]

# Each coarse cell near the cloud is 4**d fine cells to examine.
VOLUME_MAX_DIM = 3

# Most fine cells one volume estimate may examine, not all of them queried:
# over 6x the 5.3e6 of a 10**6-point Henon orbit at epsilon = 2**-12.
VOLUME_MAX_CELLS = 1 << 25

# scipy's KD-tree class, bound by the first tree build in volume_estimate,
# the only user of scipy, so that importing dimest does not load scipy.
cKDTree = None

# The volume KD-tree of each cloud: immutable and hashed by identity, a cloud
# cannot outdate its tree, which is freed with it.
_TREES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# The last occupancy pass of each cloud, keyed by anchor and schedule: its
# counts and entropies, and its histograms once occupancy_series asked for
# them; freed with the cloud.
_PASSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

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
        # Too wide to pack: sort the rows column by column (np.lexsort takes
        # the most significant key last) and merge runs of equal rows.
        order = np.lexsort(cols[::-1])
        cols = [col[order] for col in cols]
        starts = np.zeros(len(order), dtype=bool)
        starts[:1] = True
        for col in cols:
            starts[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(starts)
        if weights is None:
            counts = np.diff(np.append(starts, len(order)))
        else:
            counts = np.add.reduceat(weights[order], starts)
        return np.stack([col[starts] for col in cols], axis=1), counts
    keys = cols[0] - lo[0]  # C-order mixed-radix packing, as np.ravel_multi_index
    for col, low, size in zip(cols[1:], lo[1:], dims[1:]):
        keys = keys * size + (col - low)
    if capacity <= _DENSE_CELLS:
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
    rows = np.stack(np.unravel_index(ukeys, dims), axis=1).astype(np.int64) + lo
    return rows, counts


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values starts in a sorted 1-d array."""
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
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
    """
    values, mult = np.unique(counts, return_counts=True)
    if values.size == 0:
        raise InputError("probability vector must be 1-d and non-empty")
    p = values / float(total)
    ratios = [t.as_integer_ratio() for t in (p * np.log2(p)).tolist()]
    den = max(d for _, d in ratios)  # a power of 2, a multiple of every d
    return -(sum(m * n * (den // d) for m, (n, d) in zip(mult.tolist(), ratios)) / den)


def _interleave_steps(d: int, bits: int) -> list[tuple[int, int, int]]:
    """(shift, mask of groups of c, mask of groups of 2c) for c = 1, 2, 4, ... < bits.

    In "groups of g", bit j of a ``bits``-bit value sits at bit
    ``(j // g) * g * d + j % g``: g >= bits is the value itself and g = 1 its
    bits ``d`` apart, their places in a d-axis Z-order key. Shifting the
    upper half of every 2c-bit group up by ``c * (d - 1)`` (or back down)
    turns groups of 2c into groups of c (or back); the mask clears the copies
    the shift leaves behind.
    """

    def mask(g: int) -> int:
        return sum(1 << (j // g * g * d + j % g) for j in range(bits))

    sizes = [1 << e for e in range(max(bits - 1, 0).bit_length())]
    return [(c * (d - 1), mask(c), mask(2 * c)) for c in sizes]


def _spread_table(d: int, bits: int) -> np.ndarray:
    """Every ``bits``-bit value with bit j moved to bit d*j, as uint64."""
    x = np.arange(1 << bits, dtype=np.uint64)
    for shift, groups, _ in reversed(_interleave_steps(d, bits)):
        x |= x << shift
        x &= groups
    return x


def _interleave(cols: list, bits: int) -> np.ndarray:
    """Z-order keys of non-negative ``bits``-bit int64 columns, axis 0 most significant.

    Each column is spread through a table, up to 16 bits at a time.
    """
    d = len(cols)
    if d == 1:
        return cols[0].view(np.uint64)
    step = max(min(16, 63 // d, bits), 1)
    table = _spread_table(d, step)
    keys = np.zeros(len(cols[0]), dtype=np.uint64)
    for axis, col in enumerate(cols):
        for low in range(0, bits, step):
            part = col >> low if low else col
            if bits - low > step:
                part = part & ((1 << step) - 1)
            keys |= table.take(part) << (d * low + d - 1 - axis)
    return keys


def _deinterleave(keys: np.ndarray, d: int, bits: int) -> list:
    """The int64 columns of ``bits`` bits each that :func:`_interleave` made ``keys`` of."""
    steps = _interleave_steps(d, bits)
    cols = []
    for axis in range(d):
        x = keys >> (d - 1 - axis)
        x &= steps[0][1] if steps else (1 << bits) - 1
        for shift, _, groups in steps:
            x |= x >> shift
            x &= groups
        cols.append(x.view(np.int64))
    return cols


def _zorder_scales(cloud: PointCloud, resolved: np.ndarray, schedule: ScaleSchedule, rows: bool):
    """(scale number, cell counts, index rows or None) of a dyadic schedule, finest first.

    Rows, when asked for, are in lexicographic order with their counts;
    otherwise the counts come in Z-order. See the module docstring.
    """
    ks = schedule.ks
    idx = box_indices(GridSpec(resolved, schedule.epsilons[-1]), cloud.points)
    shifts = [min(int(ks[-1] - k), 62) for k in ks]
    offsets = [int(col.min()) >> shifts[0] << shifts[0] for col in idx.T]
    cols = [col - offset for col, offset in zip(idx.T, offsets)]
    del idx
    d, width = len(cols), max(int(col.max()).bit_length() for col in cols)
    least = width - 63 // d  # the least shift whose cells fit in a 63-bit key
    keys = None
    for i in range(len(ks) - 1, -1, -1):
        shift = shifts[i]
        if shift < least:
            cells, counts = _unique_index_counts(np.stack([col >> shift for col in cols], axis=1))
            yield i, counts, cells + [o >> shift for o in offsets] if rows else None
            continue
        level = min(shift, width)
        if keys is None:
            keys = _interleave([col >> level if level else col for col in cols], width - level)
            cols = None
            keys.sort()
            starts = _run_starts(keys)
            keys, counts = keys[starts], np.diff(np.append(starts, len(keys)))
        elif level > finer:
            keys >>= d * (level - finer)
            starts = _run_starts(keys)
            keys, counts = keys[starts], np.add.reduceat(counts, starts)
        finer = level
        if rows:
            cells = np.stack(_deinterleave(keys, d, width - level), axis=1)
            cells, lex_counts = _unique_index_counts(cells + [o >> shift for o in offsets], counts)
            yield i, lex_counts, cells
        else:
            yield i, counts, None


def _each_scale(cloud: PointCloud, resolved: np.ndarray, epsilons: np.ndarray):
    """(scale number, cell counts, index rows) of each scale counted from the points."""
    for i, eps in enumerate(epsilons):
        hist = count_boxes(cloud, GridSpec(resolved, eps))[1]
        yield i, hist.counts, hist.indices


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
        scales = _zorder_scales(cloud, resolved, schedule, histograms)
    else:
        scales = _each_scale(cloud, resolved, epsilons)
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

    Dyadic schedules index the points once and derive every scale from one
    sorted Z-order key array; other schedules count each scale from the
    points in turn (see the module docstring). Both give the histograms of
    :func:`count_boxes` bit for bit.

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
    cells, not the box; over ``VOLUME_MAX_CELLS`` raise InputError before any query.

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

    The one KD-tree per cloud, built on first use, is unbalanced with loose
    node boxes, the cheaper build. ``dist <= epsilon`` depends only on per-pair
    distances, alike in any tree: the bound epsilon * (1 + 1e-12) keeps a pair
    at exactly epsilon, and a node is pruned only if its lower bound, off by
    rounding far under that slack, exceeds the bound or the best pair found. So
    trees differ only if a best pair a rounding error past epsilon hides one within it.
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
    span = np.abs([lo, box.max]).max()
    if not (h >= 2.0**-1022 and span <= 2.0**48 * h):
        raise InputError("epsilon too small for coordinate range")
    shape = [int(np.ceil(w / h)) for w in box.widths]
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

    def pack(cells):
        ranks = [np.searchsorted(vals, col) for col, vals in zip(cells.T, axes)]
        return np.ravel_multi_index(ranks, [len(vals) for vals in axes], mode="clip")

    n, keys = len(near), pack(near)

    def rows_of(cells):  # the rows of near holding cells, n where it has none
        row = np.searchsorted(keys, pack(cells)).clip(max=n - 1)
        return np.where((near[row] == cells).all(axis=1), row, n).astype(np.int32)

    # Bitmaps hold 4**d fine cells a near row, and an empty last row that stands
    # for missing neighbors.
    links = [[np.append(rows_of(near + s * e), n) for s in (-1, 1)] for e in np.eye(d, dtype=int)]
    seeds = np.ravel_multi_index((rows_of(occupied >> 2), *(occupied & 3).T), (n + 1,) + (4,) * d)
    seeds = seeds.astype(np.int32)  # a bitmap holds under 2**31 cells
    del occupied  # the seeds stand for it from here on

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

    global cKDTree
    tree = _TREES.get(cloud)
    if tree is None:
        if cKDTree is None:
            from scipy.spatial import cKDTree
        tree = _TREES[cloud] = cKDTree(cloud.points, balanced_tree=False, compact_nodes=False)
    rows = (1 << 16) // 4**d  # 2**16 fine cells a block
    for start in range(0, n, rows):
        ring = reach[start : start + rows]
        certain = np.unpackbits(sure[start : start + rows], axis=1, count=4**d).view(bool)
        ring &= ~certain.reshape(ring.shape)
        # Column by column: row broadcasts over (n, d) arrays are several times slower.
        row, *offsets = np.nonzero(ring)
        fine = [4 * col[row + start] + m for col, m in zip(near.T, offsets)]
        keep = np.logical_and.reduce([(m >= 0) & (m < size) for m, size in zip(fine, shape)])
        centers = np.stack([low + (m[keep] + 0.5) * h for low, m in zip(lo, fine)], axis=1)
        dist, _ = tree.query(centers, k=1, distance_upper_bound=eps * (1 + 1e-12))
        marked += int(np.count_nonzero(dist <= eps))
    return VolumeEstimate(epsilon=eps, volume=marked * h**d, resolution=h, ambient_dim=d)


def volume_dimension(cloud: PointCloud, schedule: ScaleSchedule) -> float:
    """Dimension from neighborhood-volume scaling over the schedule.

    The fit is :func:`~dimest.estimation.volume_scaling_dimension`, the one
    :func:`~dimest.estimation.build_report` uses for ``dim_box_volume``.
    """
    return volume_scaling_dimension([volume_estimate(cloud, eps) for eps in schedule.epsilons])
