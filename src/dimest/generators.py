"""Point-set generators.

The quadratic planar map orbit that the estimators are benchmarked on, plus
reference sets of analytically known dimension (middle-thirds Cantor dust,
chaos-game fractals, calibration segments and squares) used to validate the
dimension-ordering checks.

Everything is deterministic: orbits are pure recurrences and the chaos game
draws from a named, seeded generator (PCG64), so identical parameters give
bit-identical clouds on any machine.

The orbit and 2-D chaos-game loops step in Python floats (the IEEE bits of
numpy float64) and store through a ``memoryview`` of a numpy array, which
unlike an ``array.array`` keeps numpy's "Unable to allocate" message for an
impossible size. The orbit stores x only; numpy adds y per block of samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, OrbitDivergedError
from .geometry import PointCloud

__all__ = [
    "HenonParams",
    "IfsSpec",
    "henon_orbit",
    "cantor_points",
    "ifs_chaos_game",
    "sierpinski_spec",
    "uniform_segment",
    "uniform_square",
]

# Orbit values beyond this magnitude are treated as divergence.
ESCAPE_RADIUS = 1.0e6
_BLOCK = 1 << 16  # orbit samples per y fill and escape test
_MAX_TRANSIENT = 2**31 - 1  # transient iterates an orbit may run: minutes at most


@dataclass(frozen=True)
class HenonParams:
    """Parameters for the quadratic map x' = 1 - a*x^2 + y, y' = b*x.

    ``transient`` iterates, at most 2**31 - 1, are discarded so sampling
    starts on the attractor; the canonical values a=1.4, b=0.3 produce the
    classic strange attractor.
    """

    a: float = 1.4
    b: float = 0.3
    seed: tuple[float, float] = (0.0, 0.0)
    transient: int = 1000
    samples: int = 1_000_000

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise InputError("map coefficients must be finite")
        if len(self.seed) != 2 or not all(np.isfinite(v) for v in self.seed):
            raise InputError("seed must be a finite 2-vector")
        if self.transient < 0:
            raise InputError("transient must be non-negative")
        if self.transient > _MAX_TRANSIENT:
            raise InputError(f"transient must be at most {_MAX_TRANSIENT}")
        if self.samples < 1:
            raise InputError("samples must be at least 1")


def _cloud(points: np.ndarray) -> PointCloud:
    """The cloud of an array built here and adopted, not copied: no view of it escapes."""
    points.setflags(write=False)
    return PointCloud(points)


def _check_size(n: int, d: int) -> None:
    """Raise MemoryError, not numpy's ValueError, if no array can hold n points in R^d."""
    if n > np.iinfo(np.intp).max // (8 * d):
        raise MemoryError(f"Unable to allocate {n} points")


def henon_orbit(params: HenonParams) -> PointCloud:
    """Iterate the map from ``params.seed`` and return the sampled orbit.

    The seed itself is not emitted: the first kept point is iterate
    ``transient + 1``. Divergence (|x| or |y| above ``ESCAPE_RADIUS``) raises
    before any partial cloud escapes. Samples run in blocks of ``_BLOCK``:
    the loop stores x only, then numpy fills y_i = b * x_{i-1} (the same
    correctly rounded product) and finds the block's first escape, so an
    escape wastes at most one block of steps. No NaN precedes that escape:
    from |x|, |y| within the radius, (1 - a*x*x) + y and b*x are at worst inf.
    """
    a, b = float(params.a), float(params.b)
    x, y = float(params.seed[0]), float(params.seed[1])
    _check_size(params.samples, 2)
    pts = np.empty((params.samples, 2))
    for step in range(1, params.transient + 1):
        x, y = 1.0 - a * x * x + y, b * x
        if abs(x) > ESCAPE_RADIUS or abs(y) > ESCAPE_RADIUS:
            raise OrbitDivergedError(f"orbit diverged at step {step}")
    buf = memoryview(pts.reshape(-1))
    xs, ys = pts[:, 0], pts[:, 1]
    ys[0] = b * x
    with np.errstate(all="ignore"):  # overflow past the escape is found, not reported
        for lo in range(0, len(pts), _BLOCK):
            hi = min(lo + _BLOCK, len(pts))
            for j in range(2 * lo, 2 * hi, 2):
                x, y = 1.0 - a * x * x + y, b * x
                buf[j] = x
            np.multiply(b, xs[max(lo - 1, 0) : hi - 1], out=ys[max(lo, 1) : hi])
            ok = (np.abs(xs[lo:hi]) <= ESCAPE_RADIUS) & (np.abs(ys[lo:hi]) <= ESCAPE_RADIUS)
            if not ok.all():
                step = params.transient + lo + int(ok.argmin()) + 1
                raise OrbitDivergedError(f"orbit diverged at step {step}")
    return _cloud(pts)


def cantor_points(level: int, scale: float = 1.0) -> PointCloud:
    """Left endpoints of the level-th middle-thirds construction, in R^1.

    Returns the ``2**level`` left endpoints of the surviving intervals,
    scaled onto ``[0, scale]``. With the default unit interval the points are
    correctly rounded doubles of ternary rationals, so ternary box boundaries
    can misround by one ulp; pass ``scale=3**level`` to place the endpoints
    on an exact integer lattice where counting against integer epsilons
    (3**level / 3**k) is exact.
    """
    if int(level) != level or not 1 <= level <= 20:
        raise InputError("level out of range (expected 1..20)")
    level = int(level)
    nums = np.array([0], dtype=np.int64)
    for i in range(1, level + 1):
        nums = np.concatenate([nums, nums + 2 * 3 ** (level - i)])
    nums.sort()
    # Single correctly-rounded division per point; exact when scale == 3**level.
    return _cloud(nums[:, None] / (3.0**level / float(scale)))


@dataclass(frozen=True)
class IfsSpec:
    """An iterated function system of affine contractions with weights.

    Each map is ``x -> matrix @ x + offset`` and must be a contraction in the
    operator 2-norm (checked numerically here). ``probabilities`` are the
    map-selection weights of the chaos game; the selection stream is keyed by
    ``rng_seed`` so runs are reproducible bit for bit. At most 2**31 - 1
    ``transient`` iterates are discarded before sampling.
    """

    maps: tuple
    probabilities: tuple
    seed: tuple
    transient: int = 64
    samples: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if len(self.maps) == 0:
            raise InputError("IFS needs at least one map")
        frozen = []
        dim = None
        for i, (matrix, offset) in enumerate(self.maps):
            mat = np.asarray(matrix, dtype=float)
            off = np.asarray(offset, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise InputError(f"map {i} matrix must be square")
            if dim is None:
                dim = mat.shape[0]
            if mat.shape != (dim, dim) or off.shape != (dim,):
                raise InputError(f"map {i} does not match dimension {dim}")
            if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(off))):
                raise InputError(f"map {i} has non-finite entries")
            norm = float(np.linalg.norm(mat, 2))
            if not norm < 1.0:
                raise InputError(f"map {i} is not a contraction (operator norm {norm:g})")
            mat.setflags(write=False)
            off.setflags(write=False)
            frozen.append((mat, off))
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (len(frozen),):
            raise InputError("need one probability per map")
        if np.any(probs < 0) or abs(math.fsum(probs) - 1.0) > 1e-12:
            raise InputError("probabilities must be non-negative and sum to 1")
        probs.setflags(write=False)
        start = np.asarray(self.seed, dtype=float)
        if start.shape != (dim,) or not np.all(np.isfinite(start)):
            raise InputError(f"seed point must be a finite {dim}-vector")
        start.setflags(write=False)
        if self.transient < 0:
            raise InputError("transient must be non-negative")
        if self.transient > _MAX_TRANSIENT:
            raise InputError(f"transient must be at most {_MAX_TRANSIENT}")
        if self.samples < 1:
            raise InputError("samples must be at least 1")
        if self.rng_seed < 0:
            raise InputError("rng_seed must be non-negative")
        object.__setattr__(self, "maps", tuple(frozen))
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "seed", start)

    @property
    def dim(self) -> int:
        return self.maps[0][0].shape[0]


def _map_choices(spec: IfsSpec):
    """Lists of the chaos game's map indices, ``_BLOCK`` draws each.

    PCG64 gives the same doubles in blocks as in one draw. Only one block's
    draws, indices and list of ints are held, whatever the number of iterates.
    """
    rng = np.random.default_rng(spec.rng_seed)
    cum = np.cumsum(spec.probabilities)
    cum[-1] = np.inf  # the last map takes the draws a rounded total leaves over
    total = spec.transient + spec.samples
    for lo in range(0, total, _BLOCK):
        yield np.searchsorted(cum, rng.random(min(_BLOCK, total - lo)), side="right").tolist()


def ifs_chaos_game(spec: IfsSpec) -> PointCloud:
    """Random-iteration sampling of the IFS attractor.

    Maps are selected by inverse-CDF lookup on a PCG64 uniform stream keyed
    by ``rng_seed``, then applied sequentially from the seed point. The first
    ``transient`` iterates are discarded.
    """
    d = spec.dim
    _check_size(spec.samples, d)
    out = np.empty((spec.samples, d))
    choice = itertools.chain.from_iterable(_map_choices(spec))
    if d == 2:
        flat = [tuple(m.ravel().tolist() + o.tolist()) for m, o in spec.maps]
        x, y = float(spec.seed[0]), float(spec.seed[1])
        buf = memoryview(out.reshape(-1))
        for j, i in zip(range(-2 * spec.transient, 2 * spec.samples, 2), choice):
            a11, a12, a21, a22, b1, b2 = flat[i]
            x, y = a11 * x + a12 * y + b1, a21 * x + a22 * y + b2
            if j >= 0:
                buf[j] = x
                buf[j + 1] = y
    else:
        point = np.array(spec.seed, dtype=float)
        for n, i in enumerate(choice):
            mat, off = spec.maps[i]
            point = mat @ point + off
            if n >= spec.transient:
                out[n - spec.transient] = point
    return _cloud(out)


def sierpinski_spec(samples: int, rng_seed: int = 0, transient: int = 64) -> IfsSpec:
    """Chaos-game spec for the side-1 Sierpinski triangle (dimension log2(3))."""
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    half = np.array([[0.5, 0.0], [0.0, 0.5]])
    maps = tuple((half, np.array(v) / 2.0) for v in verts)
    return IfsSpec(
        maps=maps,
        probabilities=(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        seed=(0.25, 0.25),
        transient=transient,
        samples=samples,
        rng_seed=rng_seed,
    )


def uniform_segment(samples: int) -> PointCloud:
    """Equispaced fill of the unit segment, embedded in R^2 on y = 0."""
    if samples < 1:
        raise InputError("samples must be at least 1")
    _check_size(samples, 2)
    xs = np.linspace(0.0, 1.0, samples)
    return _cloud(np.stack([xs, np.zeros(samples)], axis=1))


def uniform_square(samples: int) -> PointCloud:
    """Deterministic equispaced fill of the unit square with ``samples`` points.

    Uses the smallest m x m grid holding ``samples`` points and keeps the
    first ``samples`` in row-major order, so perfect squares give exact grids
    (``samples = 4**k`` is the 2**k x 2**k grid).
    """
    if samples < 1:
        raise InputError("samples must be at least 1")
    _check_size(samples, 2)
    m = math.isqrt(samples)
    if m * m < samples:
        m += 1
    i = np.arange(samples)  # the largest request first: an impossible size fails at once
    axis = np.linspace(0.0, 1.0, m)
    return _cloud(np.stack([axis[i // m], axis[i % m]], axis=1))
