"""Shannon entropy of box occupancy and the information dimension.

At each scale the occupied cells define empirical probabilities
p_i = (points in cell i) / (total points); the Shannon information

    S(eps) = -sum_i p_i * log2(p_i)        (bits)

measures how many bits locate one point at resolution eps, and the
information dimension is the slope of S against log2(1/eps). S is bounded by
log2 n(eps) with equality exactly at uniform occupancy, which is why the
information dimension can never exceed the box-counting dimension.

Terms with p_i = 0 are dropped at construction (0*log 0 := 0): only occupied
cells enter. Occupancy entropies (``entropy_series``) are summed by count
class (``boxcount.occupancy_entropy``): cells with equal counts give bit-equal
terms, so S is the exact sum of multiplicity times term over the distinct
counts, accumulated in integers and rounded once. That is the same double as
the correctly rounded ``math.fsum`` over every cell, so the result does not
depend on cell order or on how the cells were found.
``entropy_series`` takes its entropies from ``occupancy_scalars``, so it
shares one occupancy pass with a ``count_series`` on the same cloud, schedule
and anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxcount import OccupancyHistogram, occupancy_scalars, resolve_anchor
from .errors import InputError
from .estimation import entropy_fit
from .geometry import PointCloud, ScaleSchedule

__all__ = [
    "ProbabilityVector",
    "EntropySeries",
    "probabilities",
    "shannon_entropy",
    "entropy_series",
    "information_dimension",
]


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Strictly positive probabilities summing to 1 (within 1e-9)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InputError("probability vector must be 1-d and non-empty")
        if np.any(p <= 0) or not np.all(np.isfinite(p)):
            raise InputError("probabilities must be positive (drop empty cells)")
        if abs(math.fsum(p) - 1.0) > 1e-9:
            raise InputError("probabilities must sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True, eq=False)
class EntropySeries:
    """Per-scale Shannon information S(epsilon) with occupied-cell counts."""

    ks: np.ndarray
    epsilons: np.ndarray
    entropy_bits: np.ndarray
    occupied: np.ndarray
    anchor: np.ndarray

    def __post_init__(self) -> None:
        ks = np.asarray(self.ks, dtype=float)
        eps = np.asarray(self.epsilons, dtype=float)
        bits = np.asarray(self.entropy_bits, dtype=float)
        occ = np.asarray(self.occupied, dtype=np.int64)
        anchor = np.asarray(self.anchor, dtype=float)
        if not (ks.shape == eps.shape == bits.shape == occ.shape) or ks.ndim != 1:
            raise InputError("entropy series arrays must be 1-d and equally sized")
        if ks.size == 0:
            raise InputError("entropy series needs at least one scale")
        if np.any(occ < 1):
            raise InputError("occupied counts must be at least 1")
        # Bound from the uniform-maximum of Shannon entropy; NaN fails it too.
        if not np.all((bits >= -1e-12) & (bits <= np.log2(occ) + 1e-9)):
            raise InputError("entropy must satisfy 0 <= S <= log2(occupied)")
        for arr in (ks, eps, bits, occ, anchor):
            arr.setflags(write=False)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "entropy_bits", bits)
        object.__setattr__(self, "occupied", occ)
        object.__setattr__(self, "anchor", anchor)

    @property
    def entries(self) -> list:
        """Rows (epsilon, entropy_bits, occupied)."""
        return [
            (float(e), float(s), int(n))
            for e, s, n in zip(self.epsilons, self.entropy_bits, self.occupied)
        ]


def probabilities(hist: OccupancyHistogram) -> ProbabilityVector:
    """Occupancy frequencies p_i = count_i / total over occupied cells.

    Cells are taken in lexicographic index order, so the result is the same
    regardless of how the histogram was computed.
    """
    return ProbabilityVector(hist.counts / float(hist.total))


def shannon_entropy(p: ProbabilityVector) -> float:
    """Shannon information -sum p_i log2 p_i in bits: the general-vector path.

    Zero for a point mass; at most log2(p.probs.size) with equality at the
    uniform vector. Compensated summation keeps those bounds sharp.
    Cell counts take the count-class sum of
    :func:`~dimest.boxcount.occupancy_entropy` instead.
    """
    probs = p.probs
    return -math.fsum(probs * np.log2(probs))


def entropy_series(cloud: PointCloud, schedule: ScaleSchedule, anchor=None) -> EntropySeries:
    """S(epsilon) over the schedule from the cloud's occupancy pass.

    The entropies and occupied counts come from
    :func:`~dimest.boxcount.occupancy_scalars`, so a ``count_series`` on the
    same cloud, schedule and anchor reuses its pass.
    """
    resolved = resolve_anchor(cloud, anchor)
    counts, bits = occupancy_scalars(cloud, schedule, resolved)
    return EntropySeries(
        ks=schedule.ks,
        epsilons=schedule.epsilons,
        entropy_bits=bits,
        occupied=counts,
        anchor=resolved,
    )


def information_dimension(series: EntropySeries) -> float:
    """Slope of S(epsilon) versus log2(1/epsilon): the information dimension."""
    return entropy_fit(series).slope
