"""Turning scale series into dimension estimates.

The headline estimator is an ordinary least-squares fit in log-log space:
with x = log2(1/epsilon) and y = log2 n(epsilon), the slope is the
box-counting dimension. A two-scale geometric extrapolation from the
endpoints is computed alongside it: for counts n0, n1 at scales 2**-k0,
2**-k1 the assumed geometric growth n(2**-k) = n0 * (n1/n0)**((k-k0)/(k1-k0))
has the limiting log-log slope log2(n1/n0) / (k1 - k0), which equals the
least-squares slope through exactly those two points.

:func:`build_report` consolidates both estimators with the information
dimension and evaluates the empirical ordering checks

    dim_info <= dim_box + tol
    reference <= dim_box + tol            (analytic reference, when known)
    reference <= dim_info + tol           (only under near-uniform occupancy)

where the last check is gated on the per-scale gap log2 n(eps) - S(eps), the
hypothesis under which the information dimension bounds the reference from
above.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFitError, InputError

__all__ = [
    "FitResult",
    "InequalityVerdict",
    "DimensionReport",
    "loglog_fit",
    "entropy_fit",
    "volume_scaling_dimension",
    "two_scale_extrapolation",
    "build_report",
    "REPORT_JSON_SCHEMA",
]


@dataclass(frozen=True, eq=False)
class FitResult:
    """Ordinary least-squares line fit with goodness-of-fit diagnostics.

    ``r_squared`` is clamped to [0, 1]; a response with zero variance is
    reported as a perfect fit of slope 0. Residuals are response minus
    prediction and sum to zero up to rounding.
    """

    slope: float
    intercept: float
    r_squared: float
    n_points: int
    residuals: np.ndarray


def loglog_fit(xs, ys) -> FitResult:
    """Least squares of ``ys`` on ``xs`` with intercept.

    When ``xs = log2(1/epsilon)`` and ``ys = log2 n(epsilon)`` the slope is
    the box-counting dimension estimate; the fit itself is generic.

    Raises:
        DegenerateFitError: fewer than 2 points, or all ``xs`` equal.
        InputError: non-finite values.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InputError("fit inputs must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("fit inputs must be finite")
    if x.size < 2:
        raise DegenerateFitError("degenerate fit: need at least 2 points")
    if np.max(x) == np.min(x):
        raise DegenerateFitError("degenerate fit: all scales equal")
    dx = x - x.mean()
    dy = y - y.mean()
    slope = float(np.dot(dx, dy) / np.dot(dx, dx))
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(dy, dy))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    r_squared = min(1.0, max(0.0, r_squared))
    residuals.setflags(write=False)
    return FitResult(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        n_points=int(x.size),
        residuals=residuals,
    )


def entropy_fit(series) -> FitResult:
    """Least-squares fit of an EntropySeries' S(epsilon) against log2(1/epsilon).

    Raises:
        DegenerateFitError: when the series is identically zero (a single
            occupied cell at every scale carries no information to regress).
    """
    if not np.any(series.entropy_bits > 0):
        raise DegenerateFitError(
            "degenerate fit: entropy series carries no information at any scale"
        )
    return loglog_fit(series.ks, series.entropy_bits)


def volume_scaling_dimension(volume_estimates: Sequence) -> float:
    """``d - m`` for the slope m of log2(volume) on log2(epsilon): Vol ~ eps**(d-s).

    Raises:
        InputError: estimates from different ambient dimensions d.
    """
    ambient = {v.ambient_dim for v in volume_estimates}
    if len(ambient) > 1:
        raise InputError("volume estimates mix ambient dimensions")
    fit = loglog_fit(
        np.log2([v.epsilon for v in volume_estimates]),
        np.log2([v.volume for v in volume_estimates]),
    )
    return float(ambient.pop() - fit.slope)


def two_scale_extrapolation(k0: float, n0: float, k1: float, n1: float) -> float:
    """Endpoint dimension estimate log2(n1/n0) / (k1 - k0).

    ``k0`` and ``k1`` are dyadic exponents (scales ``2**-k``); the value is
    the limit of the geometric-growth model fitted through the two counts,
    and coincides with :func:`loglog_fit` on exactly those two points.
    """
    if n0 < 1 or n1 < 1:
        raise InputError("counts must be at least 1")
    if k1 == k0:
        raise DegenerateFitError("degenerate extrapolation: identical scales")
    if k1 < k0:
        raise InputError("scales must be ordered k0 < k1")
    return math.log2(n1 / n0) / (k1 - k0)


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome of one ordering check; ``margin >= 0`` exactly when it holds."""

    name: str
    holds: bool
    margin: float


@dataclass(frozen=True, eq=False)
class DimensionReport:
    """Consolidated estimates, diagnostics and ordering verdicts for one cloud.

    ``config`` carries full provenance (generator parameters, anchor,
    schedule, sample counts, tolerances) so every number in the report can be
    reproduced bit for bit.
    """

    dim_box: float
    dim_box_volume: float | None
    dim_info: float
    fit_box: FitResult
    fit_info: FitResult
    extrapolation: float | None
    reference_dim: float | None
    inequality_verdicts: tuple
    uniformity_gap_bits: tuple
    uniformity_hypothesis_met: bool
    warnings: tuple
    config: dict

    def to_dict(self) -> dict:
        """Plain-JSON form; keys, nested ones too, in field declaration order."""
        return asdict(self, dict_factory=_json_fields)

    def to_json(self) -> str:
        """Canonical JSON serialization (full precision, fixed key order)."""
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _json_fields(fields: list) -> dict:
    """``asdict`` factory: numpy arrays (the fit residuals) become lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields}


def _object_schema(properties: dict) -> dict:
    """Schema of an object with exactly these keys, all of them required."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


_FIT_SCHEMA = _object_schema(
    {
        "slope": {"type": "number"},
        "intercept": {"type": "number"},
        "r_squared": {"type": "number", "minimum": 0, "maximum": 1},
        "n_points": {"type": "integer", "minimum": 2},
        "residuals": {"type": "array", "items": {"type": "number"}},
    }
)

REPORT_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    **_object_schema(
        {
            "dim_box": {"type": "number"},
            "dim_box_volume": {"type": ["number", "null"]},
            "dim_info": {"type": "number"},
            "fit_box": _FIT_SCHEMA,
            "fit_info": _FIT_SCHEMA,
            "extrapolation": {"type": ["number", "null"]},
            "reference_dim": {"type": ["number", "null"]},
            "inequality_verdicts": {
                "type": "array",
                "items": _object_schema(
                    {
                        "name": {"type": "string"},
                        "holds": {"type": "boolean"},
                        "margin": {"type": "number"},
                    }
                ),
            },
            "uniformity_gap_bits": {"type": "array", "items": {"type": "number"}},
            "uniformity_hypothesis_met": {"type": "boolean"},
            "warnings": {"type": "array", "items": {"type": "string"}},
            "config": {"type": "object"},
        }
    ),
}

# Fits below this r^2 get a nonlinear-scaling warning rather than an error.
R_SQUARED_WARN = 0.99


def _verdict(name: str, value: float, bound: float, tolerance: float) -> InequalityVerdict:
    margin = bound + tolerance - value
    if not math.isfinite(margin):
        raise InputError(f"{name} margin is not finite")
    return InequalityVerdict(name=name, holds=margin >= 0.0, margin=margin)


def build_report(
    count_series,
    entropy_series,
    volume_estimates: Sequence | None = None,
    reference_dim: float | None = None,
    *,
    tolerance: float = 0.05,
    gap_threshold: float = 0.1,
    config: dict | None = None,
) -> DimensionReport:
    """Fit every estimator on shared series and evaluate the ordering checks.

    ``count_series`` and ``entropy_series`` must come from the same schedule
    and anchor; ``volume_estimates``, when given, must cover the same scales.
    The third ordering check (reference vs information dimension) is only
    evaluated when every per-scale occupancy gap log2 n - S is below
    ``gap_threshold`` bits, i.e. when box occupancy is near uniform.

    Raises:
        InputError: a non-finite ``reference_dim``, ``tolerance`` or
            ``gap_threshold``, or an ordering-check margin that overflows,
            which would put NaN or Infinity in the JSON.
    """
    for name, value in (
        ("reference_dim", reference_dim),
        ("tolerance", tolerance),
        ("gap_threshold", gap_threshold),
    ):
        if value is not None and not math.isfinite(value):
            raise InputError(f"{name} must be finite")
    if not np.array_equal(count_series.epsilons, entropy_series.epsilons) or not np.array_equal(
        count_series.anchor, entropy_series.anchor
    ):
        raise InputError("mismatched schedules: count and entropy series differ")

    fit_box = loglog_fit(count_series.ks, np.log2(count_series.counts))
    fit_info = entropy_fit(entropy_series)

    dim_box_volume = None
    if volume_estimates is not None:
        if not np.array_equal([v.epsilon for v in volume_estimates], count_series.epsilons):
            raise InputError("mismatched schedules: volume estimates differ")
        dim_box_volume = volume_scaling_dimension(volume_estimates)

    # loglog_fit above has already refused fewer than two scales.
    extrapolation = two_scale_extrapolation(
        count_series.ks[0],
        count_series.counts[0],
        count_series.ks[-1],
        count_series.counts[-1],
    )

    gaps = tuple(
        float(math.log2(n) - s)
        for n, s in zip(entropy_series.occupied, entropy_series.entropy_bits)
    )
    hypothesis_met = all(g < gap_threshold for g in gaps)

    verdicts = [_verdict("info_le_box", fit_info.slope, fit_box.slope, tolerance)]
    if reference_dim is not None:
        verdicts.append(_verdict("reference_le_box", reference_dim, fit_box.slope, tolerance))
        if hypothesis_met:
            verdicts.append(
                _verdict("reference_le_info", reference_dim, fit_info.slope, tolerance)
            )

    warnings = []
    for label, fit in (("box-count", fit_box), ("entropy", fit_info)):
        if fit.r_squared < R_SQUARED_WARN:
            warnings.append(
                f"nonlinear scaling regime: {label} fit r_squared={fit.r_squared:.6f}"
                f" < {R_SQUARED_WARN}"
            )

    full_config = {
        "anchor": [float(a) for a in count_series.anchor],
        "epsilons": [float(e) for e in count_series.epsilons],
        "ks": [float(k) for k in count_series.ks],
        "n_points": int(count_series.n_points),
        "tolerance": float(tolerance),
        "gap_threshold": float(gap_threshold),
    }
    if config:
        full_config.update(config)

    return DimensionReport(
        dim_box=fit_box.slope,
        dim_box_volume=dim_box_volume,
        dim_info=fit_info.slope,
        fit_box=fit_box,
        fit_info=fit_info,
        extrapolation=extrapolation,
        reference_dim=None if reference_dim is None else float(reference_dim),
        inequality_verdicts=tuple(verdicts),
        uniformity_gap_bits=gaps,
        uniformity_hypothesis_met=hypothesis_met,
        warnings=tuple(warnings),
        config=full_config,
    )
