"""Fractal dimension estimators for finite point sets.

Three estimators over one kind of input (a point cloud in R^d):

* box counting: occupied grid cells n(eps) across a scale schedule,
* neighborhood volume scaling: the d-volume of the eps-dilated cloud,
* information dimension: Shannon entropy of box-occupancy frequencies.

Plus the generators used to benchmark them (a chaotic quadratic-map orbit
and reference sets of known dimension) and a report builder that fits the
log-log slopes and checks the dimension-ordering inequalities empirically.
"""

__version__ = "0.1.0"

from .boxcount import (
    CountSeries,
    OccupancyHistogram,
    VolumeEstimate,
    count_boxes,
    count_series,
    occupancy_series,
    volume_dimension,
    volume_estimate,
)
from .errors import (
    DegenerateFitError,
    DimestError,
    InputError,
    NumericalError,
    OrbitDivergedError,
)
from .estimation import (
    REPORT_JSON_SCHEMA,
    DimensionReport,
    FitResult,
    InequalityVerdict,
    build_report,
    loglog_fit,
    two_scale_extrapolation,
)
from .fileio import load_points_csv, save_points_csv
from .generators import (
    HenonParams,
    IfsSpec,
    cantor_points,
    henon_orbit,
    ifs_chaos_game,
    sierpinski_spec,
    uniform_segment,
    uniform_square,
)
from .geometry import (
    BoundingBox,
    GridSpec,
    PointCloud,
    ScaleSchedule,
    bounding_box,
    box_indices,
)
from .infodim import (
    EntropySeries,
    ProbabilityVector,
    entropy_series,
    information_dimension,
    probabilities,
    shannon_entropy,
)

__all__ = [
    "__version__",
    "BoundingBox",
    "CountSeries",
    "DegenerateFitError",
    "DimensionReport",
    "DimestError",
    "EntropySeries",
    "FitResult",
    "GridSpec",
    "HenonParams",
    "IfsSpec",
    "InequalityVerdict",
    "InputError",
    "NumericalError",
    "OccupancyHistogram",
    "OrbitDivergedError",
    "PointCloud",
    "ProbabilityVector",
    "REPORT_JSON_SCHEMA",
    "ScaleSchedule",
    "VolumeEstimate",
    "bounding_box",
    "box_indices",
    "build_report",
    "cantor_points",
    "count_boxes",
    "count_series",
    "entropy_series",
    "henon_orbit",
    "ifs_chaos_game",
    "information_dimension",
    "load_points_csv",
    "loglog_fit",
    "occupancy_series",
    "probabilities",
    "save_points_csv",
    "shannon_entropy",
    "sierpinski_spec",
    "two_scale_extrapolation",
    "uniform_segment",
    "uniform_square",
    "volume_dimension",
    "volume_estimate",
]
