"""Exact report bytes of two fixed reports built from hand-made series.

The series are small enough to write out, and together the two reports fill
every kind of report field: a volume dimension, all three ordering verdicts
(holding and failing), fit warnings and caller config in the first, and the
third verdict gated off by the occupancy gap in the second. Any change to key
order, float formatting or field layout shows here as a text diff.
"""

from __future__ import annotations

import numpy as np

from dimest import CountSeries, EntropySeries, VolumeEstimate, build_report

KS = np.array([1.0, 2.0, 3.0, 4.0])
EPSILONS = 2.0**-KS
COUNTS = np.array([2, 5, 9, 12])
# Each entropy is 0.035..0.05 bits below log2(count): near-uniform occupancy.
ENTROPIES = np.array([0.96, 2.28, 3.12, 3.55])
VOLUMES = [1.1, 0.62, 0.35, 0.2]
ANCHOR = np.array([-0.5, 0.25])

FULL_JSON = """\
{
  "dim_box": 0.8602884408718419,
  "dim_box_volume": 1.17967918506462,
  "dim_info": 0.861,
  "fit_box": {
    "slope": 0.8602884408718419,
    "intercept": 0.36848279708310283,
    "r_squared": 0.9473407011755598,
    "n_points": 4,
    "residuals": [
      -0.2287712379549447,
      0.23286841606057562,
      0.22057688174368373,
      -0.2246740598493142
    ]
  },
  "fit_info": {
    "slope": 0.861,
    "intercept": 0.3250000000000002,
    "r_squared": 0.9492250072025353,
    "n_points": 4,
    "residuals": [
      -0.2260000000000002,
      0.23299999999999965,
      0.21199999999999974,
      -0.2190000000000003
    ]
  },
  "extrapolation": 0.861654166907052,
  "reference_dim": 1.0,
  "inequality_verdicts": [
    {
      "name": "info_le_box",
      "holds": true,
      "margin": 0.04928844087184192
    },
    {
      "name": "reference_le_box",
      "holds": false,
      "margin": -0.08971155912815809
    },
    {
      "name": "reference_le_info",
      "holds": false,
      "margin": -0.08899999999999997
    }
  ],
  "uniformity_gap_bits": [
    0.040000000000000036,
    0.04192809488736238,
    0.049925001442312045,
    0.03496250072115625
  ],
  "uniformity_hypothesis_met": true,
  "warnings": [
    "nonlinear scaling regime: box-count fit r_squared=0.947341 < 0.99",
    "nonlinear scaling regime: entropy fit r_squared=0.949225 < 0.99"
  ],
  "config": {
    "anchor": [
      -0.5,
      0.25
    ],
    "epsilons": [
      0.5,
      0.25,
      0.125,
      0.0625
    ],
    "ks": [
      1.0,
      2.0,
      3.0,
      4.0
    ],
    "n_points": 16,
    "tolerance": 0.05,
    "gap_threshold": 0.1,
    "generator": "hand-made",
    "samples": 16
  }
}
"""

GATED_JSON = """\
{
  "dim_box": 0.8602884408718419,
  "dim_box_volume": null,
  "dim_info": 0.861,
  "fit_box": {
    "slope": 0.8602884408718419,
    "intercept": 0.36848279708310283,
    "r_squared": 0.9473407011755598,
    "n_points": 4,
    "residuals": [
      -0.2287712379549447,
      0.23286841606057562,
      0.22057688174368373,
      -0.2246740598493142
    ]
  },
  "fit_info": {
    "slope": 0.861,
    "intercept": 0.3250000000000002,
    "r_squared": 0.9492250072025353,
    "n_points": 4,
    "residuals": [
      -0.2260000000000002,
      0.23299999999999965,
      0.21199999999999974,
      -0.2190000000000003
    ]
  },
  "extrapolation": 0.861654166907052,
  "reference_dim": 1.0,
  "inequality_verdicts": [
    {
      "name": "info_le_box",
      "holds": true,
      "margin": 0.04928844087184192
    },
    {
      "name": "reference_le_box",
      "holds": false,
      "margin": -0.08971155912815809
    }
  ],
  "uniformity_gap_bits": [
    0.040000000000000036,
    0.04192809488736238,
    0.049925001442312045,
    0.03496250072115625
  ],
  "uniformity_hypothesis_met": false,
  "warnings": [
    "nonlinear scaling regime: box-count fit r_squared=0.947341 < 0.99",
    "nonlinear scaling regime: entropy fit r_squared=0.949225 < 0.99"
  ],
  "config": {
    "anchor": [
      -0.5,
      0.25
    ],
    "epsilons": [
      0.5,
      0.25,
      0.125,
      0.0625
    ],
    "ks": [
      1.0,
      2.0,
      3.0,
      4.0
    ],
    "n_points": 16,
    "tolerance": 0.05,
    "gap_threshold": 0.04
  }
}
"""


def _series():
    counts = CountSeries(ks=KS, epsilons=EPSILONS, counts=COUNTS, anchor=ANCHOR, n_points=16)
    entropies = EntropySeries(
        ks=KS, epsilons=EPSILONS, entropy_bits=ENTROPIES, occupied=COUNTS, anchor=ANCHOR
    )
    return counts, entropies


def test_full_report_bytes():
    volumes = [
        VolumeEstimate(epsilon=e, volume=v, resolution=e / 4, ambient_dim=2)
        for e, v in zip(EPSILONS, VOLUMES)
    ]
    report = build_report(
        *_series(),
        volumes,
        reference_dim=1.0,
        config={"generator": "hand-made", "samples": 16},
    )
    assert report.to_json() == FULL_JSON


def test_gated_report_bytes():
    report = build_report(*_series(), reference_dim=1.0, gap_threshold=0.04)
    assert report.to_json() == GATED_JSON
