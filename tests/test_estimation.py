"""Log-log fitting, endpoint extrapolation, and report assembly."""

from __future__ import annotations

import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimest import (
    REPORT_JSON_SCHEMA,
    CountSeries,
    DegenerateFitError,
    EntropySeries,
    InputError,
    VolumeEstimate,
    build_report,
    loglog_fit,
    two_scale_extrapolation,
)

# Counts of the published Henon benchmark table at scales 2**-3 .. 2**-7.
TABLE_KS = [3.0, 4.0, 5.0, 6.0, 7.0]
TABLE_COUNTS = [177, 433, 1037, 2467, 5763]

# Frozen oracle values, computed with 50-digit arithmetic:
#   log2(5763/177) / 4                     -> endpoint extrapolation
#   centered least squares on (k, log2 n)  -> slope
TABLE_EXTRAPOLATION = 1.2562496885759215
TABLE_SLOPE = 1.2560316294180770


class TestLoglogFit:
    def test_exact_line(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        ys = 1.3 * xs + 2.0
        fit = loglog_fit(xs, ys)
        assert fit.slope == pytest.approx(1.3, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 4

    def test_two_points_rise_over_run(self):
        fit = loglog_fit([1.0, 3.0], [0.0, 5.0])
        assert fit.slope == pytest.approx(2.5)
        assert fit.r_squared == 1.0

    def test_benchmark_table_slope(self):
        fit = loglog_fit(TABLE_KS, np.log2(TABLE_COUNTS))
        assert fit.slope == pytest.approx(TABLE_SLOPE, abs=1e-12)
        # Independent oracle: numpy's own least squares.
        oracle = np.polyfit(TABLE_KS, np.log2(TABLE_COUNTS), 1)[0]
        assert fit.slope == pytest.approx(oracle, abs=1e-9)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            xs = rng.normal(size=10)
            ys = rng.normal(size=10)
            fit = loglog_fit(xs, ys)
            assert math.fsum(fit.residuals) == pytest.approx(0.0, abs=1e-9)
            assert 0.0 <= fit.r_squared <= 1.0

    def test_constant_response_is_flat_perfect_fit(self):
        fit = loglog_fit([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_exact_power_law_recovered_to_machine_precision(self):
        xs = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
        ys = math.log2(4.0) + 1.5 * xs
        assert loglog_fit(xs, ys).slope == pytest.approx(1.5, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFitError, match="at least 2"):
            loglog_fit([1.0], [2.0])
        with pytest.raises(DegenerateFitError, match="all scales equal"):
            loglog_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InputError):
            loglog_fit([1.0, np.nan], [1.0, 2.0])

    @given(
        shift=st.floats(-100, 100, allow_nan=False),
        scale=st.floats(0.01, 100, allow_nan=False),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_equivariance(self, shift, scale, seed):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-10, 10, size=6))
        if np.max(xs) - np.min(xs) < 1e-3:
            return
        ys = rng.uniform(-5, 5, size=6)
        base = loglog_fit(xs, ys)
        shifted = loglog_fit(xs, ys + shift)
        assert shifted.slope == pytest.approx(base.slope, abs=1e-8)
        assert shifted.intercept == pytest.approx(base.intercept + shift, abs=1e-6)
        stretched = loglog_fit(xs * scale, ys)
        assert stretched.slope == pytest.approx(base.slope / scale, rel=1e-7, abs=1e-9)


class TestTwoScaleExtrapolation:
    def test_benchmark_table_endpoints(self):
        value = two_scale_extrapolation(3, 177, 7, 5763)
        assert value == pytest.approx(TABLE_EXTRAPOLATION, abs=1e-12)

    def test_doubling_per_halving_is_dimension_one(self):
        assert two_scale_extrapolation(4, 100, 5, 200) == 1.0

    def test_quadrupling_per_halving_is_dimension_two(self):
        assert two_scale_extrapolation(4, 100, 5, 400) == 2.0

    def test_equal_scales_degenerate(self):
        with pytest.raises(DegenerateFitError):
            two_scale_extrapolation(3, 10, 3, 20)

    def test_misordered_scales_rejected(self):
        with pytest.raises(InputError):
            two_scale_extrapolation(5, 10, 3, 20)

    def test_counts_validated(self):
        with pytest.raises(InputError):
            two_scale_extrapolation(3, 0, 4, 10)

    @given(
        k0=st.floats(-5, 20, allow_nan=False),
        dk=st.floats(0.1, 10, allow_nan=False),
        n0=st.floats(1, 1e6, allow_nan=False),
        n1=st.floats(1, 1e6, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_two_point_fit(self, k0, dk, n0, n1):
        k1 = k0 + dk
        ext = two_scale_extrapolation(k0, n0, k1, n1)
        fit = loglog_fit([k0, k1], [math.log2(n0), math.log2(n1)])
        assert ext == pytest.approx(fit.slope, rel=1e-9, abs=1e-9)


def _series(ks, counts, entropies=None, anchor=(0.0,), n_points=10**6):
    ks = np.asarray(ks, dtype=float)
    eps = 2.0**-ks
    counts = np.asarray(counts, dtype=np.int64)
    cs = CountSeries(
        ks=ks, epsilons=eps, counts=counts, anchor=np.asarray(anchor), n_points=n_points
    )
    if entropies is None:
        entropies = np.log2(counts)
    es = EntropySeries(
        ks=ks,
        epsilons=eps,
        entropy_bits=np.asarray(entropies, dtype=float),
        occupied=counts,
        anchor=np.asarray(anchor),
    )
    return cs, es


class TestBuildReport:
    def test_uniform_growth_report(self):
        cs, es = _series([1, 2, 3, 4], [2, 4, 8, 16])
        report = build_report(cs, es)
        assert report.dim_box == pytest.approx(1.0, abs=1e-12)
        assert report.dim_info == pytest.approx(1.0, abs=1e-12)
        assert report.extrapolation == pytest.approx(1.0, abs=1e-12)
        assert report.uniformity_gap_bits == (0.0, 0.0, 0.0, 0.0)
        assert report.uniformity_hypothesis_met
        assert report.warnings == ()

    def test_cantor_fixture_verdicts(self, cantor_series):
        counts, entropies = cantor_series
        reference = math.log(2) / math.log(3)
        report = build_report(counts, entropies, reference_dim=reference)
        assert report.dim_box == pytest.approx(reference, abs=1e-9)
        assert report.dim_info == pytest.approx(reference, abs=1e-9)
        names = [v.name for v in report.inequality_verdicts]
        assert names == ["info_le_box", "reference_le_box", "reference_le_info"]
        assert all(v.holds for v in report.inequality_verdicts)
        assert report.uniformity_hypothesis_met
        assert max(report.uniformity_gap_bits) == pytest.approx(0.0, abs=1e-9)

    def test_margin_semantics(self):
        cs, es = _series([1, 2, 3], [2, 4, 8])
        report = build_report(cs, es, reference_dim=0.9, tolerance=0.05)
        by_name = {v.name: v for v in report.inequality_verdicts}
        ref_box = by_name["reference_le_box"]
        assert ref_box.margin == pytest.approx(1.0 + 0.05 - 0.9, abs=1e-9)
        assert ref_box.holds
        failing = build_report(cs, es, reference_dim=1.2, tolerance=0.05)
        ref_box = {v.name: v for v in failing.inequality_verdicts}["reference_le_box"]
        assert not ref_box.holds
        assert ref_box.margin == pytest.approx(1.0 + 0.05 - 1.2, abs=1e-9)

    def test_gap_threshold_gates_third_verdict(self):
        cs, es = _series([1, 2], [4, 4], entropies=[2.0, 1.85])
        gated = build_report(cs, es, reference_dim=0.5, gap_threshold=0.1)
        assert [v.name for v in gated.inequality_verdicts] == [
            "info_le_box",
            "reference_le_box",
        ]
        assert not gated.uniformity_hypothesis_met
        open_ = build_report(cs, es, reference_dim=0.5, gap_threshold=0.2)
        assert [v.name for v in open_.inequality_verdicts] == [
            "info_le_box",
            "reference_le_box",
            "reference_le_info",
        ]

    def test_mismatched_schedules_rejected(self):
        cs, _ = _series([1, 2, 3], [2, 4, 8])
        _, es = _series([1, 2, 4], [2, 4, 8])
        with pytest.raises(InputError, match="mismatched schedules"):
            build_report(cs, es)

    def test_mismatched_anchor_rejected(self):
        cs, _ = _series([1, 2, 3], [2, 4, 8], anchor=(0.0,))
        _, es = _series([1, 2, 3], [2, 4, 8], anchor=(0.5,))
        with pytest.raises(InputError, match="mismatched schedules"):
            build_report(cs, es)

    def test_degenerate_entropy_series(self):
        cs, es = _series([1, 2, 3], [1, 1, 1], entropies=[0.0, 0.0, 0.0])
        with pytest.raises(DegenerateFitError, match="no information"):
            build_report(cs, es)

    def test_nonlinear_scaling_warning(self):
        counts = [10, 20, 30, 40, 50]  # concave in log-log
        cs, es = _series([1, 2, 3, 4, 5], counts)
        report = build_report(cs, es)
        assert any("nonlinear scaling regime" in w for w in report.warnings)
        assert report.fit_box.r_squared < 0.99

    def test_volume_estimates_route(self):
        cs, es = _series([1, 2, 3], [2, 4, 8])
        # Volume of a dimension-1 set in the plane shrinks linearly with eps.
        vols = [
            VolumeEstimate(epsilon=e, volume=2.0 * e, resolution=e / 4, ambient_dim=2)
            for e in cs.epsilons
        ]
        report = build_report(cs, es, volume_estimates=vols)
        assert report.dim_box_volume == pytest.approx(1.0, abs=1e-12)

    def test_volume_schedule_mismatch_rejected(self):
        cs, es = _series([1, 2, 3], [2, 4, 8])
        vols = [
            VolumeEstimate(epsilon=0.9, volume=1.0, resolution=0.2, ambient_dim=2)
        ]
        with pytest.raises(InputError, match="mismatched schedules"):
            build_report(cs, es, volume_estimates=vols)

    def test_volume_mixed_ambient_dimensions_rejected(self):
        cs, es = _series([1, 2, 3], [2, 4, 8])
        vols = [
            VolumeEstimate(epsilon=e, volume=e, resolution=e / 4, ambient_dim=d)
            for e, d in zip(cs.epsilons, [2, 2, 3])
        ]
        with pytest.raises(InputError, match="^volume estimates mix ambient dimensions$"):
            build_report(cs, es, volume_estimates=vols)

    @pytest.mark.parametrize("name", ["reference_dim", "tolerance", "gap_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, value):
        cs, es = _series([1, 2, 3], [2, 4, 8])
        with pytest.raises(InputError, match=f"^{name} must be finite$"):
            build_report(cs, es, **{name: value})

    def test_overflowing_margin_rejected(self):
        # Finite parameters whose margin bound + tolerance - value overflows.
        cs, es = _series([1, 2, 3], [2, 4, 8])
        with pytest.raises(InputError, match="^reference_le_box margin is not finite$"):
            build_report(cs, es, reference_dim=-1e308, tolerance=1e308)

    def test_config_provenance_merged(self):
        cs, es = _series([1, 2, 3], [2, 4, 8])
        report = build_report(cs, es, config={"generator": "test-fixture"})
        assert report.config["generator"] == "test-fixture"
        assert report.config["tolerance"] == 0.05
        assert report.config["n_points"] == 10**6
        assert report.config["anchor"] == [0.0]


class TestReportJson:
    def test_schema_and_round_trip(self, cantor_series):
        counts, entropies = cantor_series
        report = build_report(
            counts, entropies, reference_dim=math.log(2) / math.log(3)
        )
        text = report.to_json()
        payload = json.loads(text)
        jsonschema.validate(payload, REPORT_JSON_SCHEMA)
        # Parse -> serialize is byte identical (key order and float repr).
        assert json.dumps(payload, indent=2) + "\n" == text

    def test_null_fields_serialize(self):
        cs, es = _series([1, 2], [2, 4])
        report = build_report(cs, es)
        payload = json.loads(report.to_json())
        assert payload["dim_box_volume"] is None
        assert payload["reference_dim"] is None
        jsonschema.validate(payload, REPORT_JSON_SCHEMA)
