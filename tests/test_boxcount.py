"""Grid occupancy counting and neighborhood-volume estimation."""

from __future__ import annotations

import gc
import math
import re
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.spatial
from scipy.spatial import cKDTree

import dimest.boxcount
from dimest import (
    GridSpec,
    HenonParams,
    InputError,
    PointCloud,
    ScaleSchedule,
    bounding_box,
    box_indices,
    build_report,
    count_boxes,
    count_series,
    entropy_series,
    henon_orbit,
    ifs_chaos_game,
    loglog_fit,
    occupancy_series,
    probabilities,
    shannon_entropy,
    sierpinski_spec,
    uniform_segment,
    volume_dimension,
    volume_estimate,
    volume_estimates,
)
from dimest.boxcount import VOLUME_MAX_CELLS, resolve_anchor, volume_stencils


class TestCountBoxes:
    def test_singleton_occupies_one_box(self):
        cloud = PointCloud(np.array([[0.37, -1.2]]))
        for eps in (1.0, 0.25, 2.0**-7):
            count, hist = count_boxes(cloud, GridSpec(np.zeros(2), eps))
            assert count == 1
            assert hist.total == 1

    def test_segment_sixteenths_with_endpoint(self):
        # Independent oracle: direct floor arithmetic over the raw points.
        cloud = uniform_segment(10**5)
        grid = GridSpec(np.zeros(2), 2.0**-4)
        oracle = {
            (math.floor(x * 16), math.floor(y * 16)) for x, y in cloud.points
        }
        count, hist = count_boxes(cloud, grid)
        # [0,1) splits into 16 cells; the endpoint x=1.0 owns a 17th.
        assert count == len(oracle) == 17
        assert hist.occupied == 17

    def test_empty_cloud_rejected(self):
        with pytest.raises(InputError, match="empty point set"):
            count_boxes(PointCloud(np.empty((0, 2))), GridSpec(np.zeros(2), 1.0))

    def test_histogram_mass_conservation(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.normal(size=(5000, 2)))
        _, hist = count_boxes(cloud, GridSpec(np.zeros(2), 0.3))
        assert int(hist.counts.sum()) == hist.total == 5000
        assert np.all(hist.counts >= 1)

    def test_histogram_indices_sorted_lexicographically(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(-2, 2, size=(1000, 2)))
        _, hist = count_boxes(cloud, GridSpec(np.zeros(2), 0.5))
        as_tuples = [tuple(r) for r in hist.indices]
        assert as_tuples == sorted(as_tuples)

    def test_cells_mapping(self):
        cloud = PointCloud(np.array([[0.1, 0.1], [0.2, 0.2], [0.9, 0.9]]))
        _, hist = count_boxes(cloud, GridSpec(np.zeros(2), 0.5))
        assert hist.indices.tolist() == [[0, 0], [1, 1]]
        assert hist.counts.tolist() == [2, 1]


class TestUniqueIndexCounts:
    """Occupied cells of integer points on the unit grid: the points' own rows."""

    @staticmethod
    def unit_grid_histogram(idx):
        points = idx.astype(float)
        _, hist = count_boxes(PointCloud(points), GridSpec(np.zeros(idx.shape[1]), 1.0))
        return hist.indices, hist.counts

    def test_matches_numpy_unique_rows(self):
        # Keys are tallied densely only when they span no more cells than
        # there are rows: 10**3 cells for the 2,667 rows are; 100**3 and
        # 400**3 are sorted.
        rng = np.random.default_rng(9)
        for half in (5, 50, 200):
            idx = rng.integers(-half, half, size=(2000, 3)).astype(np.int64)
            idx = np.concatenate([idx, idx[::3]])
            rows, counts = self.unit_grid_histogram(idx)
            expect_rows, expect_counts = np.unique(idx, axis=0, return_counts=True)
            assert np.array_equal(rows, expect_rows)
            assert np.array_equal(counts, expect_counts)

    def test_weighted_merges_tally_and_sort(self):
        # A dyadic merge tallies each coarser scale's cells weighted by the
        # finer scale's counts: densely where that scale spans no more cells
        # than the finer one occupies (k = 0..6 here), by sorting where it
        # spans more (k = 7..11).
        cloud = PointCloud(np.random.default_rng(4).uniform(0.0, 1.0, size=(5000, 2)))
        schedule = ScaleSchedule.dyadic(0, 12)
        got = occupancy_series(cloud, schedule)
        assert_same_histograms(got, per_scale(cloud, schedule))
        spans = [math.prod(np.ptp(h.indices, axis=0) + 1) for h in got[:-1]]
        finer = [h.occupied for h in got[1:]]
        dense = [span <= rows for span, rows in zip(spans, finer)]
        assert any(dense) and not all(dense)

    def test_wide_span_fallback(self):
        # Spans whose product exceeds the packing capacity use the row path.
        idx = np.array(
            [[0, 0], [2**33, 2**33], [0, 0], [-(2**33), 5]], dtype=np.int64
        )
        rows, counts = self.unit_grid_histogram(idx)
        expect_rows, expect_counts = np.unique(idx, axis=0, return_counts=True)
        assert np.array_equal(rows, expect_rows)
        assert np.array_equal(counts, expect_counts)

    @pytest.mark.parametrize("d", [2, 3])
    def test_wide_span_fallback_random(self, d):
        rng = np.random.default_rng(d)
        idx = rng.integers(-(2**40), 2**40, size=(500, d)).astype(np.int64)
        near = idx[:50].copy()
        near[:, -1] += 7  # rows equal but in the last column
        idx = np.concatenate([idx, idx[rng.integers(0, 500, size=300)], near])
        rows, counts = self.unit_grid_histogram(idx)
        expect_rows, expect_counts = np.unique(idx, axis=0, return_counts=True)
        assert np.array_equal(rows, expect_rows)
        assert np.array_equal(counts, expect_counts)

    def test_one_dimensional(self):
        idx = np.array([[3], [1], [3], [-2]], dtype=np.int64)
        rows, counts = self.unit_grid_histogram(idx)
        assert np.array_equal(rows[:, 0], [-2, 1, 3])
        assert np.array_equal(counts, [1, 1, 2])


class TestCountSeries:
    def test_singleton_all_ones(self):
        series = count_series(
            PointCloud(np.array([[0.5, 0.5]])), ScaleSchedule.dyadic(1, 5)
        )
        assert np.array_equal(series.counts, np.ones(5, dtype=np.int64))

    def test_entries_ordered_by_k(self):
        cloud = uniform_segment(100)
        series = count_series(cloud, ScaleSchedule.dyadic(2, 4))
        ks = [entry[0] for entry in series.entries]
        assert ks == [2.0, 3.0, 4.0]

    def test_anchor_defaults_to_bbox_min(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.uniform(5, 6, size=(200, 2)))
        series = count_series(cloud, ScaleSchedule.dyadic(1, 3))
        assert np.array_equal(series.anchor, cloud.points.min(axis=0))

    def test_cantor_lattice_counts_are_exact_powers_of_two(
        self, cantor_series, cantor_schedule
    ):
        counts, _ = cantor_series
        assert np.array_equal(counts.counts, [2**k for k in range(1, 9)])

    def test_cantor_dimension(self, cantor_series):
        counts, _ = cantor_series
        fit = loglog_fit(counts.ks, np.log2(counts.counts))
        assert fit.slope == pytest.approx(math.log(2) / math.log(3), abs=1e-12)

    def test_monotone_refinement_random_clouds(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 400))
            cloud = PointCloud(rng.uniform(-1, 1, size=(n, 2)))
            series = count_series(cloud, ScaleSchedule.dyadic(0, 6))
            counts = series.counts
            assert np.all(counts[:-1] <= counts[1:])
            assert np.all(counts[1:] <= 4 * counts[:-1])

    def test_anchor_shift_bounded_factor(self):
        # Any anchor shift changes the count by at most 2**d either way.
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.uniform(0, 1, size=(500, 2)))
        sched = ScaleSchedule.dyadic(2, 5)
        base = count_series(cloud, sched).counts
        for _ in range(5):
            shifted = count_series(cloud, sched, anchor=rng.uniform(-1, 0, 2)).counts
            assert np.all(shifted <= 4 * base)
            assert np.all(base <= 4 * shifted)

    def test_power_of_two_similarity_gives_identical_counts(self):
        cloud = ifs_chaos_game(sierpinski_spec(10**4, rng_seed=3))
        sched = ScaleSchedule.dyadic(2, 6)
        base = count_series(cloud, sched, anchor=np.zeros(2))
        doubled = count_series(
            PointCloud(cloud.points * 2.0),
            ScaleSchedule.from_epsilons(sched.epsilons * 2.0),
            anchor=np.zeros(2),
        )
        assert np.array_equal(base.counts, doubled.counts)

    def test_generic_similarity_preserves_dimension_estimate(self):
        cloud = ifs_chaos_game(sierpinski_spec(10**5, rng_seed=5))
        sched = ScaleSchedule.dyadic(2, 6)
        factor = 0.37
        base = count_series(cloud, sched)
        scaled = count_series(
            PointCloud(cloud.points * factor),
            ScaleSchedule.from_epsilons(sched.epsilons * factor),
        )
        dim_base = loglog_fit(base.ks, np.log2(base.counts)).slope
        dim_scaled = loglog_fit(scaled.ks, np.log2(scaled.counts)).slope
        assert dim_scaled == pytest.approx(dim_base, abs=0.02)


def per_scale(cloud, schedule, anchor=None):
    """Reference: every scale counted from the points."""
    resolved = resolve_anchor(cloud, anchor)
    return [count_boxes(cloud, GridSpec(resolved, eps))[1] for eps in schedule.epsilons]


def assert_same_histograms(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert type(g.epsilon) is float and g.epsilon == e.epsilon
        assert g.total == e.total
        assert g.indices.dtype == e.indices.dtype == np.int64
        assert g.counts.dtype == e.counts.dtype == np.int64
        assert g.indices.shape == e.indices.shape
        assert g.indices.tobytes() == e.indices.tobytes()
        assert g.counts.tobytes() == e.counts.tobytes()


@pytest.fixture
def count_boxes_calls(monkeypatch):
    calls = []
    original = dimest.boxcount.count_boxes

    def spy(cloud, grid):
        calls.append(grid.epsilon)
        return original(cloud, grid)

    monkeypatch.setattr(dimest.boxcount, "count_boxes", spy)
    return calls


def draw_cloud_and_anchor(draw, units):
    """A cloud (d = 1..3, duplicates) of coordinates in [-8, 8] * unit, and an anchor."""
    d = draw(st.integers(min_value=1, max_value=3))
    unit = draw(st.sampled_from(units))
    coord = st.floats(min_value=-8, max_value=8, allow_nan=False).map(lambda v: v * unit)
    points = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=30))
    points += [points[i] for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=10))]
    cloud = PointCloud(np.array(points))
    offset = draw(st.floats(min_value=0, max_value=4)) * unit
    anchor = draw(
        st.sampled_from(
            [
                None,
                cloud.points.min(axis=0) - offset,  # below the points
                cloud.points.max(axis=0) + offset,  # above: negative indices
                np.zeros(d),
            ]
        )
    )
    return cloud, anchor


@st.composite
def dyadic_cases(draw):
    """A cloud (d = 1..3, duplicates, tiny or plain scale), anchor and dyadic schedule.

    At unit 2**-24 the finest scales of k up to 70 span up to 2**49 cells, too
    wide for a Z-order key at d = 2 and 3, yet never overflow.
    """
    cloud, anchor = draw_cloud_and_anchor(draw, [1.0, 2.0**-24, 2.0**-40, 1e-300])
    ks = sorted(draw(st.sets(st.integers(min_value=0, max_value=70), min_size=1, max_size=6)))
    if draw(st.booleans()):
        schedule = ScaleSchedule.dyadic(ks[0], ks[-1])
    else:
        schedule = ScaleSchedule.from_epsilons([2.0**-k for k in ks])
    return cloud, anchor, schedule


@st.composite
def explicit_cases(draw):
    """A cloud (d = 1..3, duplicates, 1e-30 to 1e30 in scale), anchor and explicit schedule.

    The scales are ``2**-k`` for real k in -6..70, times 1 or the cloud's
    largest coordinate: non-integer k, epsilons above 1, and at unit 2**-24
    (d = 2, 3) spans of up to 2**50 cells, too wide for a Z-order key, which
    are counted from an index array. At unit 1e30 and small scales the
    indices overflow, and both paths must raise the same error.
    """
    cloud, anchor = draw_cloud_and_anchor(draw, [1.0, 2.0**-24, 1e-30, 1e30])
    unit = draw(st.sampled_from([1.0, float(np.abs(cloud.points).max()) or 1.0]))
    ks = draw(st.sets(st.floats(min_value=-6, max_value=70), min_size=1, max_size=6))
    epsilons = np.unique([unit * 2.0**-k for k in ks])[::-1]
    # A subnormal largest coordinate can round a scale to 0, which no schedule takes.
    assume(epsilons[-1] > 0)
    schedule = ScaleSchedule.from_epsilons(epsilons)
    ks = schedule.ks  # not dyadic: integer k >= 0 with epsilon 2**-k throughout
    assume(not (np.all(ks == np.floor(ks)) and np.all(ks >= 0) and np.all(epsilons == 2.0**-ks)))
    return cloud, anchor, schedule


class TestDyadicHierarchy:
    """Dyadic schedules count once at the finest scale and shift-merge upward."""

    @settings(max_examples=300, deadline=None)
    @given(case=dyadic_cases())
    def test_matches_per_scale_bit_for_bit(self, case):
        cloud, anchor, schedule = case
        try:
            expected = per_scale(cloud, schedule, anchor)
        except InputError as exc:
            with pytest.raises(InputError) as raised:
                occupancy_series(cloud, schedule, anchor=anchor)
            assert str(raised.value) == str(exc)
        else:
            assert_same_histograms(occupancy_series(cloud, schedule, anchor=anchor), expected)

    @pytest.mark.parametrize(
        "schedule",
        [
            ScaleSchedule.dyadic(3, 9),
            ScaleSchedule.dyadic(0, 4),
            ScaleSchedule.from_epsilons([1.0, 0.125, 2.0**-9]),
        ],
    )
    def test_dyadic_schedules_index_points_once(self, box_indices_calls, schedule):
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=1))
        hists = occupancy_series(cloud, schedule)
        assert box_indices_calls == [schedule.epsilons[-1]]
        assert_same_histograms(hists, per_scale(cloud, schedule))

    @pytest.mark.parametrize(
        "schedule",
        [
            ScaleSchedule.dyadic(-2, 3),
            ScaleSchedule.from_epsilons([4.0, 2.0, 1.0]),
            ScaleSchedule.from_epsilons([0.3, 0.2, 0.1]),
            ScaleSchedule(epsilons=np.array([0.3, 0.15]), ks=np.array([1.0, 2.0])),
            ScaleSchedule(epsilons=np.array([0.5, 0.25]), ks=np.array([1.5, 2.5])),
        ],
    )
    def test_other_schedules_count_every_scale(self, count_boxes_calls, schedule):
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=1))
        hists = occupancy_series(cloud, schedule)
        assert count_boxes_calls == list(schedule.epsilons)
        assert_same_histograms(hists, per_scale(cloud, schedule))

    def test_negative_k_keeps_per_scale_rounding(self):
        # -5e-324 / 2 rounds to -0.0, so at k = -1 the point sits in cell 0,
        # where shifting the k = 0 cell (-1) would give -1.
        cloud = PointCloud(np.array([[-5e-324]]))
        coarse, fine = occupancy_series(cloud, ScaleSchedule.dyadic(-1, 0), anchor=[0.0])
        assert coarse.indices.tolist() == [[0]]
        assert fine.indices.tolist() == [[-1]]

    def test_shift_beyond_index_width(self):
        # A k gap of 100 floors every index to 0 or -1, as counting at k = 0 does.
        cloud = PointCloud(np.array([[3e-25, -1e-25], [-2e-25, 1e-25], [3e-25, -1e-25]]))
        schedule = ScaleSchedule.from_epsilons([1.0, 2.0**-100])
        got = occupancy_series(cloud, schedule, anchor=[0.0, 0.0])
        assert_same_histograms(got, per_scale(cloud, schedule, [0.0, 0.0]))
        assert got[0].indices.tolist() == [[-1, 0], [0, -1]]
        assert got[0].counts.tolist() == [1, 2]

    @pytest.mark.parametrize(
        "schedule",
        [
            ScaleSchedule.dyadic(58, 62),
            ScaleSchedule.from_epsilons([2.0**-58, 0.75 * 2.0**-62]),
        ],
    )
    def test_index_overflow_same_error_on_both_paths(self, schedule):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.5]]))
        with pytest.raises(InputError, match="^box index overflow: epsilon too small"):
            occupancy_series(cloud, schedule)

    def test_single_point(self):
        cloud = PointCloud(np.array([[0.3, -0.7, 2.0]]))
        for hist in occupancy_series(cloud, ScaleSchedule.dyadic(0, 20)):
            assert hist.indices.tolist() == [[0, 0, 0]]
            assert hist.counts.tolist() == [1]


# Points whose Z-order keys are built together; the tests below size their
# clouds around it rather than patch it.
KEY_CHUNK = 2**16


def chunked_cloud(n: int, d: int) -> np.ndarray:
    """n points in [-1, 1]**d; each chunk's first row repeats the row before it."""
    points = np.random.default_rng(n + d).uniform(-1.0, 1.0, size=(n, d))
    points[KEY_CHUNK::KEY_CHUNK] = points[KEY_CHUNK - 1 : -1 : KEY_CHUNK]
    if n > 1:
        points[-1] = points[0]
    return points


def assert_scalar_pass_matches(points, schedule, anchor):
    expected = per_scale(PointCloud(points), schedule, anchor)
    cloud = PointCloud(points)
    counts = count_series(cloud, schedule, anchor).counts
    bits = entropy_series(cloud, schedule, anchor).entropy_bits
    occupied = np.array([h.occupied for h in expected], dtype=np.int64)
    assert counts.tobytes() == occupied.tobytes()
    assert bits.tobytes() == np.array([shannon_entropy(probabilities(h)) for h in expected]).tobytes()
    assert_same_histograms(occupancy_series(PointCloud(points), schedule, anchor), expected)


SHARED_SCHEDULES = [ScaleSchedule.dyadic(2, 9), ScaleSchedule.from_epsilons([0.3, 0.2, 0.1])]


def assert_scalars_match_per_scale(cloud, anchor, schedule):
    """count_series and entropy_series give per_scale's counts and entropy bytes, or its error."""
    try:
        expected = per_scale(cloud, schedule, anchor)
    except InputError as exc:
        with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
            count_series(cloud, schedule, anchor)
        return
    counts = count_series(cloud, schedule, anchor)
    entropies = entropy_series(cloud, schedule, anchor)
    occupied = [h.occupied for h in expected]
    bits = np.array([shannon_entropy(probabilities(h)) for h in expected])
    assert counts.counts.tolist() == entropies.occupied.tolist() == occupied
    assert entropies.entropy_bits.tobytes() == bits.tobytes()


class TestScalarPass:
    """count_series and entropy_series against every scale counted from the points."""

    @settings(max_examples=300, deadline=None)
    @given(case=dyadic_cases())
    def test_counts_and_entropy_match_per_scale(self, case):
        assert_scalars_match_per_scale(*case)

    @settings(max_examples=300, deadline=None)
    @given(case=explicit_cases())
    def test_explicit_counts_and_entropy_match_per_scale(self, case):
        # Each scale is a one-scale pass of the keys, or of an index array
        # where the span is too wide for a key.
        assert_scalars_match_per_scale(*case)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [KEY_CHUNK - 1, KEY_CHUNK, KEY_CHUNK + 1])
    def test_explicit_chunk_boundaries_match_per_scale(self, n, d):
        # 3.0 is k < 0; at 0.75 * 2**-40 the cloud spans 2**41.4 cells an axis,
        # too wide for a key at d = 2 and 3.
        schedule = ScaleSchedule.from_epsilons([3.0, 0.3, 0.01, 0.75 * 2.0**-40])
        points = chunked_cloud(n, d)
        for anchor in (None, np.full(d, 0.1)):
            assert_scalar_pass_matches(points, schedule, anchor)

    @pytest.mark.parametrize(
        "d, bits",
        [(2, None), (3, None), (2, 31), (2, 32), (3, 21), (3, 22)],
        ids=["2", "3", "2-31", "2-32", "3-21", "3-22"],
    )
    def test_spans_too_wide_to_interleave(self, d, bits):
        # A Z-order key holds 63 // d bits an axis. Histograms, and the scales
        # whose offset cells need more, are merged from the finer scale's
        # rows; the coarser counts come from Z-order keys; all as per scale.
        # The cubed cloud spans about 2**41 cells an axis at k = 40; the
        # others exactly ``bits`` bits from 0, so at 63 // d the keys are
        # full from k = 40 and at 63 // d + 1 only k = 40 is merged.
        rng = np.random.default_rng(d)
        if bits is None:
            points = rng.uniform(-1.0, 1.0, size=(3000, d)) ** 3
        else:
            points = rng.uniform(0.0, 1.0, size=(3000, d)) ** 3
            points[:2] = [[0.0], [0.75]]
            points *= 2.0 ** (bits - 40)
        cloud = PointCloud(points)
        schedule = ScaleSchedule.dyadic(0, 40)
        for anchor in (None, np.zeros(d)):
            expected = per_scale(cloud, schedule, anchor)
            assert_same_histograms(occupancy_series(cloud, schedule, anchor), expected)
            bits = np.array([shannon_entropy(probabilities(h)) for h in expected])
            fresh = PointCloud(cloud.points)
            assert count_series(fresh, schedule, anchor).counts.tolist() == [
                h.occupied for h in expected
            ]
            assert entropy_series(fresh, schedule, anchor).entropy_bits.tobytes() == bits.tobytes()

    def test_histograms_after_counts_match_and_are_kept(self, box_indices_calls):
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=6))
        schedule = SHARED_SCHEDULES[0]
        counts = count_series(cloud, schedule)
        hists = occupancy_series(cloud, schedule)  # the kept scalars hold no histograms
        assert len(box_indices_calls) == 2
        assert counts.counts.tolist() == [h.occupied for h in hists]
        entropy_series(cloud, schedule)
        assert all(a is b for a, b in zip(occupancy_series(cloud, schedule), hists))
        assert len(box_indices_calls) == 2


class TestKeyChunks:
    """The scalar pass builds its keys a chunk of points at a time."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, KEY_CHUNK - 1, KEY_CHUNK, KEY_CHUNK + 1, 3 * KEY_CHUNK + 5])
    def test_chunk_boundaries_match_per_scale(self, n, d):
        points = chunked_cloud(n, d)
        for anchor in (None, np.full(d, 0.1)):  # an anchor inside: negative indices
            assert_scalar_pass_matches(points, ScaleSchedule.dyadic(2, 10), anchor)

    @pytest.mark.parametrize("d", [2, 3])
    def test_chunk_boundary_with_spans_too_wide_for_a_key(self, d):
        # The span at k_max is 63 // d + 3 bits: the three finest scales are
        # merged from an index array of the cloud, the four coarser from keys.
        k_max = 63 // d + 2
        points = chunked_cloud(KEY_CHUNK + 1, d)
        for anchor in (None, np.full(d, 0.1)):
            assert_scalar_pass_matches(points, ScaleSchedule.dyadic(k_max - 6, k_max), anchor)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chunk_boundaries_with_32_bit_keys(self, box_indices_calls, d):
        # In [-1, 1]**d at k = 32 // d - 2 the offset cells need at most
        # 32 // d bits an axis, so the keys are 32-bit; each chunk is indexed once.
        points = chunked_cloud(2 * KEY_CHUNK + 1, d)
        schedule = ScaleSchedule.dyadic(2, 32 // d - 2)
        count_series(PointCloud(points), schedule)
        assert box_indices_calls == [schedule.epsilons[-1]] * 3
        for anchor in (None, np.full(d, 0.1)):
            assert_scalar_pass_matches(points, schedule, anchor)

    def test_scalar_pass_holds_no_index_array_of_the_cloud(self):
        # The keys (8 bytes a point) and their runs set the peak, 3.0 x 8n here;
        # an (n, 2) int64 index array of the cloud, with the columns interleaved
        # from it, takes the peak to 5.3 x 8n.
        n = 2 * 10**5
        cloud = henon_orbit(HenonParams(samples=n))
        schedule = ScaleSchedule.dyadic(3, 14)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            count_series(cloud, schedule)
            entropy_series(cloud, schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 3.5 * 8 * n

    def test_scalar_pass_keys_fit_in_32_bits(self):
        # At k = 14 the orbit's offset cells need 16 bits an axis, so its keys
        # are 32-bit: with their runs they set a peak of 2.5 x 8n here, which
        # 64-bit keys take to 3.0 x 8n.
        n = 2 * 10**5
        cloud = henon_orbit(HenonParams(samples=n))
        schedule = ScaleSchedule.dyadic(3, 14)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            count_series(cloud, schedule)
            entropy_series(cloud, schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 2.75 * 8 * n


class TestKeyWidth:
    """Keys are 32-bit when the offset cells of every axis fit, 64-bit beyond."""

    @pytest.mark.parametrize("extra", [0, 1], ids=["fits", "one-bit-more"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "schedule",
        [ScaleSchedule.dyadic(0, 40), ScaleSchedule.from_epsilons([1.0, 2.0**-40])],
        ids=["dyadic", "one-shift"],
    )
    def test_key_width_boundary_matches_per_scale(self, schedule, d, extra):
        # At k = 40 the offset cells of the cloud need exactly 32 // d + extra
        # bits an axis from either anchor: with the bounding-box minimum, 0 to
        # 0.75 * 2**bits; with the origin, 0.125 to 0.875 * 2**bits. On the
        # two-scale schedule k = 0 shifts the whole key at once, by 32 bits at
        # d = 1 and 2.
        bits = 32 // d + extra
        rng = np.random.default_rng(bits)
        points = rng.uniform(0.125, 0.875, size=(3000, d))
        points[:2] = [[0.125], [0.875]]
        points[2:40] = points[40:78]  # cells of several points at every scale
        points *= 2.0 ** (bits - 40)
        for anchor in (None, np.zeros(d)):
            expected = per_scale(PointCloud(points), schedule, anchor)
            cloud = PointCloud(points)
            counts = count_series(cloud, schedule, anchor).counts
            entropies = entropy_series(cloud, schedule, anchor).entropy_bits
            occupied = np.array([h.occupied for h in expected], dtype=np.int64)
            bits_per_scale = np.array([shannon_entropy(probabilities(h)) for h in expected])
            assert counts.tobytes() == occupied.tobytes()
            assert entropies.tobytes() == bits_per_scale.tobytes()
            assert occupied[0] == 1


class TestSharedPass:
    """Each cloud keeps its last histograms, so counts and entropy share a pass."""

    @pytest.mark.parametrize("schedule, scans", zip(SHARED_SCHEDULES, [1, 3]))
    @pytest.mark.parametrize("anchor", [None, [0.0, 0.0]])
    def test_counts_then_entropy_index_points_once(
        self, box_indices_calls, schedule, scans, anchor
    ):
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=1))
        count_series(cloud, schedule, anchor)
        entropy_series(cloud, schedule, anchor)
        assert len(box_indices_calls) == scans

    @pytest.mark.parametrize("schedule", SHARED_SCHEDULES)
    def test_hit_equals_fresh_pass_on_twin_cloud(self, box_indices_calls, schedule):
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=2))
        first = occupancy_series(cloud, schedule)
        calls = len(box_indices_calls)
        hit = occupancy_series(cloud, schedule, anchor=cloud.points.min(axis=0))
        assert len(box_indices_calls) == calls
        assert all(h is f for h, f in zip(hit, first))
        fresh = occupancy_series(PointCloud(cloud.points), schedule)
        assert len(box_indices_calls) == 2 * calls
        for h, f in zip(hit, fresh, strict=True):
            assert h.indices.tolist() == f.indices.tolist()
            assert h.counts.tolist() == f.counts.tolist()

    def test_other_schedule_or_anchor_recomputes(self, box_indices_calls):
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=3))
        dyadic, explicit = SHARED_SCHEDULES
        relabelled = ScaleSchedule(epsilons=np.array([0.31, 0.21, 0.11]), ks=explicit.ks)
        cases = [
            (dyadic, None),
            (explicit, None),
            (explicit, [0.0, 0.0]),
            (relabelled, [0.0, 0.0]),  # same labels, other scales
            (dyadic, None),  # only the last result is kept
        ]
        for schedule, anchor in cases:
            calls = len(box_indices_calls)
            got = occupancy_series(cloud, schedule, anchor=anchor)
            assert len(box_indices_calls) > calls
            assert_same_histograms(got, per_scale(cloud, schedule, anchor))

    def test_mutating_returned_list_leaves_next_call(self):
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=4))
        schedule = SHARED_SCHEDULES[0]
        first = occupancy_series(cloud, schedule)
        expected = list(first)
        first.reverse()
        first.pop()
        again = occupancy_series(cloud, schedule)
        assert again is not first
        assert_same_histograms(again, expected)

    def test_histograms_freed_with_cloud(self):
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=5))
        ref = weakref.ref(occupancy_series(cloud, SHARED_SCHEDULES[0])[0])
        gc.collect()
        assert ref() is not None
        del cloud
        gc.collect()
        assert ref() is None


    def test_counts_and_entropy_keep_only_scalars(self):
        # Past saturation each of the 41 scales holds about one cell a point:
        # kept histograms would hold tens of MB while the cloud lives.
        cloud = henon_orbit(HenonParams(samples=10**5))
        schedule = ScaleSchedule.dyadic(0, 40)
        gc.collect()
        tracemalloc.start()
        try:
            count_series(cloud, schedule)
            entropy_series(cloud, schedule)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 2**20


def _full_grid(cloud: PointCloud, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Index rows and centers of every fine cell of the inflated bounding box."""
    box = bounding_box(cloud).inflated(eps)
    h = eps / 4.0
    shape = tuple(max(1, int(np.ceil(w / h))) for w in box.widths)
    multi = np.unravel_index(np.arange(math.prod(shape)), shape)
    centers = np.stack([box.min[i] + (multi[i] + 0.5) * h for i in range(cloud.dim)], axis=1)
    return np.stack(multi, axis=1), centers


def _marks(tree, centers: np.ndarray, eps: float) -> np.ndarray:
    """Which centers lie within eps of a point, as the estimator queries them."""
    dist, _ = tree.query(centers, k=1, distance_upper_bound=eps * (1 + 1e-12))
    return dist <= eps


def _full_grid_volume(cloud: PointCloud, eps: float) -> float:
    """Reference: query every fine cell of the inflated bounding box."""
    marked = _marks(cKDTree(cloud.points), _full_grid(cloud, eps)[1], eps)
    return int(np.count_nonzero(marked)) * (eps / 4.0) ** cloud.dim


@st.composite
def volume_cases(draw):
    """Small clouds, d = 1..3, with epsilon from below the spacing to above the extent.

    Rounded coordinates put centers exactly epsilon from points; offsets move
    the cloud to 1e6 and to just inside the coordinate-range limit 2**48 h.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    coord = st.floats(0.0, 1.0)
    pts = np.array(draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n)))
    if draw(st.booleans()):
        pts = np.round(pts * 8) / 8
    pts = np.concatenate([pts, pts[: draw(st.integers(0, n))]])
    floor = {1: 0.004, 2: 0.03, 3: 0.15}[d]  # keeps the reference grid small
    eps = draw(st.sampled_from([0.125, 0.25, 0.5, 2.0]) | st.floats(floor, 3.0))
    eps = max(eps, floor)
    offset = draw(st.sampled_from([0.0, -2.5, 1e6, 2.0**46 * eps * 0.999 - 4]))
    return PointCloud(pts + offset), eps


@st.composite
def lattice_volume_cases(draw):
    """Clouds of up to 200 points, d = 1..3, on the 1/8 or the 1/64 lattice.

    Many points sit on fine-cell and coarse-cell edges, so the dilations
    cross from one coarse cell into the next on every axis.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 200))
    grid = draw(st.sampled_from([8, 64]))
    pts = np.array(draw(st.lists(st.tuples(*[st.integers(0, grid)] * d), min_size=n, max_size=n)))
    floor = {1: 0.004, 2: 0.03, 3: 0.12}[d]  # keeps the reference grid small
    eps = draw(st.sampled_from([1 / 64, 1 / 32, 0.125, 0.25, 0.5]) | st.floats(floor, 1.0))
    offset = draw(st.sampled_from([0.0, -2.5, 1e6]))
    return PointCloud(pts / grid + offset), max(eps, floor)


def first_of_estimates(cloud: PointCloud, eps: float):
    """The estimate at eps from :func:`volume_estimates`, given a later scale too."""
    return volume_estimates(cloud, [eps, 1.0])[0]


# Each refusal test runs on both entry points; a refused first scale of
# volume_estimates must refuse as volume_estimate does.
BOTH_ESTIMATORS = pytest.mark.parametrize(
    "estimate", [volume_estimate, first_of_estimates], ids=["volume_estimate", "volume_estimates"]
)


class TestVolumeEstimate:
    @given(volume_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_grid_bit_for_bit(self, case):
        cloud, eps = case
        assert volume_estimate(cloud, eps).volume == _full_grid_volume(cloud, eps)

    @given(
        volume_cases(),
        st.lists(st.floats(1.0, 4.0), min_size=1, max_size=3),
        st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_several_epsilons_on_one_cloud_match_full_grid(self, case, factors, position):
        # One cloud object, so every estimate after the first reuses its tree.
        cloud, eps = case
        epsilons = [eps * f for f in factors]
        epsilons.insert(position % (len(epsilons) + 1), eps)
        for e in epsilons:
            assert volume_estimate(cloud, e).volume == _full_grid_volume(cloud, e)

    def test_one_tree_per_cloud_freed_with_it(self, monkeypatch):
        built = []

        class CountingTree(cKDTree):
            def __init__(self, data, *args, **kwargs):
                super().__init__(data, *args, **kwargs)
                built.append(weakref.ref(self))

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        cloud = ifs_chaos_game(sierpinski_spec(2000, rng_seed=4))
        volume_dimension(cloud, ScaleSchedule.dyadic(2, 5))
        assert len(built) == 1
        twin = PointCloud(cloud.points)
        for eps in (0.2, 0.1):
            assert volume_estimate(twin, eps) == volume_estimate(cloud, eps)
        assert len(built) == 2
        assert all(ref() is not None for ref in built)
        del cloud, twin
        gc.collect()
        assert all(ref() is None for ref in built)

    def test_far_apart_points_stay_cheap(self):
        # The full grid would be 4e9 x 8 fine cells.
        cloud = PointCloud(np.array([[0.0, 0.0], [1e6, 0.0]]))
        start = time.perf_counter()
        est = volume_estimate(cloud, 1e-3)
        assert time.perf_counter() - start < 0.5
        assert est.volume == pytest.approx(2 * math.pi * 1e-6, rel=0.15)

    @BOTH_ESTIMATORS
    def test_cell_budget_checked_before_any_query(self, monkeypatch, estimate):
        def no_tree(*args, **kwargs):
            raise AssertionError("KD-tree built past the budget")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        # Points 4 coarse cells apart: 30**3 * 27 coarse cells of 64 fine cells.
        lattice = np.stack(np.meshgrid(*[np.arange(30.0)] * 3), axis=-1).reshape(-1, 3)
        assert 30**3 * 27 * 64 > VOLUME_MAX_CELLS
        message = f"too many volume cells at epsilon 0.25 (over {VOLUME_MAX_CELLS})"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            estimate(PointCloud(lattice), 0.25)

    @pytest.mark.parametrize(
        "points, eps",
        [
            ([[1e13, 0.0], [1e13 + 1.0, 1.0]], 0.004),
            ([[-3e11]], 0.004),
            ([[0.0]], 1e-310),
            ([[-0.0, -0.0, -0.0]], 5e-324),  # h = eps / 4 rounds to 0
        ],
    )
    def test_resolution_guard(self, points, eps):
        with pytest.raises(InputError, match="^epsilon too small for coordinate range$"):
            volume_estimate(PointCloud(np.array(points)), eps)

    @pytest.mark.parametrize("eps", [1e200, 1e300, 1e308])
    def test_epsilon_too_large_guard(self, eps):
        # h**2 or the inflated box overflows; no overflow reaches numpy or Python.
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.5]]))
        with pytest.raises(InputError, match="^epsilon too large for coordinate range$"):
            volume_estimate(cloud, eps)

    def test_epsilon_too_large_guard_when_a_corner_overflows(self):
        # -1e300 - epsilon overflows to -inf: the inflated box, not only its widths.
        cloud = PointCloud(np.array([[1e300, -1e300]]))
        with pytest.raises(InputError, match="^epsilon too large for coordinate range$"):
            volume_estimate(cloud, 1.7976931348623157e308)

    @BOTH_ESTIMATORS
    @pytest.mark.parametrize(
        "points, eps",
        [
            ([[0.0, 0.0], [1e-190, 1e-190], [5e-191, 2e-191]], 1e-200),
            ([[0.0, 0.0, 0.0], [1e-100, 2e-100, 3e-100]], 4e-109),
        ],
    )
    def test_underflowing_cell_volume_refused_before_any_work(
        self, monkeypatch, box_indices_calls, points, eps, estimate
    ):
        # h is a normal float and the span passes the resolution guard, but h**d is 0.
        def no_tree(*args, **kwargs):
            raise AssertionError("KD-tree built for an underflowing cell volume")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        cloud = PointCloud(np.array(points))
        message = "epsilon too small: cell volume h**d underflows to 0"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            estimate(cloud, eps)
        assert box_indices_calls == []

    def test_singleton_disk_area(self):
        cloud = PointCloud(np.array([[0.3, 0.7]]))
        est = volume_estimate(cloud, 0.1)
        assert est.resolution == pytest.approx(0.025)
        assert est.volume == pytest.approx(math.pi * 0.01, rel=0.15)

    def test_two_distant_points_disjoint_disks(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [5.0, 0.0]]))
        est = volume_estimate(cloud, 0.1)
        assert est.volume == pytest.approx(2 * math.pi * 0.01, rel=0.15)

    def test_segment_stadium_area(self):
        cloud = uniform_segment(10**4)
        eps = 0.05
        est = volume_estimate(cloud, eps)
        stadium = 2 * eps + math.pi * eps**2
        assert est.volume == pytest.approx(stadium, rel=0.15)

    def test_volume_lower_bound_from_occupied_fine_cells(self):
        rng = np.random.default_rng(12)
        cloud = PointCloud(rng.normal(size=(300, 2)))
        eps = 0.2
        est = volume_estimate(cloud, eps)
        lo = cloud.points.min(axis=0) - eps
        fine = GridSpec(anchor=lo, epsilon=est.resolution)
        occupied, _ = count_boxes(cloud, fine)
        assert est.volume >= occupied * est.resolution**2

    def test_dimension_limit(self):
        cloud = PointCloud(np.zeros((1, 4)))
        with pytest.raises(InputError, match="limited to d <= 3"):
            volume_estimate(cloud, 0.1)

    def test_epsilon_validated(self):
        cloud = PointCloud(np.array([[0.0, 0.0]]))
        with pytest.raises(InputError):
            volume_estimate(cloud, 0.0)

    def test_three_dimensional_ball(self):
        cloud = PointCloud(np.zeros((1, 3)))
        est = volume_estimate(cloud, 0.5)
        assert est.volume == pytest.approx(4.0 / 3.0 * math.pi * 0.125, rel=0.15)


def _outcome(call):
    """What call() returns, or the message of the InputError it raises."""
    try:
        return call()
    except InputError as exc:
        return f"InputError: {exc}"


class TestVolumeEstimates:
    @given(
        st.one_of(volume_cases(), lattice_volume_cases()),
        st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0]), max_size=3),
        st.integers(0, 3),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_match_one_estimate_per_epsilon(self, case, factors, position, cached):
        # 1 to 4 scales, the drawn one among them, duplicates allowed; halving
        # epsilon near the coordinate-range guard refuses a later scale.
        cloud, eps = case
        epsilons = [eps * f for f in factors]
        epsilons.insert(position % (len(epsilons) + 1), eps)
        if cached:
            volume_estimate(cloud, eps)  # builds the cloud's tree
        got = _outcome(lambda: volume_estimates(cloud, epsilons))
        assert got == _outcome(lambda: [volume_estimate(cloud, e) for e in epsilons])

    def test_blocks_of_every_scale_match_full_grid(self, monkeypatch):
        # At these scales the ring of 5000 Sierpinski points fills several
        # blocks of 2**16 fine cells, which go to the worker thread; a short
        # switch interval interleaves the two threads finely.
        threads = []

        class RecordingTree(cKDTree):
            def query(self, *args, **kwargs):
                threads.append(threading.current_thread())
                return super().query(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=1))
        epsilons = [0.012, 0.004, 0.008, 0.004]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            volumes = [est.volume for est in volume_estimates(cloud, epsilons)]
        finally:
            sys.setswitchinterval(interval)
        assert volumes == [_full_grid_volume(cloud, eps) for eps in epsilons]
        assert len(threads) > 2 * len(epsilons)
        assert any(thread is not threading.main_thread() for thread in threads)

    def test_worker_has_ended_when_the_call_returns(self):
        cloud = ifs_chaos_game(sierpinski_spec(2000, rng_seed=3))
        volume_estimates(cloud, [0.1, 0.05])
        assert [t.name for t in threading.enumerate() if t.name.startswith("dimest-volume")] == []

    @pytest.mark.parametrize(
        "points, epsilons",
        [
            ("sierpinski", [0.1, 0.05, 0.0]),
            ("sierpinski", [0.1, float("nan")]),
            ("sierpinski", [0.1, 1e-300]),
            ("sierpinski", [0.1, 1e300]),
            ([[0.0, 0.0], [1e-190, 1e-190], [5e-191, 2e-191]], [1e-150, 1e-200]),
            ("lattice", [1.0, 0.25]),
        ],
        ids=["zero", "nan", "too-small", "too-large", "underflow", "budget"],
    )
    def test_refused_later_epsilon_raises_as_the_serial_loop(self, points, epsilons):
        if points == "sierpinski":
            cloud = ifs_chaos_game(sierpinski_spec(2000, rng_seed=3))
        elif points == "lattice":  # 30**3 points: refused at 0.25 (see the budget test)
            lattice = np.stack(np.meshgrid(*[np.arange(30.0)] * 3), axis=-1)
            cloud = PointCloud(lattice.reshape(-1, 3))
        else:
            cloud = PointCloud(np.array(points))
        with pytest.raises(InputError) as serial:
            [volume_estimate(cloud, eps) for eps in epsilons]
        with pytest.raises(InputError, match=f"^{re.escape(str(serial.value))}$"):
            volume_estimates(PointCloud(cloud.points), epsilons)

    @pytest.mark.parametrize("epsilons", [[0.1, 0.05], [0.1, 0.0]], ids=["valid", "later-refused"])
    def test_query_error_on_the_worker_propagates(self, monkeypatch, epsilons):
        # The first scale's one block goes to the worker, whose error surfaces
        # before a later scale's refusal, which the calling thread meets first.
        threads = []

        class FailingTree(cKDTree):
            def query(self, *args, **kwargs):
                threads.append(threading.current_thread())
                time.sleep(0.1)
                raise RuntimeError("query failed")

        monkeypatch.setattr(scipy.spatial, "cKDTree", FailingTree)
        cloud = ifs_chaos_game(sierpinski_spec(2000, rng_seed=3))
        with pytest.raises(RuntimeError, match="^query failed$"):
            volume_estimates(cloud, epsilons)
        assert threads[0] is not threading.main_thread()

    def test_first_scale_bitmaps_are_built_beside_the_tree(self, monkeypatch):
        # np.packbits is called once a scale, by its bitmaps. The first
        # scale's call waits for the tree build to start: it must run on the
        # worker while the calling thread builds the tree.
        trees, packed, building = [], [], threading.Event()
        packbits = np.packbits

        class RecordingTree(cKDTree):
            def __init__(self, data, *args, **kwargs):
                trees.append(threading.current_thread())
                building.set()
                super().__init__(data, *args, **kwargs)

        def spy(*args, **kwargs):
            packed.append((threading.current_thread().name, building.wait(5)))
            return packbits(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
        monkeypatch.setattr(np, "packbits", spy)
        cloud = ifs_chaos_game(sierpinski_spec(2000, rng_seed=3))
        assert volume_estimates(cloud, [0.1, 0.05]) == [
            volume_estimate(cloud, eps) for eps in [0.1, 0.05]
        ]
        assert trees == [threading.main_thread()]
        first, second = packed[:2]
        assert first[0].startswith("dimest-volume") and first[1]
        assert second[0] == threading.main_thread().name

    @pytest.mark.parametrize("bitmaps_fail", [False, True], ids=["tree", "tree-and-bitmaps"])
    def test_tree_build_error_propagates(self, monkeypatch, bitmaps_fail):
        # The tree build fails while the worker builds the first scale's
        # bitmaps; a bitmap error, which ends later, still surfaces first.
        class FailingTree(cKDTree):
            def __init__(self, *args, **kwargs):
                raise RuntimeError("tree failed")

        def failing_packbits(*args, **kwargs):
            time.sleep(0.1)
            raise RuntimeError("bitmaps failed")

        monkeypatch.setattr(scipy.spatial, "cKDTree", FailingTree)
        if bitmaps_fail:
            monkeypatch.setattr(np, "packbits", failing_packbits)
        cloud = ifs_chaos_game(sierpinski_spec(2000, rng_seed=3))
        message = "bitmaps failed" if bitmaps_fail else "tree failed"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            volume_estimates(cloud, [0.1, 0.05])
        assert [t.name for t in threading.enumerate() if t.name.startswith("dimest-volume")] == []

    def test_at_most_two_blocks_wait_on_the_worker(self, monkeypatch):
        # np.unpackbits is called once a block, on the calling thread, as the
        # block is built. The worker's first query waits until three blocks
        # are built: two on the worker and one waiting for room. A fourth must
        # not be built until that query ends.
        built, third, seen = [], threading.Event(), []
        unpackbits = np.unpackbits

        def spy(*args, **kwargs):
            built.append(threading.current_thread())
            if len(built) == 3:
                third.set()
            return unpackbits(*args, **kwargs)

        class StalledTree(cKDTree):
            def query(self, *args, **kwargs):
                if not seen:
                    seen.append(third.wait(5))
                    time.sleep(0.2)  # time to build a fourth block, were it allowed
                    seen.append(len(built))
                return super().query(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", StalledTree)
        monkeypatch.setattr(np, "unpackbits", spy)
        cloud = ifs_chaos_game(sierpinski_spec(5000, rng_seed=1))
        volume_estimates(cloud, [0.004, 0.1])  # 0.004: several blocks, all on the worker
        assert seen == [True, 3]
        assert len(built) > 4
        assert set(built) == {threading.main_thread()}

    def test_no_epsilon_no_work(self, monkeypatch):
        def no_tree(*args, **kwargs):
            raise AssertionError("KD-tree built for no scale")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        assert volume_estimates(PointCloud(np.zeros((1, 2))), []) == []


def _offsets(d: int) -> np.ndarray:
    """Every offset in [-5, 5]**d, one a row."""
    return np.stack(np.meshgrid(*[np.arange(-5, 6)] * d, indexing="ij"), axis=-1).reshape(-1, d)


def _exact_stencils(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of S_in and S_out at mu = 0, in integers: (2|x| + 1)**2 and (2|x| - 1)**2 summed."""
    offsets = _offsets(d)
    inner = ((2 * np.abs(offsets) + 1) ** 2).sum(axis=1) < 64
    outer = (np.maximum(2 * np.abs(offsets) - 1, 0) ** 2).sum(axis=1) <= 64
    return offsets[inner], offsets[outer]


def _dilated(cells: np.ndarray, offsets: np.ndarray) -> set:
    """Every cell at one of the offsets from one of the cells."""
    return {tuple(m) for m in (cells[:, None, :] + offsets).reshape(-1, cells.shape[1]).tolist()}


def _spy_estimate(cloud: PointCloud, eps: float) -> tuple[list, list]:
    """The KD-trees one volume estimate built and the centers it queried."""
    built, queried = [], []

    class SpyTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            built.append(self)

        def query(self, x, *args, **kwargs):
            queried.append(np.array(x))
            return super().query(x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.spatial, "cKDTree", SpyTree)
        volume_estimate(cloud, eps)
    return built, queried


class TestVolumeQueries:
    @given(lattice_volume_cases())
    @settings(max_examples=150, deadline=None)
    def test_lattice_clouds_match_full_grid_bit_for_bit(self, case):
        cloud, eps = case
        assert volume_estimate(cloud, eps).volume == _full_grid_volume(cloud, eps)

    @given(lattice_volume_cases())
    @settings(max_examples=100, deadline=None)
    def test_queries_exactly_the_cells_beyond_certain_within_reach(self, case):
        # Certain: at an offset in S_in from an occupied fine cell; reach: at
        # one in S_out. Only reach minus certain, inside the grid, is queried.
        cloud, eps = case
        _, queried = _spy_estimate(cloud, eps)
        h = eps / 4.0
        lo = bounding_box(cloud).inflated(eps).min
        occupied = count_boxes(cloud, GridSpec(lo, h))[1].indices
        shape = _full_grid(cloud, eps)[0].max(axis=0) + 1
        certain, reach = (_dilated(occupied, offsets) for offsets in _exact_stencils(cloud.dim))
        ring = {m for m in reach - certain if all(0 <= i < size for i, size in zip(m, shape))}
        asked = np.round((np.concatenate(queried) - lo) / h - 0.5).astype(np.int64)
        assert len(asked) == len(ring)
        assert {tuple(m) for m in asked.tolist()} == ring

    @given(st.one_of(volume_cases(), lattice_volume_cases()))
    @settings(max_examples=150, deadline=None)
    def test_queries_lie_in_the_chebyshev_ring(self, case):
        # No cell within Chebyshev distance r_d = 2, 2, 1 (d = 1, 2, 3) of an
        # occupied fine cell, nor beyond 4, is queried.
        cloud, eps = case
        _, queried = _spy_estimate(cloud, eps)
        h, radius = eps / 4.0, {1: 2, 2: 2, 3: 1}[cloud.dim]
        lo = bounding_box(cloud).inflated(eps).min
        occupied = count_boxes(cloud, GridSpec(lo, h))[1].indices
        asked = np.round((np.concatenate(queried) - lo) / h - 0.5).astype(np.int64)
        distance = cKDTree(occupied).query(asked, p=np.inf)[0]
        assert np.all((distance > radius) & (distance <= 4))

    @given(st.one_of(volume_cases(), lattice_volume_cases()))
    @settings(max_examples=150, deadline=None)
    def test_tree_marks_as_a_balanced_tree(self, case):
        cloud, eps = case
        (tree,), _ = _spy_estimate(cloud, eps)
        centers = _full_grid(cloud, eps)[1]
        balanced = cKDTree(cloud.points)
        assert np.array_equal(_marks(tree, centers, eps), _marks(balanced, centers, eps))


# The largest rounding margin volume_estimate allows: coordinates at 2**48 h.
GUARD_MU = (2.0**48 + 8) * 2.0**-50


class TestVolumeStencils:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("start", [1.0, 2.0**48 - 64], ids=["origin", "guard"])
    def test_sure_cells_marked_and_cells_past_reach_not(self, d, start):
        # Points on and next to fine-cell edges, where rounding moves an index
        # most, and inside cells; fine cells indexed and centered as the
        # estimator does, every offset in [-5, 5]**d checked with a KD-tree.
        eps = 0.01
        h = eps / 4
        rng = np.random.default_rng(d)
        units = np.concatenate([np.arange(9) / 8, rng.random(40)])
        pts = (start + 10 + rng.choice(units, size=(100, d))) * h
        pts = np.concatenate([pts, np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf)])
        cloud = PointCloud(pts)
        box = bounding_box(cloud).inflated(eps)
        assert np.abs([box.min, box.max]).max() <= 2.0**48 * h
        mu = (np.abs([box.min, box.max]).max() / h + 8) * 2.0**-50
        if start == 1.0:  # no offset lies on a boundary: a tiny mu is mu = 0
            assert all(map(np.array_equal, volume_stencils(d, mu), volume_stencils(d, 0.0)))
            mu = 0.0
        sure, reach = volume_stencils(d, mu)
        offsets = _offsets(d)
        in_sure, in_reach = sure[tuple(np.abs(offsets).T)], reach[tuple(np.abs(offsets).T)]
        for p, cell in zip(pts, box_indices(GridSpec(box.min, h), pts)):
            m = cell + offsets
            centers = np.stack([low + (col + 0.5) * h for low, col in zip(box.min, m.T)], axis=1)
            dist, _ = cKDTree(p[None]).query(centers, distance_upper_bound=eps * (1 + 1e-12))
            assert np.all(dist[in_sure] <= eps)
            assert np.all(dist[~in_reach] > eps)
        assert volume_estimate(cloud, eps).volume == _full_grid_volume(cloud, eps)

    @pytest.mark.parametrize("d", [2, 3])
    def test_estimator_widens_stencils_by_the_rounding_margin(self, d, monkeypatch):
        # At the 2**48 h guard mu is about 1/4, which changes both stencils in
        # 2-D and 3-D, so only the margin of the docstring gives these.
        eps, h = 0.01, 0.0025
        cloud = PointCloud((2.0**48 - 64 + np.arange(3.0)[:, None] + np.zeros(d)) * h)
        used = []

        def spy(*args):
            used.append(volume_stencils(*args))
            return used[-1]

        monkeypatch.setattr(dimest.boxcount, "volume_stencils", spy)
        volume_estimate(cloud, eps)
        box = bounding_box(cloud).inflated(eps)
        mu = (np.abs([box.min, box.max]).max() / h + 8) * 2.0**-50
        assert mu > 0.24
        assert all(map(np.array_equal, used[0], volume_stencils(d, mu)))
        assert not all(map(np.array_equal, used[0], volume_stencils(d, 0.0)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("mu", [0.0, 0.25, GUARD_MU])
    def test_containment(self, d, mu):
        sure, reach = volume_stencils(d, mu)
        if mu == 0.0:  # the exact geometry, offsets in lexicographic order
            for stencil, exact in zip((sure, reach), _exact_stencils(d)):
                assert np.array_equal(np.argwhere(stencil), exact[(exact >= 0).all(axis=1)])
        for stencil in (sure, reach):  # downward closed on every axis
            assert all(np.all(np.diff(stencil.astype(int), axis=i) <= 0) for i in range(d))
        radius = {1: 2, 2: 2, 3: 1}[d]
        assert sure[(slice(radius + 1),) * d].all()  # the Chebyshev cube of radius r_d
        assert np.argwhere(sure).max() <= 3  # S_in within Chebyshev distance 3
        assert np.argwhere(reach).max() <= 4  # S_out within 4


class TestVolumeDimension:
    def test_singleton_dimension_zero(self):
        cloud = PointCloud(np.array([[0.2, 0.4]]))
        dim = volume_dimension(cloud, ScaleSchedule.dyadic(2, 5))
        assert abs(dim) < 0.1

    def test_segment_dimension_one(self):
        cloud = uniform_segment(10**4)
        dim = volume_dimension(cloud, ScaleSchedule.dyadic(4, 7))
        assert dim == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize(
        "schedule",
        [ScaleSchedule.dyadic(2, 5), ScaleSchedule.from_epsilons([0.2, 0.12, 0.07, 0.05])],
    )
    def test_equals_report_volume_dimension(self, schedule):
        cloud = ifs_chaos_game(sierpinski_spec(2000, rng_seed=4))
        counts, entropies = count_series(cloud, schedule), entropy_series(cloud, schedule)
        volumes = [volume_estimate(cloud, eps) for eps in schedule.epsilons]
        report = build_report(counts, entropies, volume_estimates=volumes)
        assert volume_dimension(cloud, schedule) == report.dim_box_volume
