"""Core types: clouds, bounding boxes, grid indexing, schedules."""

from __future__ import annotations

import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimest import (
    BoundingBox,
    GridSpec,
    HenonParams,
    InputError,
    PointCloud,
    ScaleSchedule,
    bounding_box,
    box_indices,
    henon_orbit,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def read_only(array):
    array.setflags(write=False)
    return array


class TestPointCloud:
    def test_shapes_and_dim(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert cloud.dim == 2
        assert len(cloud) == 2

    def test_one_dimensional_input_is_r1(self):
        cloud = PointCloud(np.array([0.0, 0.5, 1.0]))
        assert cloud.dim == 1
        assert len(cloud) == 3

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            PointCloud(np.array([[0.0, np.nan]]))
        with pytest.raises(InputError):
            PointCloud(np.array([[np.inf, 1.0]]))

    def test_points_are_immutable(self):
        cloud = PointCloud(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 3.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3, 5])
    def test_non_finite_message(self, bad, where):
        points = np.arange(6.0).reshape(3, 2)
        points.flat[where] = bad
        points.setflags(write=False)  # an array the cloud would adopt
        with pytest.raises(InputError, match="^point cloud has non-finite coordinates$"):
            PointCloud(points)

    def test_writeable_input_is_copied(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0]])
        cloud = PointCloud(source)
        source[0, 0] = 9.0
        assert cloud.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not np.shares_memory(cloud.points, source)

    def test_read_only_owned_array_is_adopted(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0]])
        source.setflags(write=False)
        assert PointCloud(source).points is source

    @pytest.mark.parametrize(
        "make",
        [
            lambda: read_only(np.arange(8.0).reshape(4, 2)),  # a view of the arange
            lambda: read_only(np.arange(8.0).reshape(4, 2).copy())[1:],
            lambda: read_only(np.arange(12.0).reshape(4, 3).copy())[:, ::2],
            lambda: read_only(np.asfortranarray(np.arange(8.0).reshape(4, 2))),
            lambda: np.frombuffer(np.arange(8.0).tobytes()).reshape(4, 2),
            lambda: np.frombuffer(np.arange(8.0).tobytes()),
            lambda: read_only(np.arange(8.0, dtype=np.float32).reshape(4, 2)),
            lambda: read_only(np.arange(8.0, dtype=">f8").reshape(4, 2).copy()),
            lambda: read_only(np.arange(8).reshape(4, 2).copy()),
            lambda: [[0.0, 1.0], [2.0, 3.0]],
        ],
        ids=[
            "reshaped", "row-view", "strided", "fortran", "frombuffer", "frombuffer-1d",
            "float32", "big-endian", "int64", "list",
        ],
    )
    def test_other_inputs_are_copied(self, make):
        source = make()
        cloud = PointCloud(source)
        points = cloud.points
        assert points.dtype == np.float64 and points.base is None
        assert points.flags.c_contiguous and not points.flags.writeable
        assert np.array_equal(points, np.asarray(source, dtype=float).reshape(len(points), -1))
        if isinstance(source, np.ndarray):
            assert not np.shares_memory(points, source)


class TestBoundingBox:
    def test_two_point_cloud(self):
        box = bounding_box(PointCloud(np.array([[0.0, 0.0], [1.0, 2.0]])))
        assert np.array_equal(box.min, [0.0, 0.0])
        assert np.array_equal(box.max, [1.0, 2.0])

    def test_singleton(self):
        box = bounding_box(PointCloud(np.array([[0.5, 0.5]])))
        assert np.array_equal(box.min, box.max)

    def test_empty_cloud_errors(self):
        with pytest.raises(InputError, match="empty point set"):
            bounding_box(PointCloud(np.empty((0, 2))))

    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=40),
        st.lists(st.sampled_from([1.5, 3.0, -2.25, -7.0, 5e-324]), max_size=2),
        st.data(),
    )
    def test_matches_axis_zero_reduction_bit_for_bit(self, d, n, nonzeros, data):
        # At a +-0.0 extremum numpy's 1-d and axis-0 reductions can pick
        # different signs (from 17 rows up, on SIMD builds).
        values = st.sampled_from([0.0, -0.0] + nonzeros)
        points = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
        box = bounding_box(PointCloud(points))
        for got, want in ((box.min, points.min(axis=0)), (box.max, points.max(axis=0))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_invalid_corners(self):
        with pytest.raises(InputError):
            BoundingBox(np.array([1.0]), np.array([0.0]))

    def test_reorder_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(50, 3))
        box1 = bounding_box(PointCloud(pts))
        box2 = bounding_box(PointCloud(pts[rng.permutation(50)]))
        assert np.array_equal(box1.min, box2.min)
        assert np.array_equal(box1.max, box2.max)

    def test_tightness(self):
        # Every face is achieved by some point.
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(200, 2))
        box = bounding_box(PointCloud(pts))
        for axis in range(2):
            assert box.min[axis] in pts[:, axis]
            assert box.max[axis] in pts[:, axis]

    def test_contains_and_inflated(self):
        box = BoundingBox(np.zeros(2), np.ones(2))
        inside = np.array([[0.5, 0.5], [1.0, 0.0]])
        assert np.all((inside >= box.min) & (inside <= box.max))
        assert not np.all(np.array([1.5, 0.5]) <= box.max)
        grown = box.inflated(0.5)
        assert np.array_equal(grown.min, [-0.5, -0.5])
        assert np.array_equal(grown.widths, [2.0, 2.0])

    def test_computed_once_and_freed_with_the_cloud(self):
        cloud = PointCloud(np.array([[0.0, 1.0], [2.0, -1.0]]))
        box = bounding_box(cloud)
        assert bounding_box(cloud) is box
        assert bounding_box(PointCloud(cloud.points)) is not box
        ref = weakref.ref(box)
        del cloud, box
        gc.collect()
        assert ref() is None

    def test_henon_orbit_is_bounded(self):
        # Canonical attractor stays well inside this window.
        cloud = henon_orbit(HenonParams(transient=100, samples=1000))
        window = BoundingBox(np.array([-1.5, -0.45]), np.array([1.5, 0.45]))
        assert np.all((cloud.points >= window.min) & (cloud.points <= window.max))


def reference_box_indices(grid: GridSpec, points) -> np.ndarray:
    """box_indices row-broadcast, the points checked before they are indexed."""
    pts = np.asarray(points, dtype=float)
    if pts.size and not np.all(np.isfinite(pts)):
        raise InputError("points have non-finite coordinates")
    with np.errstate(over="ignore"):
        scaled = np.floor((pts - grid.anchor) / grid.epsilon)
    if scaled.size and np.max(np.abs(scaled)) >= 2.0**62:
        raise InputError("box index overflow: epsilon too small for coordinate range")
    return scaled.astype(np.int64)


edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1.0, 1e300, -1.7976931348623157e308]),
    st.floats(),
)


class TestBoxIndex:
    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=0, max_value=6),
        data=st.data(),
        eps=st.floats(min_value=5e-324, max_value=1e308),
    )
    def test_matches_the_reference_bit_for_bit(self, d, n, data, eps):
        # Same indices, or the same error: non-finite points before an overflow.
        rows = st.lists(edge_floats, min_size=d, max_size=d)
        points = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)), dtype=float)
        points = points.reshape(n, d)
        anchor = data.draw(st.lists(finite_floats, min_size=d, max_size=d))
        grid = GridSpec(anchor=np.array(anchor), epsilon=eps)
        try:
            expected = reference_box_indices(grid, points)
        except InputError as exc:
            with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                box_indices(grid, points)
        else:
            got = box_indices(grid, points)
            assert got.dtype == np.int64 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

class TestBoxIndex:
    def test_exact_division_half_open(self):
        grid = GridSpec(anchor=np.zeros(2), epsilon=0.25)
        assert np.array_equal(box_indices(grid, [[0.5, 0.5]]), [[2, 2]])

    def test_floor_of_negative(self):
        grid = GridSpec(anchor=np.zeros(2), epsilon=1.0)
        assert np.array_equal(box_indices(grid, [[-0.1, 0.0]]), [[-1, 0]])

    def test_fine_dyadic_cell(self):
        grid = GridSpec(anchor=np.zeros(2), epsilon=2.0**-3)
        # floor(0.99 * 8) = 7, floor(0.01 * 8) = 0
        assert np.array_equal(box_indices(grid, [[0.99, 0.01]]), [[7, 0]])

    def test_rejects_non_finite_point(self):
        grid = GridSpec(anchor=np.zeros(2), epsilon=1.0)
        with pytest.raises(InputError):
            box_indices(grid, [[np.nan, 0.0]])

    def test_rejects_dimension_mismatch(self):
        grid = GridSpec(anchor=np.zeros(2), epsilon=1.0)
        with pytest.raises(InputError):
            box_indices(grid, [[1.0, 2.0, 3.0]])

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InputError):
            GridSpec(anchor=np.zeros(1), epsilon=0.0)
        with pytest.raises(InputError):
            GridSpec(anchor=np.zeros(1), epsilon=-1.0)

    def test_overflow_guard(self):
        grid = GridSpec(anchor=np.zeros(1), epsilon=1e-300)
        with pytest.raises(InputError, match="overflow"):
            box_indices(grid, [[1.0]])

    def test_overflowing_division_is_the_same_error(self):
        # 1.0 / 1e-320 overflows to inf; no RuntimeWarning comes ahead of the error.
        grid = GridSpec(anchor=np.zeros(1), epsilon=1e-320)
        with pytest.raises(InputError, match="overflow"):
            box_indices(grid, [[1.0]])

    @given(
        x=finite_floats,
        a=finite_floats,
        k=st.integers(min_value=-6, max_value=10),
    )
    def test_translation_covariance(self, x, a, k):
        eps = 2.0**-k
        moved = GridSpec(anchor=np.array([a]), epsilon=eps)
        centered = GridSpec(anchor=np.array([0.0]), epsilon=eps)
        assert np.array_equal(box_indices(moved, [[x]]), box_indices(centered, [[x - a]]))

    @given(
        xs=st.lists(finite_floats, min_size=2, max_size=20),
        k=st.integers(min_value=-6, max_value=10),
    )
    def test_index_is_monotone_along_axis(self, xs, k):
        # Half-open cells tile the line, so indexing must be order preserving.
        grid = GridSpec(anchor=np.zeros(1), epsilon=2.0**-k)
        ordered = np.sort(np.asarray(xs)).reshape(-1, 1)
        idx = box_indices(grid, ordered)[:, 0]
        assert np.all(np.diff(idx) >= 0)

    def test_every_point_has_exactly_one_index(self):
        grid = GridSpec(anchor=np.zeros(2), epsilon=0.5)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(64, 2))
        first = box_indices(grid, pts)
        second = box_indices(grid, pts)
        assert np.array_equal(first, second)


class TestScaleSchedule:
    def test_dyadic(self):
        sched = ScaleSchedule.dyadic(3, 7)
        assert len(sched) == 5
        assert np.array_equal(sched.ks, [3, 4, 5, 6, 7])
        assert np.array_equal(sched.epsilons, [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7])

    def test_dyadic_single_scale(self):
        sched = ScaleSchedule.dyadic(3, 3)
        assert len(sched) == 1

    def test_dyadic_validation(self):
        with pytest.raises(InputError):
            ScaleSchedule.dyadic(5, 3)
        with pytest.raises(InputError):
            ScaleSchedule.dyadic(2.5, 3)

    def test_from_epsilons(self):
        sched = ScaleSchedule.from_epsilons([0.5, 0.25, 0.125])
        assert np.allclose(sched.ks, [1, 2, 3])

    def test_from_epsilons_must_decrease(self):
        with pytest.raises(InputError):
            ScaleSchedule.from_epsilons([0.25, 0.5])
        with pytest.raises(InputError):
            ScaleSchedule.from_epsilons([0.5, 0.5])

    @pytest.mark.parametrize(
        "k_min, k_max",
        [(0, math.inf), (-math.inf, 0), (0, math.nan), (math.nan, 0), (0.5, 3), (0, 2.5)],
    )
    def test_dyadic_exponents_must_be_integers(self, k_min, k_max):
        with pytest.raises(InputError, match="^dyadic exponents must be integers$"):
            ScaleSchedule.dyadic(k_min, k_max)

    def test_overflowing_scales_raise_without_warning(self):
        with pytest.raises(InputError, match="^scales must be finite and positive$"):
            ScaleSchedule.dyadic(-1100, 2)
        assert ScaleSchedule.from_epsilons([1e-320]).epsilons[0] == 1e-320

    @pytest.mark.parametrize("k_min, k_max", [(0, 10**12), (-(10**12), 0), (0, 1075), (-1024, 0)])
    def test_impossible_dyadic_ranges_fail_fast(self, k_min, k_max):
        # Raised before the k range is allocated: 10**12 scales would take 8 TB.
        with pytest.raises(InputError, match="^scales must be finite and positive$"):
            ScaleSchedule.dyadic(k_min, k_max)

    def test_dyadic_extremes_construct(self):
        # 2**-1074 is the least subnormal double and 2**1023 the greatest power of 2 below inf.
        assert ScaleSchedule.dyadic(1074, 1074).epsilons.tolist() == [5e-324]
        assert ScaleSchedule.dyadic(-1023, -1023).epsilons.tolist() == [2.0**1023]
        assert len(ScaleSchedule.dyadic(-1023, 1074)) == 2098

    def test_subnormal_epsilon_gets_a_finite_label(self):
        # 1/eps overflows from 2**-1024 down; the label is -log2(eps) there
        # and log2(1/eps), bit for bit, everywhere else.
        eps = [1.0, 0.3, 1e-300, 2.0**-1024 * 1.5, 2.0**-1024, 1e-320, 5e-324]
        ks = ScaleSchedule.from_epsilons(eps).ks
        assert ks[:4].tobytes() == np.log2(1.0 / np.array(eps[:4])).tobytes()
        assert ks[4:].tolist() == [1024.0, -np.log2(1e-320), 1074.0]
        assert ks[5] == pytest.approx(1063.017, abs=1e-3)

    def test_positive_scales_only(self):
        with pytest.raises(InputError):
            ScaleSchedule.from_epsilons([0.5, 0.0])
        with pytest.raises(InputError):
            ScaleSchedule.from_epsilons([])

    def test_iteration(self):
        sched = ScaleSchedule.dyadic(1, 2)
        pairs = list(zip(sched.ks.tolist(), sched.epsilons.tolist()))
        assert pairs == [(1.0, 0.5), (2.0, 0.25)]
