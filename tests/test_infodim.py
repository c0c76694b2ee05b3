"""Shannon entropy of occupancy and the information dimension."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimest import (
    DegenerateFitError,
    EntropySeries,
    GridSpec,
    HenonParams,
    InputError,
    OccupancyHistogram,
    PointCloud,
    ProbabilityVector,
    ScaleSchedule,
    count_boxes,
    entropy_series,
    henon_orbit,
    information_dimension,
    probabilities,
    shannon_entropy,
    uniform_square,
)
from dimest.boxcount import occupancy_series
from dimest.infodim import histogram_entropy


def random_probs(rng, n):
    raw = rng.exponential(size=n)
    return ProbabilityVector(raw / math.fsum(raw))


class TestProbabilities:
    def test_single_cell(self):
        cloud = PointCloud(np.array([[0.1, 0.1], [0.2, 0.2]]))
        _, hist = count_boxes(cloud, GridSpec(np.zeros(2), 1.0))
        assert np.array_equal(probabilities(hist).probs, [1.0])

    def test_even_split(self):
        cloud = PointCloud(np.array([[0.1, 0.0], [1.1, 0.0]]))
        _, hist = count_boxes(cloud, GridSpec(np.zeros(2), 1.0))
        assert np.array_equal(probabilities(hist).probs, [0.5, 0.5])

    def test_three_one_split(self):
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [1.5, 0.0]])
        _, hist = count_boxes(PointCloud(pts), GridSpec(np.zeros(2), 1.0))
        assert np.array_equal(probabilities(hist).probs, [0.75, 0.25])

    def test_validation(self):
        with pytest.raises(InputError):
            ProbabilityVector(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(InputError):
            ProbabilityVector(np.array([0.5, 0.6]))
        with pytest.raises(InputError):
            ProbabilityVector(np.array([]))


class TestShannonEntropy:
    def test_uniform_eight_cells_is_three_bits(self):
        p = ProbabilityVector(np.full(8, 0.125))
        assert shannon_entropy(p) == 3.0

    def test_point_mass_is_zero(self):
        assert shannon_entropy(ProbabilityVector(np.array([1.0]))) == 0.0

    def test_half_quarter_quarter(self):
        p = ProbabilityVector(np.array([0.5, 0.25, 0.25]))
        assert shannon_entropy(p) == 1.5

    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, n, seed):
        p = random_probs(np.random.default_rng(seed), n)
        h = shannon_entropy(p)
        assert 0.0 <= h <= math.log2(n) + 1e-9

    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_probs(rng, n)
        shuffled = ProbabilityVector(p.probs[rng.permutation(n)])
        # fsum is an exactly rounded sum, so reordering cannot change it.
        assert shannon_entropy(shuffled) == shannon_entropy(p)

    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_merging_cells_never_increases_entropy(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_probs(rng, n)
        merged = np.concatenate([[p.probs[0] + p.probs[1]], p.probs[2:]])
        h_merged = shannon_entropy(ProbabilityVector(merged / math.fsum(merged)))
        assert h_merged <= shannon_entropy(p) + 1e-12

    def test_uniform_equality_is_tight(self):
        for n in (2, 3, 10, 977):
            p = ProbabilityVector(np.full(n, 1.0 / n) / math.fsum(np.full(n, 1.0 / n)))
            assert abs(shannon_entropy(p) - math.log2(n)) <= 1e-9


class TestEntropySeries:
    def test_singleton_is_zero_information_at_every_scale(self):
        cloud = PointCloud(np.array([[0.3, 0.3]]))
        series = entropy_series(cloud, ScaleSchedule.dyadic(1, 5))
        assert np.array_equal(series.entropy_bits, np.zeros(5))
        assert np.array_equal(series.occupied, np.ones(5, dtype=np.int64))

    def test_uniform_square_close_to_2k_bits(self):
        # 4**k near-uniform cells at scale 2**-k need about 2k bits; the
        # boundary row/column holds the x=1 points and adds a small excess.
        from collections import Counter

        cloud = uniform_square(2**14)
        series = entropy_series(cloud, ScaleSchedule.dyadic(2, 4), anchor=np.zeros(2))
        for k, s in zip(series.ks, series.entropy_bits):
            cells = Counter(
                (math.floor(x * 2**k), math.floor(y * 2**k)) for x, y in cloud.points
            )
            total = sum(cells.values())
            oracle = -math.fsum(
                (c / total) * math.log2(c / total) for c in cells.values()
            )
            assert s == pytest.approx(oracle, abs=1e-9)
            assert s == pytest.approx(2.0 * k, abs=0.15)

    def test_entropy_bounded_by_log_occupied(self, henon_series):
        _, series = henon_series
        assert np.all(series.entropy_bits <= np.log2(series.occupied) + 1e-9)
        assert np.all(series.entropy_bits >= 0.0)

    def test_validation_rejects_entropy_above_bound(self):
        with pytest.raises(InputError):
            EntropySeries(
                ks=np.array([1.0]),
                epsilons=np.array([0.5]),
                entropy_bits=np.array([2.1]),
                occupied=np.array([4]),
                anchor=np.zeros(1),
            )


def reference_entropy(hist: OccupancyHistogram) -> float:
    """Frozen copy of ``shannon_entropy(probabilities(hist))``: two fsum passes."""
    p = hist.counts / float(hist.total)
    if abs(math.fsum(p) - 1.0) > 1e-9:
        raise InputError("probabilities must sum to 1")
    return -math.fsum(p * np.log2(p))


def histogram(counts) -> OccupancyHistogram:
    counts = np.asarray(counts, dtype=np.int64)
    return OccupancyHistogram(
        epsilon=1.0,
        indices=np.arange(counts.size, dtype=np.int64)[:, None],
        counts=counts,
        total=int(counts.sum()),
    )


def histogram_entropies(hists) -> list:
    return [histogram_entropy(h) for h in hists]


def same_double(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@st.composite
def count_vectors(draw):
    """Cell counts in [1, 2**40]: few distinct values, all distinct, or free."""
    n = draw(st.integers(min_value=1, max_value=2000))
    top = draw(st.sampled_from([1, 2, 3, 100, 2**20, 2**40]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    mode = draw(st.sampled_from(["classes", "distinct", "free"]))
    if mode == "classes":
        pool = rng.integers(1, top, size=draw(st.integers(1, 4)), endpoint=True)
        return rng.choice(pool, size=n)
    if mode == "distinct":
        gaps = rng.integers(1, max(1, top // n), size=n, endpoint=True)
        return rng.permutation(np.cumsum(gaps))
    return rng.integers(1, top, size=n, endpoint=True)


class TestEntropyFromHistograms:
    """The count-class sum against the per-cell fsum path, bit for bit."""

    @given(st.lists(count_vectors(), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_cell_fsum(self, vectors):
        hists = [histogram(c) for c in vectors]
        for got, h in zip(histogram_entropies(hists), hists):
            assert same_double(got, reference_entropy(h))
            assert same_double(got, shannon_entropy(probabilities(h)))

    def test_matches_per_cell_fsum_on_orbit_every_scale(self):
        cloud = henon_orbit(HenonParams(samples=10**5))
        schedule = ScaleSchedule.dyadic(0, 16)
        hists = occupancy_series(cloud, schedule)
        got = entropy_series(cloud, schedule).entropy_bits
        assert len(got) == 17
        for s, h in zip(got.tolist(), hists):
            assert same_double(s, reference_entropy(h))

    def test_single_cell_is_negative_zero(self):
        # -fsum([0.0]) is -0.0, and the CLI prints it that way.
        for count in (1, 7, 2**40):
            (s,) = histogram_entropies([histogram([count])])
            assert same_double(s, -0.0)

    @pytest.mark.parametrize("count", [1, 3, 2**30])
    def test_uniform_power_of_two_cells_is_exact(self, count):
        hists = [histogram(np.full(2**j, count)) for j in range(1, 16)]
        assert histogram_entropies(hists) == [float(j) for j in range(1, 16)]

    def test_empty_histogram_is_rejected_like_the_vector_path(self):
        empty = OccupancyHistogram(1.0, np.empty((0, 1), dtype=np.int64), np.empty(0), 0)
        with pytest.raises(InputError, match="1-d and non-empty"):
            probabilities(empty)
        with pytest.raises(InputError, match="1-d and non-empty"):
            histogram_entropies([empty])

    @pytest.mark.parametrize("bits", [-1e-9, 2.0 + 1e-8, math.inf, math.nan])
    def test_hand_built_series_outside_bounds_is_rejected(self, bits):
        with pytest.raises(InputError, match="0 <= S <= log2"):
            EntropySeries(
                ks=np.array([2.0]),
                epsilons=np.array([0.25]),
                entropy_bits=np.array([bits]),
                occupied=np.array([4]),
                anchor=np.zeros(1),
            )

    @pytest.mark.parametrize("bits", [-0.0, 0.0, 2.0])
    def test_hand_built_series_on_the_bounds_is_accepted(self, bits):
        series = EntropySeries(
            ks=np.array([2.0]),
            epsilons=np.array([0.25]),
            entropy_bits=np.array([bits]),
            occupied=np.array([4]),
            anchor=np.zeros(1),
        )
        assert same_double(float(series.entropy_bits[0]), bits)


class TestInformationDimension:
    def test_exact_line_gives_one(self):
        # S = k bits at eps = 2**-k: one bit per halving.
        ks = np.arange(1, 9, dtype=float)
        series = EntropySeries(
            ks=ks,
            epsilons=2.0**-ks,
            entropy_bits=ks.copy(),
            occupied=(2**ks.astype(np.int64)),
            anchor=np.zeros(1),
        )
        assert information_dimension(series) == pytest.approx(1.0, abs=1e-12)

    def test_square_dimension_is_two(self):
        cloud = uniform_square(2**16)
        series = entropy_series(cloud, ScaleSchedule.dyadic(3, 6))
        assert information_dimension(series) == pytest.approx(2.0, abs=0.1)

    def test_zero_series_degenerates(self):
        cloud = PointCloud(np.array([[0.1, 0.9]]))
        series = entropy_series(cloud, ScaleSchedule.dyadic(1, 4))
        with pytest.raises(DegenerateFitError, match="no information"):
            information_dimension(series)

    def test_henon_info_below_box(self, henon_series):
        counts, entropies = henon_series
        from dimest import loglog_fit

        dim_box = loglog_fit(counts.ks, np.log2(counts.counts)).slope
        dim_info = information_dimension(entropies)
        assert dim_info <= dim_box + 0.05
