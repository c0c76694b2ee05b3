"""Orbit, Cantor-dust, chaos-game, and calibration-shape generators."""

from __future__ import annotations

import gc
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimest import (
    HenonParams,
    IfsSpec,
    InputError,
    OrbitDivergedError,
    PointCloud,
    cantor_points,
    henon_orbit,
    ifs_chaos_game,
    sierpinski_spec,
    uniform_segment,
    uniform_square,
)


class TestHenonOrbit:
    def test_first_step_from_origin(self):
        cloud = henon_orbit(HenonParams(seed=(0.0, 0.0), transient=0, samples=1))
        # 1 - 1.4*0^2 + 0 = 1, 0.3*0 = 0
        assert np.array_equal(cloud.points, [[1.0, 0.0]])

    def test_second_step_from_origin(self):
        cloud = henon_orbit(HenonParams(seed=(0.0, 0.0), transient=0, samples=2))
        x2, y2 = cloud.points[1]
        # Hand-iterated: x = 1 - 1.4*1^2 + 0 = -0.4, y = 0.3*1 = 0.3
        assert x2 == pytest.approx(-0.4, abs=1e-15)
        assert y2 == 0.3

    def test_transient_discards_prefix(self):
        full = henon_orbit(HenonParams(transient=0, samples=10))
        tail = henon_orbit(HenonParams(transient=4, samples=6))
        assert np.array_equal(full.points[4:], tail.points)

    def test_bit_for_bit_reproducible(self):
        a = henon_orbit(HenonParams(transient=500, samples=2000))
        b = henon_orbit(HenonParams(transient=500, samples=2000))
        assert np.array_equal(a.points, b.points)

    def test_divergence_is_detected_with_step(self):
        with pytest.raises(OrbitDivergedError, match=r"orbit diverged at step \d+"):
            henon_orbit(HenonParams(a=5.0, transient=0, samples=100))

    def test_divergence_during_transient(self):
        with pytest.raises(OrbitDivergedError):
            henon_orbit(HenonParams(a=5.0, transient=100, samples=1))

    @pytest.mark.parametrize("transient", [0, 3, 4, 10])
    def test_divergence_step_counts_transient_and_kept_iterates(self, transient):
        # From (3, 0) with a = 2: |x| runs 17, 576, 6.6e5, 8.8e11, so the
        # fourth iterate escapes, whether it would be discarded or kept.
        with pytest.raises(OrbitDivergedError, match="^orbit diverged at step 4$"):
            henon_orbit(HenonParams(a=2.0, seed=(3.0, 0.0), transient=transient, samples=5))

    def test_impossible_size_keeps_numpys_message(self):
        # The points are allocated as one (n, 2) numpy array, whose shape the message names.
        with pytest.raises(MemoryError, match=r"^Unable to allocate .* \(1000000000000000, 2\)"):
            henon_orbit(HenonParams(samples=10**15))

    def test_size_checked_before_the_transient(self):
        # a = 5 escapes in the transient, but the impossible allocation fails first.
        with pytest.raises(MemoryError, match=r"^Unable to allocate "):
            henon_orbit(HenonParams(a=5.0, transient=100, samples=10**15))

    def test_overflow_past_the_escape_warns_nothing(self):
        # y_1 = 1e303 * 1e5 overflows to inf: the escape is reported, numpy's warning is not.
        params = HenonParams(b=1e303, seed=(1e5, 0.0), transient=0, samples=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OrbitDivergedError, match="^orbit diverged at step 1$"):
                henon_orbit(params)

    def test_param_validation(self):
        with pytest.raises(InputError):
            HenonParams(samples=0)
        with pytest.raises(InputError):
            HenonParams(transient=-1)
        with pytest.raises(InputError):
            HenonParams(a=float("nan"))

    @pytest.mark.parametrize("transient", [2**31, 10**30])
    def test_transient_is_bounded(self, transient):
        # Unbounded, 10**30 iterates would run until the process is killed;
        # refused, they fail before the orbit starts.
        with pytest.raises(InputError, match="^transient must be at most 2147483647$"):
            HenonParams(transient=transient, samples=1)
        assert HenonParams(transient=2**31 - 1, samples=1).transient == 2**31 - 1

    def test_orbit_holds_its_points_once(self):
        # The orbit buffer is the cloud's array: the cloud does not copy it.
        n = 2 * 10**5
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            cloud = henon_orbit(HenonParams(samples=n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 1.5 * cloud.points.nbytes


def _sha256(cloud) -> str:
    return hashlib.sha256(cloud.points.tobytes()).hexdigest()


def _frozen_henon(params):
    """The orbit loop as it stored through numpy scalar ``__setitem__``."""
    a, b = params.a, params.b
    x, y = float(params.seed[0]), float(params.seed[1])
    pts = np.empty((params.samples, 2))
    for i in range(-params.transient, params.samples):
        x, y = 1.0 - a * x * x + y, b * x
        if abs(x) > 1.0e6 or abs(y) > 1.0e6:
            raise OrbitDivergedError(f"orbit diverged at step {params.transient + i + 1}")
        if i >= 0:
            pts[i, 0] = x
            pts[i, 1] = y
    return PointCloud(pts)


def _frozen_chaos_game_2d(spec):
    """The 2-D chaos-game loop as it iterated numpy ints and float64 scalars."""
    rng = np.random.default_rng(spec.rng_seed)
    cum = np.cumsum(spec.probabilities)
    choice = np.searchsorted(cum, rng.random(spec.transient + spec.samples), side="right")
    np.minimum(choice, len(spec.maps) - 1, out=choice)
    out = np.empty((spec.samples, 2))
    flat = [(m[0, 0], m[0, 1], m[1, 0], m[1, 1], o[0], o[1]) for m, o in spec.maps]
    x, y = float(spec.seed[0]), float(spec.seed[1])
    for n, i in enumerate(choice):
        a11, a12, a21, a22, b1, b2 = flat[i]
        x, y = a11 * x + a12 * y + b1, a21 * x + a22 * y + b2
        if n >= spec.transient:
            out[n - spec.transient, 0] = x
            out[n - spec.transient, 1] = y
    return PointCloud(out)


def _outcome(generate, arg):
    """The bytes a generator returns, or the divergence message it raises."""
    try:
        result = generate(arg)
    except OrbitDivergedError as exc:
        return "diverged", str(exc)
    return "points", result.points.tobytes()


_coordinates = st.floats(-3.0, 3.0, allow_subnormal=False)


class TestGoldenBits:
    """sha256 of ``points.tobytes()``, fixed when the loops were rewritten."""

    def test_canonical_orbit(self, henon_cloud):
        assert _sha256(henon_cloud) == (
            "6ef4d0de045ca248f3a83c38bf2e4386eb09b55e24456608eedb1e347d0bde4c"
        )

    def test_cli_henon_orbit(self):
        assert _sha256(henon_orbit(HenonParams(samples=200_000))) == (
            "f96c349b8b2f7c3d50a0005659225fceb42da80be1eb48f749af1c169c066f0a"
        )

    def test_volume_explicit_sierpinski(self):
        assert _sha256(ifs_chaos_game(sierpinski_spec(100_000, 0, 1000))) == (
            "636ef9d80f3b6eb38b4fe9448eb4cef7eb2a8878b46e3d5ddc1056141a7d5f6e"
        )


class TestLoopsMatchFrozenCopies:
    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(-4.0, 4.0),
        b=st.floats(-2.0, 2.0),
        seed=st.tuples(_coordinates, _coordinates),
        transient=st.integers(0, 40),
        samples=st.integers(1, 200),
    )
    # From (3, 0) with a = 2 the fourth iterate escapes: in the transient, then after it.
    @example(a=2.0, b=0.3, seed=(3.0, 0.0), transient=10, samples=5)
    @example(a=2.0, b=0.3, seed=(3.0, 0.0), transient=3, samples=5)
    # The samples are built in blocks of 2**16: one past a block, and ending inside the third.
    @example(a=1.4, b=0.3, seed=(0.0, 0.0), transient=1000, samples=2**16 + 1)
    @example(a=1.4, b=0.3, seed=(0.0, 0.0), transient=1000, samples=3 * 2**16 - 5)
    def test_orbit(self, a, b, seed, transient, samples):
        params = HenonParams(a=a, b=b, seed=seed, transient=transient, samples=samples)
        assert _outcome(henon_orbit, params) == _outcome(_frozen_henon, params)

    @pytest.mark.parametrize("transient, samples", [(10, 5), (3, 5), (0, 5)])
    def test_divergence_in_and_after_the_transient(self, transient, samples):
        params = HenonParams(a=2.0, seed=(3.0, 0.0), transient=transient, samples=samples)
        expected = ("diverged", "orbit diverged at step 4")
        assert _outcome(henon_orbit, params) == _outcome(_frozen_henon, params) == expected

    def test_divergence_in_a_later_block(self):
        # With a = 0, x' = 1 + b * x_prev grows like b**(n/2) and escapes in the second block.
        params = HenonParams(a=0.0, b=1.0001, transient=0, samples=100_000)
        expected = ("diverged", "orbit diverged at step 92306")
        assert _outcome(henon_orbit, params) == _outcome(_frozen_henon, params) == expected

    def test_numpy_scalar_coefficients(self):
        scalar = HenonParams(a=np.float64(1.4), b=np.float64(0.3), samples=1000)
        plain = henon_orbit(HenonParams(samples=1000))
        assert henon_orbit(scalar).points.tobytes() == plain.points.tobytes()
        assert _outcome(henon_orbit, scalar) == _outcome(_frozen_henon, scalar)

    @settings(max_examples=200, deadline=None)
    @given(
        maps=st.lists(
            st.tuples(
                st.lists(st.floats(-0.49, 0.49), min_size=4, max_size=4),
                st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
            ),
            min_size=1,
            max_size=4,
        ),
        weights=st.lists(st.integers(0, 5), min_size=4, max_size=4),
        seed=st.tuples(_coordinates, _coordinates),
        transient=st.integers(0, 40),
        samples=st.integers(1, 200),
        rng_seed=st.integers(0, 2**32),
    )
    def test_chaos_game(self, maps, weights, seed, transient, samples, rng_seed):
        # Entries below 1/2 in magnitude keep the Frobenius, hence the 2-norm, below 1.
        weights = np.array(weights[: len(maps)], dtype=float)
        weights[0] += 1.0  # some weights may be zero, not all
        spec = IfsSpec(
            maps=tuple((np.reshape(m, (2, 2)), np.array(o)) for m, o in maps),
            probabilities=tuple(weights / weights.sum()),
            seed=seed,
            transient=transient,
            samples=samples,
            rng_seed=rng_seed,
        )
        assert _outcome(ifs_chaos_game, spec) == _outcome(_frozen_chaos_game_2d, spec)

    # The draws come in blocks of 2**16: iterates that end one past a block,
    # a transient longer than a block, and samples that end inside the third.
    @pytest.mark.parametrize(
        "transient, samples", [(0, 2**16 + 1), (2**16 + 3, 10), (1000, 3 * 2**16 - 5)]
    )
    def test_chaos_game_across_draw_blocks(self, transient, samples):
        spec = sierpinski_spec(samples, rng_seed=7, transient=transient)
        assert _outcome(ifs_chaos_game, spec) == _outcome(_frozen_chaos_game_2d, spec)

    def test_generic_dimension_across_draw_blocks(self):
        # The 1-D Cantor maps, with the samples starting 2 iterates before a block ends.
        third = np.array([[1.0 / 3.0]])
        spec = IfsSpec(
            maps=((third, np.array([0.0])), (third, np.array([2.0 / 3.0]))),
            probabilities=(0.5, 0.5),
            seed=(0.0,),
            transient=2**16 - 2,
            samples=5,
            rng_seed=3,
        )
        point, expected = np.zeros(1), []
        for n, u in enumerate(np.random.default_rng(3).random(2**16 + 3)):
            mat, off = spec.maps[int(u >= 0.5)]
            point = mat @ point + off
            if n >= spec.transient:
                expected.append(point)
        assert ifs_chaos_game(spec).points.tobytes() == np.array(expected).tobytes()

    def test_draws_past_the_rounded_total_take_the_last_map(self, monkeypatch):
        # Ten weights of 0.1 sum to 1 - 2**-53 in floats, so a draw can fall
        # at or past the total; that draw selects the last map, even one of
        # weight zero.
        below_one = np.nextafter(1.0, 0.0)

        class Draws:
            def random(self, size):
                return np.resize([0.0, 0.95, below_one, 0.35, 0.99], size)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
        half = np.eye(2) * 0.25
        maps = tuple((half, np.array([float(i), -float(i)])) for i in range(11))
        spec = IfsSpec(
            maps=maps, probabilities=(0.1,) * 10 + (0.0,), seed=(0.5, 0.5), transient=3, samples=20
        )
        assert np.cumsum(spec.probabilities)[-1] <= below_one
        assert _outcome(ifs_chaos_game, spec) == _outcome(_frozen_chaos_game_2d, spec)


class TestCantorPoints:
    def test_level_one(self):
        cloud = cantor_points(1)
        assert np.array_equal(cloud.points[:, 0], [0.0, 2.0 / 3.0])

    def test_level_two(self):
        cloud = cantor_points(2)
        assert np.array_equal(cloud.points[:, 0], [0.0, 2.0 / 9.0, 2.0 / 3.0, 8.0 / 9.0])

    def test_level_ten_size_and_range(self):
        cloud = cantor_points(10)
        assert len(cloud) == 1024
        assert cloud.dim == 1
        assert cloud.points.min() == 0.0
        assert cloud.points.max() < 1.0

    def test_construction_nesting(self):
        # Left endpoints survive refinement; float values coincide exactly.
        coarse = set(cantor_points(6).points[:, 0])
        fine = set(cantor_points(7).points[:, 0])
        assert coarse <= fine

    def test_integer_lattice_scale(self):
        cloud = cantor_points(5, scale=3**5)
        values = cloud.points[:, 0]
        assert np.array_equal(values, np.sort(values))
        assert np.all(values == np.floor(values))
        # Largest left endpoint: sum of 2*3^(5-i) for i=1..5.
        assert values[-1] == 242.0

    def test_level_out_of_range(self):
        for bad in (0, 21, 2.5):
            with pytest.raises(InputError, match="level out of range"):
                cantor_points(bad)


class TestChaosGame:
    def test_sierpinski_stays_in_vertex_hull(self):
        spec = sierpinski_spec(5000, rng_seed=1)
        cloud = ifs_chaos_game(spec)
        x, y = cloud.points[:, 0], cloud.points[:, 1]
        root3 = math.sqrt(3.0)
        slack = 1e-9
        assert np.all(y >= -slack)
        assert np.all(y <= root3 * x + slack)
        assert np.all(y <= root3 * (1.0 - x) + slack)

    def test_fixed_points_are_triangle_vertices(self):
        spec = sierpinski_spec(1)
        # The fixed point of x -> A x + b solves (I - A) x = b.
        fixed = np.stack([np.linalg.solve(np.eye(2) - mat, off) for mat, off in spec.maps])
        expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        assert np.allclose(fixed, expected, atol=1e-12)

    def test_single_map_geometric_decay(self):
        spec = IfsSpec(
            maps=((np.array([[0.5]]), np.array([0.0])),),
            probabilities=(1.0,),
            seed=(1.0,),
            transient=60,
            samples=5,
            rng_seed=0,
        )
        cloud = ifs_chaos_game(spec)
        assert np.all(np.abs(cloud.points) < 1e-15)

    def test_fixed_rng_seed_reproduces_exactly(self):
        a = ifs_chaos_game(sierpinski_spec(2000, rng_seed=42))
        b = ifs_chaos_game(sierpinski_spec(2000, rng_seed=42))
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = ifs_chaos_game(sierpinski_spec(2000, rng_seed=1))
        b = ifs_chaos_game(sierpinski_spec(2000, rng_seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_generic_dimension_path(self):
        # 3-d contraction toward a fixed point.
        spec = IfsSpec(
            maps=((np.eye(3) * 0.5, np.array([0.5, 0.0, 0.25])),),
            probabilities=(1.0,),
            seed=(0.0, 0.0, 0.0),
            transient=200,
            samples=3,
            rng_seed=0,
        )
        cloud = ifs_chaos_game(spec)
        assert np.allclose(cloud.points, [1.0, 0.0, 0.5], atol=1e-12)

    @pytest.mark.parametrize("transient", [2**31, 10**30])
    def test_transient_is_bounded(self, transient):
        # The draws come in blocks, so no allocation would refuse 10**30 iterates.
        with pytest.raises(InputError, match="^transient must be at most 2147483647$"):
            sierpinski_spec(1, transient=transient)
        assert sierpinski_spec(1, transient=2**31 - 1).transient == 2**31 - 1

    def test_chaos_game_holds_one_block_of_draws(self):
        # 8 bytes per iterate, held for every iterate, would add half the cloud's bytes.
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            cloud = ifs_chaos_game(sierpinski_spec(2 * 10**5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 1.5 * cloud.points.nbytes

    def test_non_contraction_rejected(self):
        with pytest.raises(InputError, match="not a contraction"):
            IfsSpec(
                maps=((np.eye(2), np.zeros(2)),),
                probabilities=(1.0,),
                seed=(0.0, 0.0),
            )

    def test_bad_probabilities_rejected(self):
        half = np.eye(2) * 0.5
        with pytest.raises(InputError, match="probabilities"):
            IfsSpec(
                maps=((half, np.zeros(2)), (half, np.ones(2))),
                probabilities=(0.9, 0.3),
                seed=(0.0, 0.0),
            )
        with pytest.raises(InputError, match="probabilities"):
            IfsSpec(
                maps=((half, np.zeros(2)), (half, np.ones(2))),
                probabilities=(-0.5, 1.5),
                seed=(0.0, 0.0),
            )

    def test_seed_dimension_checked(self):
        with pytest.raises(InputError):
            IfsSpec(
                maps=((np.eye(2) * 0.5, np.zeros(2)),),
                probabilities=(1.0,),
                seed=(0.0, 0.0, 0.0),
            )

    def test_negative_rng_seed_rejected(self):
        # numpy's PCG64 refuses negative seeds with a ValueError of its own.
        with pytest.raises(InputError, match="^rng_seed must be non-negative$"):
            sierpinski_spec(10, rng_seed=-1)


class TestCalibrationShapes:
    def test_segment_three_samples(self):
        cloud = uniform_segment(3)
        assert np.array_equal(cloud.points, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])

    def test_segment_single_sample(self):
        assert np.array_equal(uniform_segment(1).points, [[0.0, 0.0]])

    def test_square_corner_grid(self):
        cloud = uniform_square(4)
        expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        assert {tuple(p) for p in cloud.points} == expected

    def test_square_power_of_four_is_exact_grid(self):
        k = 3
        cloud = uniform_square(4**k)
        axis = np.linspace(0.0, 1.0, 2**k)
        assert len(cloud) == 4**k
        assert set(np.unique(cloud.points[:, 0])) == set(axis)
        assert set(np.unique(cloud.points[:, 1])) == set(axis)

    @pytest.mark.parametrize("samples", [1, 2, 3, 4, 5, 17, 1000, 2**18, 10**6 + 7])
    def test_square_matches_meshgrid_fill(self, samples):
        # Frozen copy of the m x m meshgrid fill, truncated to `samples` rows.
        m = math.isqrt(samples)
        if m * m < samples:
            m += 1
        axis = np.linspace(0.0, 1.0, m) if m > 1 else np.zeros(1)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([xx.ravel(), yy.ravel()], axis=1)[:samples]
        assert uniform_square(samples).points.tobytes() == grid.tobytes()

    def test_square_partial_grid_deterministic(self):
        a = uniform_square(5)
        b = uniform_square(5)
        assert len(a) == 5
        assert np.array_equal(a.points, b.points)

    def test_sample_count_validated(self):
        with pytest.raises(InputError):
            uniform_segment(0)
        with pytest.raises(InputError):
            uniform_square(0)
