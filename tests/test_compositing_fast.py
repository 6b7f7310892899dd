"""Differential and property tests for the run-length compositing data path.

The contract under test mirrors ``render_reference`` from the volume
renderers: the fast engine (run-length ``RunImage`` sub-images, batched
exchanges, dpp-routed merges) must stay within ``atol=1e-10`` of the dense
per-run reference drivers (``composite_reference``) and of a single serial
visibility-ordered fold, for every algorithm, both modes, and arbitrary rank
counts -- including non-powers-of-two and primes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compositing import Compositor, composite_reference, run_image_from_framebuffer
from repro.compositing.algorithms import _pixel_partition, factor_radices
from repro.compositing.image import composite_pixels, from_framebuffer
from repro.compositing.merge import merge_fragments, merge_sorted_pair
from repro.compositing.runimage import RunImage, active_mask, expand_runs, wire_bytes_table
from repro.rendering.framebuffer import Framebuffer
from repro.runtime.communicator import SimulatedCommunicator

ALGORITHMS = ("direct-send", "binary-swap", "radix-k")

#: Rank counts covering the interesting regimes: identity, powers of two,
#: non-powers-of-two (binary-swap's fold phase), and primes (radix-k's
#: degenerate factorisation).
RANK_COUNTS = (1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 16)


def runs_from_pixels(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: contiguous ``(offsets, lengths)`` runs of an ascending pixel-id array."""
    pixels = np.asarray(pixels, dtype=np.int64)
    if len(pixels) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    breaks = np.flatnonzero(np.diff(pixels) != 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [len(pixels)]))
    return pixels[starts], (stops - starts).astype(np.int64)


def piece_message(image: RunImage, start: int, stop: int, with_depth: bool = True):
    """Oracle: one exchanged piece, pixels ``[start, stop)``, as ``(payload, wire_bytes)``.

    ``payload`` is ``(pixels, rgba, depth_or_None, key)``; the wire size is
    counted one piece at a time from the piece's own runs (64-byte header,
    16 bytes a run, 40 bytes a pixel with depth or 32 without).
    """
    lo, hi = np.searchsorted(image.pixels, (start, stop)).tolist()
    payload = (image.pixels[lo:hi], image.rgba[lo:hi], image.depth[lo:hi] if with_depth else None, image.key)
    runs = len(runs_from_pixels(image.pixels[lo:hi])[0])
    return payload, 64.0 + 16.0 * runs + (40.0 if with_depth else 32.0) * (hi - lo)


def _random_framebuffers(rng, count, width=13, height=9, alpha=1.0, fill=0.5):
    framebuffers = []
    for rank in range(count):
        framebuffer = Framebuffer(width, height)
        mask = rng.random((height, width)) < fill
        covered = int(mask.sum())
        framebuffer.rgba[mask] = np.column_stack([rng.random((covered, 3)), np.full(covered, alpha)])
        framebuffer.depth[mask] = rng.random(covered) * 5.0 + rank * 0.01
        framebuffers.append(framebuffer)
    return framebuffers


class TestDifferential:
    """Fast engine vs composite_reference vs serial fold (satellite 1)."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tasks", RANK_COUNTS)
    def test_depth_mode_matches_reference(self, rng, algorithm, tasks):
        framebuffers = _random_framebuffers(rng, tasks)
        fast = Compositor(algorithm).composite([fb.copy() for fb in framebuffers], mode="depth")
        reference = Compositor(algorithm).composite(
            [fb.copy() for fb in framebuffers], mode="depth", engine="reference"
        )
        assert np.allclose(fast.framebuffer.rgba, reference.framebuffer.rgba, atol=1e-10, rtol=0.0)
        assert np.array_equal(fast.framebuffer.depth, reference.framebuffer.depth)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tasks", RANK_COUNTS)
    def test_over_mode_matches_reference(self, rng, algorithm, tasks):
        framebuffers = _random_framebuffers(rng, tasks, alpha=0.6)
        visibility = list(rng.permutation(tasks).astype(float))
        fast = Compositor(algorithm).composite(
            [fb.copy() for fb in framebuffers], mode="over", visibility_order=visibility
        )
        reference = Compositor(algorithm).composite(
            [fb.copy() for fb in framebuffers],
            mode="over",
            visibility_order=visibility,
            engine="reference",
        )
        assert np.allclose(fast.framebuffer.rgba, reference.framebuffer.rgba, atol=1e-10, rtol=0.0)
        assert np.allclose(fast.framebuffer.depth, reference.framebuffer.depth, atol=1e-10, rtol=0.0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tasks", (3, 5, 8, 13))
    def test_over_mode_matches_serial_fold(self, rng, algorithm, tasks):
        """The fast engine agrees with one serial visibility-ordered fold."""
        framebuffers = _random_framebuffers(rng, tasks, alpha=0.5)
        visibility = list(rng.permutation(tasks).astype(float))
        fast = Compositor(algorithm).composite(
            [fb.copy() for fb in framebuffers], mode="over", visibility_order=visibility
        )
        serial = Compositor.serial_reference(framebuffers, mode="over", visibility_order=visibility)
        assert np.allclose(fast.framebuffer.rgba, serial.rgba, atol=1e-10, rtol=0.0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tasks", (4, 7, 12))
    def test_depth_mode_matches_serial_fold(self, rng, algorithm, tasks):
        framebuffers = _random_framebuffers(rng, tasks)
        fast = Compositor(algorithm).composite([fb.copy() for fb in framebuffers], mode="depth")
        serial = Compositor.serial_reference(framebuffers, mode="depth")
        assert np.allclose(fast.framebuffer.rgba, serial.rgba, atol=1e-10, rtol=0.0)
        assert np.array_equal(fast.framebuffer.depth, serial.depth)

    @given(tasks=st.integers(1, 17), seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_randomized_rank_counts(self, tasks, seed):
        """Hypothesis-driven P (prime, composite, or 1) on both modes."""
        rng = np.random.default_rng(seed)
        framebuffers = _random_framebuffers(rng, tasks, width=11, height=6, alpha=0.7)
        visibility = list(rng.permutation(tasks).astype(float))
        for algorithm in ALGORITHMS:
            fast = Compositor(algorithm).composite(
                [fb.copy() for fb in framebuffers], mode="over", visibility_order=visibility
            )
            reference = Compositor(algorithm).composite(
                [fb.copy() for fb in framebuffers],
                mode="over",
                visibility_order=visibility,
                engine="reference",
            )
            assert np.allclose(fast.framebuffer.rgba, reference.framebuffer.rgba, atol=1e-10, rtol=0.0)

    @given(
        tasks=st.integers(1, 40),
        width=st.integers(1, 6),
        height=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_degenerate_images_match_reference_on_every_path(self, tasks, width, height, seed):
        """The merge kernels' edges: more ranks than pixels, and images that are
        empty, alpha 0, NaN-coloured or all at one depth, through every algorithm
        (radix-k on a random explicit schedule), both modes and two live budgets."""
        rng = np.random.default_rng(seed)
        framebuffers = []
        for kind in rng.choice(["random", "empty", "alpha0", "nan", "flat"], size=tasks):
            framebuffer = Framebuffer(width, height)
            if kind != "empty":
                mask = rng.random((height, width)) < 0.6
                covered = int(mask.sum())
                if kind != "alpha0":  # background colour at a finite depth: active only in z-buffer mode
                    framebuffer.rgba[mask] = np.column_stack(
                        [rng.random((covered, 3)), np.full(covered, 0.7)]
                    )
                if kind == "nan":
                    framebuffer.rgba[mask, :3] = np.nan
                framebuffer.depth[mask] = 2.0 if kind == "flat" else rng.random(covered) * 5.0
            framebuffers.append(framebuffer)
        # A random ordered factorization of the rank count (1 -> [1]; a prime p -> [p]).
        factors, rest = [], tasks
        for prime in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            while rest % prime == 0:
                factors.append(prime)
                rest //= prime
        radices = [1]
        for factor in rng.permutation(factors):
            if radices[-1] == 1 or rng.random() < 0.4:
                radices[-1] *= int(factor)
            else:
                radices.append(int(factor))
        budgets = (int(rng.integers(1, tasks + 1)), tasks + 3)
        for algorithm in ALGORITHMS:
            compositor = Compositor(algorithm, radices=radices if algorithm == "radix-k" else None)
            for mode in ("depth", "over"):
                kwargs = {"visibility_order": list(range(tasks))} if mode == "over" else {}
                reference = compositor.composite(
                    [fb.copy() for fb in framebuffers], mode=mode, engine="reference", **kwargs
                ).framebuffer
                images = [
                    run_image_from_framebuffer(fb, mode, key=rank)
                    for rank, fb in enumerate(framebuffers)
                ]
                small, large = (
                    compositor.composite_streaming(
                        images.__getitem__, tasks, width, height, mode, max_live_ranks=budget,
                        rank_background=tuple(framebuffers[0].background),
                    )
                    for budget in budgets
                )
                case = (algorithm, mode, radices, budgets)
                assert np.allclose(
                    small.framebuffer.rgba, reference.rgba, atol=1e-10, rtol=0.0, equal_nan=True
                ), case
                assert np.allclose(small.framebuffer.depth, reference.depth, atol=1e-10, rtol=0.0), case
                assert small.framebuffer.rgba.tobytes() == large.framebuffer.rgba.tobytes(), case
                assert small.framebuffer.depth.tobytes() == large.framebuffer.depth.tobytes(), case
                assert small.merge_operations == large.merge_operations, case
                assert small.bytes_exchanged == large.bytes_exchanged, case
                assert small.messages == large.messages, case

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("mode", ("depth", "over"))
    def test_zero_active_pixel_sub_images(self, algorithm, mode):
        """Fully empty ranks must compose without error (satellite 2)."""
        tasks = 5
        framebuffers = [Framebuffer(8, 6) for _ in range(tasks)]
        kwargs = {"mode": mode}
        if mode == "over":
            kwargs["visibility_order"] = list(np.arange(tasks, dtype=float))
        fast = Compositor(algorithm).composite([fb.copy() for fb in framebuffers], **kwargs)
        reference = Compositor(algorithm).composite(
            [fb.copy() for fb in framebuffers], engine="reference", **kwargs
        )
        assert fast.average_active_pixels == 0.0
        assert fast.merge_operations == 0
        assert np.allclose(fast.framebuffer.rgba, reference.framebuffer.rgba, atol=1e-10, rtol=0.0)

    def test_reference_dispatcher_validates(self, rng):
        framebuffers = _random_framebuffers(rng, 2)
        images = [from_framebuffer(fb) for fb in framebuffers]
        with pytest.raises(ValueError):
            composite_reference("nope", images, SimulatedCommunicator(2), "depth")

    def test_engine_validation(self, rng):
        framebuffers = _random_framebuffers(rng, 2)
        with pytest.raises(ValueError):
            Compositor().composite(framebuffers, mode="depth", engine="warp-drive")


class TestProperties:
    """factor_radices and _pixel_partition properties (satellite 2)."""

    @given(size=st.integers(2, 512))
    @settings(max_examples=80, deadline=None)
    def test_factor_radices_product_and_bounds(self, size):
        radices = factor_radices(size)
        assert int(np.prod(radices)) == size
        assert all(radix >= 2 for radix in radices)

    @given(prime=st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 97, 251)))
    @settings(max_examples=20, deadline=None)
    def test_factor_radices_stable_for_primes(self, prime):
        if prime <= 4:
            assert int(np.prod(factor_radices(prime))) == prime
        else:
            assert factor_radices(prime) == [prime]

    def test_factor_radices_identity_and_validation(self):
        assert factor_radices(1) == [1]
        with pytest.raises(ValueError):
            factor_radices(0)

    @given(num_pixels=st.integers(0, 300), parts=st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_pixel_partition_tiles_the_range(self, num_pixels, parts):
        partition = _pixel_partition(num_pixels, parts)
        assert len(partition) == parts
        cursor = 0
        for start, stop in partition:
            assert start == cursor
            assert stop >= start
            cursor = stop
        assert cursor == num_pixels
        if parts > num_pixels:
            # More parts than pixels: some runs must be empty, none negative.
            assert sum(1 for start, stop in partition if start == stop) >= parts - num_pixels


class TestRunImage:
    def test_runs_round_trip(self, rng):
        pixels = np.sort(rng.choice(200, size=60, replace=False))
        offsets, lengths = runs_from_pixels(pixels)
        assert np.array_equal(expand_runs(offsets, lengths), pixels)
        assert lengths.sum() == len(pixels)
        assert (lengths >= 1).all()
        # Runs are maximal: consecutive runs never touch.
        assert ((offsets[1:] - (offsets[:-1] + lengths[:-1])) > 0).all()

    def test_from_framebuffer_modes(self, rng):
        framebuffer = Framebuffer(10, 8)
        mask = rng.random((8, 10)) < 0.4
        covered = int(mask.sum())
        framebuffer.rgba[mask] = np.column_stack([rng.random((covered, 3)), np.full(covered, 0.8)])
        framebuffer.depth[mask] = rng.random(covered)
        for mode in ("depth", "over"):
            image = run_image_from_framebuffer(framebuffer, mode, key=3)
            assert image.active_pixels == covered
            assert image.active_pixels == int(np.count_nonzero(active_mask(
                framebuffer.rgba, framebuffer.depth, mode)))
            assert np.array_equal(np.sort(image.pixels), image.pixels)
            assert runs_from_pixels(image.pixels)[1].sum() == covered
        over_image = run_image_from_framebuffer(framebuffer, "over", key=3)
        assert np.all(over_image.depth == 3.0)

    def test_piece_message_clips_runs_and_charges_wire_bytes(self):
        # One image with runs [2, 5) and [8, 11); cut at pixel 4.
        pixels = np.array([2, 3, 4, 8, 9, 10])
        rgba = np.tile([0.5, 0.5, 0.5, 1.0], (6, 1))
        depth = np.arange(6, dtype=float)
        image = RunImage.from_arrays(pixels, rgba, depth, width=12, height=1)
        assert len(runs_from_pixels(image.pixels)[0]) == 2
        payload, nbytes = piece_message(image, 3, 9)
        piece_pixels, piece_rgba, piece_depth, key = payload
        assert np.array_equal(piece_pixels, [3, 4, 8])
        assert piece_rgba.shape == (3, 4) and piece_depth.shape == (3,)
        # Two clipped runs ([3,5) and [8,9)): 64 header + 2*16 runs + 3*40 payload.
        assert nbytes == 64.0 + 32.0 + 120.0
        empty_payload, empty_bytes = piece_message(image, 5, 8)
        assert len(empty_payload[0]) == 0 and empty_bytes == 64.0
        # over-mode payload omits the depth plane and charges 32 B/pixel.
        over_payload, over_bytes = piece_message(image, 3, 9, with_depth=False)
        assert over_payload[2] is None
        assert over_bytes == 64.0 + 32.0 + 96.0

    def test_wire_bytes_table_matches_piece_message(self, rng):
        """One image cut along a partition, then two images end to end in disjoint bands."""
        images = [
            RunImage.from_arrays(
                np.sort(rng.choice(100, size=count, replace=False)),
                rng.random((count, 4)), rng.random(count), width=100, height=1,
            )
            for count in (40, 97)  # the second has long runs, and one that ends on pixel 99
        ]
        images[1].pixels[-1] = 99
        edges = np.array([0, 17, 40, 41, 90, 100])
        expected = np.array([
            [piece_message(image, int(lo), int(hi))[1] for lo, hi in zip(edges, edges[1:])]
            for image in images
        ])
        for image, row in zip(images, expected):
            cuts = np.searchsorted(image.pixels, edges)
            assert np.array_equal(wire_bytes_table(image.pixels, cuts, True), row)
        band = np.concatenate([images[0].pixels, images[1].pixels + 100])
        bounds = np.searchsorted(band, edges + np.array([[0], [100]]))
        assert np.array_equal(wire_bytes_table(band, bounds, True), expected)
        over = wire_bytes_table(band, bounds, False)
        assert np.array_equal(over, expected - 8.0 * np.diff(bounds, axis=1))
        assert np.array_equal(wire_bytes_table(band[:0], np.zeros((2, 3), dtype=np.int64), True),
                              np.full((2, 2), 64.0))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RunImage(4, 4, np.arange(3), np.zeros((2, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            RunImage(4, 4, np.arange(3), np.zeros((3, 4)), np.zeros(2))


class TestMergeKernels:
    def test_merge_sorted_pair_matches_composite_pixels(self, rng):
        """Union merge on overlapping streams equals the dense pairwise merge."""
        num_pixels = 64
        for mode in ("depth", "over"):
            dense = []
            streams = []
            for key in range(2):
                rgba = np.zeros((num_pixels, 4))
                depth = np.full(num_pixels, np.inf if mode == "depth" else float(key))
                mask = rng.random(num_pixels) < 0.6
                covered = int(mask.sum())
                rgba[mask] = np.column_stack([rng.random((covered, 3)), np.full(covered, 0.7)])
                if mode == "depth":
                    depth[mask] = rng.random(covered)
                    pixels = np.flatnonzero(np.isfinite(depth))
                else:
                    pixels = np.flatnonzero(rgba[:, 3] > 0)
                dense.append((rgba, depth))
                keys = np.full(len(pixels), key, dtype=np.int64)
                streams.append(
                    (
                        pixels,
                        rgba[pixels],
                        depth[pixels] if mode == "depth" else None,
                        keys if mode == "depth" else None,
                    )
                )
            (out_pix, out_rgba, _, _), _ = merge_sorted_pair(streams[0], streams[1], mode)
            expected_rgba, expected_depth = composite_pixels(
                dense[0][0], dense[0][1], dense[1][0], dense[1][1], mode
            )
            for position, pixel in enumerate(out_pix):
                assert np.allclose(out_rgba[position], expected_rgba[pixel], atol=1e-10)

    def test_merge_sorted_pair_empty_sides(self):
        empty = (np.empty(0, dtype=np.int64), np.empty((0, 4)), np.empty(0), np.empty(0, np.int64))
        stream = (np.array([1, 2]), np.ones((2, 4)), np.zeros(2), np.zeros(2, np.int64))
        merged, ops = merge_sorted_pair(empty, stream, "depth")
        assert ops == 0 and np.array_equal(merged[0], [1, 2])
        merged, ops = merge_sorted_pair(stream, empty, "depth")
        assert ops == 0 and np.array_equal(merged[0], [1, 2])

    def test_merge_fragments_depth_selects_nearest_with_key_ties(self):
        pixels = np.array([4, 4, 4, 9, 9])
        keys = np.array([2, 0, 1, 1, 0])
        rgba = np.arange(20, dtype=float).reshape(5, 4)
        depth = np.array([1.0, 3.0, 1.0, 2.0, 2.0])
        out_pix, out_rgba, out_depth, ops = merge_fragments(pixels, keys, rgba, depth, "depth")
        assert np.array_equal(out_pix, [4, 9])
        assert ops == 3
        # Pixel 4: min depth 1.0 shared by keys 1 and 2 -> key 1 wins.
        assert np.array_equal(out_rgba[0], rgba[2])
        # Pixel 9: tie at depth 2.0 -> key 0 wins.
        assert np.array_equal(out_rgba[1], rgba[4])
        assert np.array_equal(out_depth, [1.0, 2.0])

    def test_merge_fragments_implicit_keys_match_explicit(self, rng):
        """keys=None (key-ordered concatenation) equals explicit keys."""
        pixels = np.concatenate([np.sort(rng.choice(50, 20, replace=False)) for _ in range(3)])
        keys = np.repeat(np.arange(3), 20)
        rgba = rng.random((60, 4))
        depth = rng.random(60)
        explicit = merge_fragments(pixels, keys, rgba, depth, "depth")
        implicit = merge_fragments(pixels, None, rgba, depth, "depth")
        for left, right in zip(explicit, implicit):
            assert np.array_equal(np.asarray(left), np.asarray(right))

    def test_merge_fragments_empty_and_validation(self):
        out = merge_fragments(np.empty(0, np.int64), None, np.empty((0, 4)), None, "over")
        assert len(out[0]) == 0 and out[3] == 0
        with pytest.raises(ValueError):
            merge_fragments(np.array([1]), None, np.ones((1, 4)), np.ones(1), "nope")

    @pytest.mark.parametrize("max_live", (4, 12))
    def test_banded_groups_do_not_leak(self, rng, max_live):
        """Every group of a round shares one stream; no fragment may cross into another's band.

        All ranks cover every pixel, so any leak between bands changes a
        winner: the z-buffer result must be each pixel's nearest rank, exactly.
        """
        tasks, width, height = 12, 6, 4
        depth = rng.permuted(np.tile(np.arange(tasks, dtype=float), (width * height, 1)), axis=1).T
        colors = rng.random((tasks, 4))
        images = [
            RunImage.from_arrays(
                np.arange(width * height), np.tile(colors[rank], (width * height, 1)),
                depth[rank], width, height, key=rank,
            )
            for rank in range(tasks)
        ]
        result = Compositor("radix-k", radices=[2, 3, 2]).composite_streaming(
            images.__getitem__, tasks, width, height, "depth", max_live_ranks=max_live
        )
        nearest = np.argmin(depth, axis=0)
        assert np.array_equal(result.framebuffer.rgba.reshape(-1, 4), colors[nearest])
        assert np.array_equal(result.framebuffer.depth.reshape(-1), np.zeros(width * height))
        assert result.merge_operations == (tasks - 1) * width * height


class TestAccountingSemantics:
    def test_runlength_engine_exchanges_fewer_bytes(self, rng):
        """Run-length wire encoding beats dense slabs on sparse images."""
        framebuffers = _random_framebuffers(rng, 6, fill=0.3)
        fast = Compositor("radix-k").composite([fb.copy() for fb in framebuffers], mode="depth")
        reference = Compositor("radix-k").composite(
            [fb.copy() for fb in framebuffers], mode="depth", engine="reference"
        )
        assert fast.bytes_exchanged < reference.bytes_exchanged
        assert fast.engine == "runlength" and reference.engine == "reference"

    def test_average_active_pixels_is_mode_aware(self, rng):
        """Over-mode avg(AP) counts alpha-carrying pixels, not the whole plane."""
        framebuffers = _random_framebuffers(rng, 4, alpha=0.5, fill=0.25)
        visibility = list(np.arange(4, dtype=float))
        result = Compositor("radix-k").composite(
            framebuffers, mode="over", visibility_order=visibility
        )
        expected = float(np.mean([
            int(np.count_nonzero(fb.rgba.reshape(-1, 4)[:, 3] > 0)) for fb in framebuffers
        ]))
        assert result.average_active_pixels == pytest.approx(expected)
        assert result.average_active_pixels < framebuffers[0].num_pixels
