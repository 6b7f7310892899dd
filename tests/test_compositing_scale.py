"""Thousand-rank streaming compositing: differential and contract tests.

One schedule-driven cohort driver (``algorithms.run_schedule``) serves both
``Compositor.composite`` (a list of framebuffers, budget = the population)
and ``Compositor.composite_streaming`` (a factory and a ``max_live_ranks``
budget).  Cohort execution is a pure reordering of the schedule's merge
operations, so its contract splits at the oracle boundary:

* **at or below 256 ranks** ``composite_reference`` still fits: any budget
  must be *byte-identical* to ``composite()`` over the same images and within
  ``1e-10`` of ``engine="reference"``;
* **above 256 ranks** no dense oracle exists, so correctness is pinned by
  cohort-size invariance: any two ``max_live_ranks`` budgets must produce
  byte-identical images, identical merge counts, and identical network
  accounting.

Also covered here: the schedule family (binary-swap and direct-send as radix
schedules), the ``_LiveLedger`` memory contract
(``peak_live_images <= max_live_ranks + 1``), the radix-schedule validation
error (library + CLI exit code 8), the scale scenarios (uniform / AMR proxy /
camera orbit), the contention-aware round accounting, and the extrapolated
GPU architecture profiles.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compositing import (
    Compositor,
    RadixFactorError,
    SCENARIOS,
    scene_factory,
    validate_radices,
)
from repro.compositing.algorithms import _partition_edges, run_schedule, schedule_for
from repro.compositing.runimage import RunImage, run_image_from_framebuffer
from repro.machines.archspec import get_architecture
from repro.modeling.features import contention_features_from_result
from repro.rendering.rays import CameraPath
from repro.rendering.framebuffer import Framebuffer
from repro.runtime.communicator import SimulatedCommunicator
from repro.simulations import create_proxy
from repro.simulations.amr import AmrProxy
from repro.study import cli as study_cli

ALGORITHMS = ("direct-send", "binary-swap", "radix-k")


def _random_framebuffers(rng, count, width=11, height=7, alpha=1.0, fill=0.5):
    framebuffers = []
    for rank in range(count):
        framebuffer = Framebuffer(width, height)
        mask = rng.random((height, width)) < fill
        covered = int(mask.sum())
        framebuffer.rgba[mask] = np.column_stack([rng.random((covered, 3)), np.full(covered, alpha)])
        framebuffer.depth[mask] = rng.random(covered) * 5.0 + rank * 0.01
        framebuffers.append(framebuffer)
    return framebuffers


def _stream(algorithm, scenario, tasks, size, max_live, mode="depth", seed=2016):
    factory = scene_factory(scenario, tasks, size, size, mode=mode, seed=seed)
    return Compositor(algorithm).composite_streaming(
        factory, tasks, size, size, mode=mode, max_live_ranks=max_live
    )


def _stream_framebuffers(algorithm, framebuffers, mode, max_live, visibility=None):
    """``composite_streaming`` over the run images ``composite()`` would build."""
    order = range(len(framebuffers)) if visibility is None else np.argsort(visibility, kind="stable")
    images = [
        run_image_from_framebuffer(framebuffers[index], mode, key=position)
        for position, index in enumerate(order)
    ]
    first = framebuffers[0]
    return Compositor(algorithm).composite_streaming(
        images.__getitem__,
        len(images),
        first.width,
        first.height,
        mode,
        max_live_ranks=max_live,
        rank_background=tuple(float(v) for v in first.background),
    )


def _assert_same_composite(left, right):
    assert left.framebuffer.rgba.tobytes() == right.framebuffer.rgba.tobytes()
    assert left.framebuffer.depth.tobytes() == right.framebuffer.depth.tobytes()
    assert left.merge_operations == right.merge_operations
    assert left.bytes_exchanged == right.bytes_exchanged
    assert left.messages == right.messages
    assert left.network_seconds == right.network_seconds


class TestDenseOracle:
    """Below 256 ranks any cohort budget must equal ``composite()`` and the oracle."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tasks", (1, 2, 5, 13, 16, 31))
    def test_cohort_engine_is_byte_identical_to_runlength(self, rng, algorithm, tasks):
        framebuffers = _random_framebuffers(rng, tasks)
        dense = Compositor(algorithm).composite([fb.copy() for fb in framebuffers], mode="depth")
        cohort = _stream_framebuffers(algorithm, framebuffers, "depth", max_live=3)
        _assert_same_composite(cohort, dense)
        assert cohort.peak_live_images <= 3 + 1
        assert cohort.engine == dense.engine == "runlength"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tasks", (3, 8, 12))
    def test_cohort_engine_matches_reference_in_over_mode(self, rng, algorithm, tasks):
        framebuffers = _random_framebuffers(rng, tasks, alpha=0.6)
        visibility = list(rng.permutation(tasks).astype(float))
        cohort = _stream_framebuffers(algorithm, framebuffers, "over", 3, visibility)
        reference = Compositor(algorithm).composite(
            [fb.copy() for fb in framebuffers],
            mode="over",
            visibility_order=visibility,
            engine="reference",
        )
        assert np.allclose(
            cohort.framebuffer.rgba, reference.framebuffer.rgba, atol=1e-10, rtol=0.0
        )

    def test_cohort_is_not_an_engine(self, rng):
        framebuffers = _random_framebuffers(rng, 2)
        for engine in ("cohort", "warp-drive"):
            with pytest.raises(ValueError, match="unknown compositing engine"):
                Compositor().composite(framebuffers, mode="depth", engine=engine)

    def test_local_seconds_is_blending_time_not_image_generation(self):
        """``factory(position)`` runs inside the driver but is not compositing work."""
        tasks, size, nap = 20, 8, 0.005
        factory = scene_factory("uniform", tasks, size, size, mode="depth", seed=3)

        def slow_factory(position):
            time.sleep(nap)
            return factory(position)

        result = Compositor("binary-swap").composite_streaming(
            slow_factory, tasks, size, size, "depth", max_live_ranks=4
        )
        assert 0.0 < result.local_seconds < tasks * nap

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("mode", ("depth", "over"))
    def test_composite_past_the_old_dense_boundary(self, rng, algorithm, mode):
        """300 framebuffers: ``composite()`` = oracle = any streaming budget."""
        framebuffers = _random_framebuffers(rng, 300, width=6, height=5, alpha=0.7, fill=0.4)
        visibility = list(rng.permutation(300).astype(float)) if mode == "over" else None
        fast = Compositor(algorithm).composite(
            framebuffers, mode=mode, visibility_order=visibility
        )
        reference = Compositor(algorithm).composite(
            framebuffers, mode=mode, visibility_order=visibility, engine="reference"
        )
        assert np.allclose(fast.framebuffer.rgba, reference.framebuffer.rgba, atol=1e-10, rtol=0.0)
        assert fast.max_live_ranks == 300
        streamed = _stream_framebuffers(algorithm, framebuffers, mode, 7, visibility)
        _assert_same_composite(streamed, fast)
        assert streamed.peak_live_images <= 7 + 1

    @pytest.mark.parametrize("engine", ("runlength", "reference"))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("tasks", (8, 64))
    def test_composite_records_the_round_log(self, rng, algorithm, tasks, engine):
        """Contention features exist on every row, not only above 256 ranks, on either engine."""
        framebuffers = _random_framebuffers(rng, tasks)
        result = Compositor(algorithm).composite(framebuffers, mode="depth", engine=engine)
        features = contention_features_from_result(result)
        assert features["rounds"] > 0
        assert features["network_seconds"] == result.network_seconds
        assert (
            sum(entry["busiest_link_seconds"] for entry in result.round_summary)
            == result.network_seconds
        )

    @settings(max_examples=20, deadline=None)
    @given(
        tasks=st.integers(min_value=1, max_value=40),
        algorithm=st.sampled_from(ALGORITHMS),
        mode=st.sampled_from(("depth", "over")),
        max_live=st.sampled_from((1, 3, 8, 256)),
    )
    def test_streamed_scene_matches_dense_drivers(self, tasks, algorithm, mode, max_live):
        """Randomized: any cohort budget reproduces the dense result exactly."""
        factory = scene_factory("uniform", tasks, 16, 16, mode=mode, seed=99)
        streamed = Compositor(algorithm).composite_streaming(
            factory, tasks, 16, 16, mode=mode, max_live_ranks=max_live
        )
        dense = Compositor(algorithm).composite_streaming(
            factory, tasks, 16, 16, mode=mode, max_live_ranks=256
        )
        assert streamed.framebuffer.rgba.tobytes() == dense.framebuffer.rgba.tobytes()
        assert streamed.merge_operations == dense.merge_operations
        assert streamed.network_seconds == pytest.approx(dense.network_seconds)
        assert streamed.peak_live_images <= max_live + 1


class TestScheduleFamily:
    """Binary-swap and direct-send are radix schedules plus two accounting attributes."""

    def test_schedules_are_plain_data(self):
        direct = schedule_for("direct-send", 5)
        assert direct.radices == (5,) and direct.participants == (0, 1, 2, 3, 4)
        assert direct.skip_empty_pieces and not direct.trailing_round
        swap = schedule_for("binary-swap", 6)
        assert swap.radices == (2, 2)
        assert swap.participants == (0, 1, 2, 4) and swap.fold_pairs == ((2, 3), (4, 5))
        radix = schedule_for("radix-k", 12)
        assert radix.radices == (4, 3) and not radix.fold_pairs
        assert radix == schedule_for("radix-k", 12, [4, 3])
        assert not radix.skip_empty_pieces and radix.trailing_round
        with pytest.raises(ValueError, match="unknown compositing algorithm"):
            schedule_for("ring", 4)

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1, max_size=8),
        parts=st.integers(min_value=1, max_value=600),
    )
    def test_partition_cuts_are_the_reference_cuts(self, lengths, parts):
        """One vectorized call per round cuts exactly where ``np.linspace`` does."""
        expected = [np.linspace(0, length, parts + 1).astype(np.int64) for length in lengths]
        assert np.array_equal(_partition_edges(lengths, parts), expected)
        assert np.array_equal(_partition_edges(lengths[0], parts), expected[0])

    @settings(max_examples=25, deadline=None)
    @given(
        tasks=st.integers(min_value=1, max_value=70),
        log2_tasks=st.integers(min_value=1, max_value=6),
        size=st.sampled_from((2, 3, 9)),
        mode=st.sampled_from(("depth", "over")),
        max_live=st.sampled_from((1, 5, 64)),
    )
    def test_radix_schedules_reproduce_the_other_two(self, tasks, log2_tasks, size, mode, max_live):
        def run(algorithm, count, radices=None):
            factory = scene_factory("uniform", count, size, size, mode=mode, seed=7)
            return Compositor(algorithm, radices=radices).composite_streaming(
                factory, count, size, size, mode=mode, max_live_ranks=max_live
            )

        # [2] * k over a power of two is binary-swap, down to the round log.
        power = 1 << log2_tasks
        swap, as_radix = run("binary-swap", power), run("radix-k", power, [2] * log2_tasks)
        _assert_same_composite(as_radix, swap)
        assert as_radix.round_summary == swap.round_summary

        # [P] is direct-send (primes and P > pixels included) except for the
        # two schedule attributes: an extra empty round before the gather, and
        # 64-byte headers posted for owners whose pixel interval is empty.
        direct, as_radix = run("direct-send", tasks), run("radix-k", tasks, [tasks])
        assert as_radix.framebuffer.rgba.tobytes() == direct.framebuffer.rgba.tobytes()
        assert as_radix.framebuffer.depth.tobytes() == direct.framebuffer.depth.tobytes()
        assert as_radix.merge_operations == direct.merge_operations
        assert as_radix.network_seconds == direct.network_seconds
        assert len(as_radix.round_summary) == len(direct.round_summary) + 1
        empty_owners = max(0, tasks - size * size)
        assert as_radix.messages == direct.messages + empty_owners * (tasks - 1)
        assert as_radix.bytes_exchanged == direct.bytes_exchanged + 64.0 * empty_owners * (tasks - 1)


class TestRoundBooks:
    """A round is posted as per-link totals, never as messages; a per-message oracle audits them."""

    @pytest.mark.parametrize("mode", ("depth", "over"))
    @pytest.mark.parametrize("tasks", (12, 52, 300))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_zero_is_the_sum_of_its_messages(self, algorithm, tasks, mode):
        size = 12  # 144 pixels: at 300 ranks direct-send has owners with nothing to receive
        factory = scene_factory("amr", tasks, size, size, mode=mode, seed=11)
        images = [factory(rank) for rank in range(tasks)]
        schedule = schedule_for(algorithm, tasks)
        comm = SimulatedCommunicator(tasks)
        run_schedule(schedule, images.__getitem__, size, size, comm, mode, max_live_ranks=16)

        expected: dict[int, list] = {}  # rank -> [sent bytes, sent msgs, received bytes, received msgs]

        def post(source, dest, start, stop):
            # The piece's wire size counted from its own runs, one message at a time.
            pixels = images[source].pixels
            piece = pixels[(pixels >= start) & (pixels < stop)]
            runs = 1 + np.count_nonzero(np.diff(piece) != 1) if len(piece) else 0
            nbytes = 64.0 + 16.0 * runs + (40.0 if mode == "depth" else 32.0) * len(piece)
            for rank, column in ((source, 0), (dest, 2)):
                row = expected.setdefault(rank, [0.0, 0, 0.0, 0])
                row[column] += nbytes
                row[column + 1] += 1

        if schedule.fold_pairs:  # binary-swap off a power of two: round 0 is the prologue
            for keeper, sender in schedule.fold_pairs:
                post(sender, keeper, 0, size * size)
        else:  # round 0 is a radices[0]-way exchange inside groups of consecutive ranks
            radix = schedule.radices[0]
            cuts = np.linspace(0, size * size, radix + 1).astype(np.int64).tolist()
            for rank in range(tasks):
                group = rank - rank % radix
                for digit, (start, stop) in enumerate(zip(cuts, cuts[1:])):
                    if group + digit != rank and not (schedule.skip_empty_pieces and start == stop):
                        post(rank, group + digit, start, stop)
        log = comm.round_link_totals()
        assert log[0] == {rank: tuple(row) for rank, row in expected.items()}

        seconds = comm.network.transfer_seconds
        by_hand = sum(
            max(
                (max(seconds(sent, sent_msgs), seconds(received, received_msgs))
                 for sent, sent_msgs, received, received_msgs in links.values()),
                default=0.0,
            )
            for links in log
        )
        assert comm.estimate_time() == by_hand


class TestCohortInvariance:
    """Above the oracle boundary: invariance across cohort budgets."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        ("tasks", "scenario"), ((521, "uniform"), (1024, "amr"), (769, "camera-orbit"))
    )
    def test_budget_invariance_and_ledger_contract(self, algorithm, tasks, scenario):
        small = _stream(algorithm, scenario, tasks, 24, max_live=32)
        large = _stream(algorithm, scenario, tasks, 24, max_live=300)
        assert small.framebuffer.rgba.tobytes() == large.framebuffer.rgba.tobytes()
        assert small.framebuffer.depth.tobytes() == large.framebuffer.depth.tobytes()
        assert small.merge_operations == large.merge_operations
        assert small.network_seconds == pytest.approx(large.network_seconds)
        assert small.peak_live_images <= 32 + 1
        assert large.peak_live_images <= 300 + 1
        assert small.cohorts > large.cohorts

    @settings(max_examples=5, deadline=None)
    @given(
        tasks=st.integers(min_value=257, max_value=4096),
        algorithm=st.sampled_from(ALGORITHMS),
    )
    def test_randomized_rank_counts_are_budget_invariant(self, tasks, algorithm):
        """Randomized up to 4,096 ranks, including primes (radix prefix m=0)."""
        small = _stream(algorithm, "uniform", tasks, 12, max_live=48, seed=5)
        large = _stream(algorithm, "uniform", tasks, 12, max_live=256, seed=5)
        assert small.framebuffer.rgba.tobytes() == large.framebuffer.rgba.tobytes()
        assert small.merge_operations == large.merge_operations
        assert small.network_seconds == pytest.approx(large.network_seconds)

    def test_round_summary_shape(self):
        result = _stream("binary-swap", "uniform", 300, 16, max_live=64)
        assert result.round_summary, "streamed composites must carry a round log"
        for entry in result.round_summary:
            assert set(entry) == {"bytes", "messages", "active_links", "busiest_link_seconds"}
            assert entry["busiest_link_seconds"] >= 0.0
        total = sum(entry["busiest_link_seconds"] for entry in result.round_summary)
        assert result.network_seconds == pytest.approx(total)

    def test_contention_features_flatten_the_round_log(self):
        result = _stream("radix-k", "uniform", 300, 16, max_live=64)
        features = contention_features_from_result(result)
        assert features["rounds"] == float(len(result.round_summary))
        assert features["network_seconds"] == pytest.approx(result.network_seconds)
        assert 0.0 < features["contention_share"] <= 1.0
        assert features["busiest_round_seconds"] == pytest.approx(
            max(entry["busiest_link_seconds"] for entry in result.round_summary)
        )


class TestRadixValidation:
    """Invalid radix schedules fail fast with a structured error."""

    def test_validate_radices_accepts_exact_product(self):
        validate_radices(12, (3, 4))

    def test_validate_radices_rejects_mismatched_product(self):
        with pytest.raises(RadixFactorError) as excinfo:
            validate_radices(12, (3, 5))
        error = excinfo.value
        assert error.size == 12
        assert error.radices == (3, 5)
        assert error.product == 15
        payload = error.as_dict()
        assert payload["error"] == "radix-factorization"
        assert json.dumps(payload)  # structured and serializable

    def test_compositor_rejects_radices_for_other_algorithms(self):
        with pytest.raises(ValueError):
            Compositor("binary-swap", radices=[2, 2])

    def test_compositor_validates_radices_at_composite_time(self, rng):
        framebuffers = _random_framebuffers(rng, 6)
        with pytest.raises(RadixFactorError):
            Compositor("radix-k", radices=[2, 2]).composite(framebuffers, mode="depth")

    def test_cli_exits_with_radix_schedule_code(self, capsys):
        code = study_cli.main(
            [
                "plan",
                "--radices",
                "3,3",
                "--compositing-tasks",
                "8",
                "--compositing-algorithms",
                "radix-k",
            ]
        )
        assert code == study_cli.EXIT_RADIX_SCHEDULE == 8
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "radix-factorization"
        assert payload["size"] == 8

    def test_cli_accepts_valid_schedule(self, capsys):
        code = study_cli.main(
            [
                "plan",
                "--radices",
                "2,4",
                "--compositing-tasks",
                "8",
                "--compositing-algorithms",
                "radix-k",
            ]
        )
        assert code == 0
        capsys.readouterr()


class TestScenarios:
    """The scale scene families: deterministic, sorted, correctly shaped."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_factories_are_deterministic_runimages(self, name):
        first = scene_factory(name, 64, 16, 16, mode="depth", seed=3)
        second = scene_factory(name, 64, 16, 16, mode="depth", seed=3)
        image_a, image_b = first(7), second(7)
        assert isinstance(image_a, RunImage)
        assert image_a.num_pixels == 256
        assert np.array_equal(image_a.pixels, image_b.pixels)
        assert np.array_equal(image_a.rgba, image_b.rgba)
        pixels = image_a.pixels
        assert np.all(np.diff(pixels) > 0), "active pixels must be sorted and unique"

    def test_amr_scene_coverage_follows_refinement_levels(self):
        proxy = AmrProxy(8, seed=11)
        levels = proxy.rank_levels(256)
        coverage = proxy.rank_coverage(256, base_coverage=0.02)
        assert levels.shape == (256,)
        assert levels.min() >= 0 and levels.max() <= proxy.max_level
        assert np.all(coverage <= 0.9)
        assert coverage[levels.argmax()] >= coverage[levels.argmin()]

    def test_amr_proxy_registered(self):
        proxy = create_proxy("amr", 8)
        assert proxy.primary_field == "density"

    def test_camera_path_orbit_preserves_distance(self):
        template_factory = scene_factory("camera-orbit", 8, 8, 8)
        assert template_factory(0) is not None
        from repro.rendering.rays import Camera

        camera = Camera(
            position=np.array([0.5, 0.5, 2.2]),
            look_at=np.array([0.5, 0.5, 0.5]),
            up=np.array([0.0, 1.0, 0.0]),
        )
        path = CameraPath(camera, num_frames=12, elevation=0.0)
        radius = np.linalg.norm(camera.position - camera.look_at)
        for frame in (0, 3, 7, 11):
            orbited = path.camera_at(frame)
            assert np.linalg.norm(orbited.position - orbited.look_at) == pytest.approx(
                radius, rel=1e-6
            )
            assert np.allclose(orbited.look_at, camera.look_at)

    def test_camera_orbit_scene_varies_with_frame(self):
        still = scene_factory("camera-orbit", 32, 16, 16, frame=0)
        moved = scene_factory("camera-orbit", 32, 16, 16, frame=15)
        different = any(
            not np.array_equal(still(rank).pixels, moved(rank).pixels) for rank in range(32)
        )
        assert different, "orbiting the camera must change at least one rank's footprint"


class TestArchitectureProfiles:
    """The extrapolated modern-GPU rows of the Table 15 architecture set."""

    @pytest.mark.parametrize("name", ("gpu-p100", "gpu-v100", "gpu-a100"))
    def test_profiles_are_registered_gpus(self, name):
        spec = get_architecture(name)
        assert spec.kind == "gpu"
        assert spec.sample_rate > get_architecture("gpu1-k40m").sample_rate

    def test_profiles_scale_monotonically(self):
        p100, v100, a100 = (
            get_architecture(name) for name in ("gpu-p100", "gpu-v100", "gpu-a100")
        )
        for rate in ("build_rate", "traversal_rate", "sample_rate", "cell_rate"):
            assert getattr(p100, rate) < getattr(v100, rate) < getattr(a100, rate)
