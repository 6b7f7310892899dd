"""Tests for the simulated MPI runtime, domain decomposition, and sort-last compositing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compositing import Compositor, SubImage, composite_pixels
from repro.compositing.algorithms import factor_radices
from repro.compositing.image import from_framebuffer
from repro.rendering.framebuffer import Framebuffer
from repro.runtime import BlockDecomposition, NetworkModel, SimulatedCommunicator, factor_into_blocks


def _random_framebuffers(rng, count, width=17, height=11, alpha=1.0):
    framebuffers = []
    for rank in range(count):
        fb = Framebuffer(width, height)
        mask = rng.random((height, width)) < 0.5
        n = int(mask.sum())
        fb.rgba[mask] = np.column_stack([rng.random((n, 3)), np.full(n, alpha)])
        fb.depth[mask] = rng.random(n) * 5.0 + rank * 0.1
        framebuffers.append(fb)
    return framebuffers


class TestCommunicator:
    def test_send_recv_roundtrip(self):
        world = SimulatedCommunicator(3)
        world.rank(0).send(2, np.arange(4), tag=5)
        received = world.rank(2).recv(0, tag=5)
        assert np.array_equal(received, np.arange(4))

    def test_missing_message_raises(self):
        world = SimulatedCommunicator(2)
        with pytest.raises(RuntimeError):
            world.rank(1).recv(0)

    def test_byte_accounting(self):
        world = SimulatedCommunicator(2)
        payload = np.zeros(100, dtype=np.float64)
        world.rank(0).send(1, payload)
        assert world.total_bytes() == pytest.approx(payload.nbytes)
        assert world.total_messages() == 1
        assert world.estimate_time() > 0.0

    def test_round_accounting_is_critical_path(self):
        network = NetworkModel(latency_seconds=1.0, bandwidth_bytes_per_second=1e12)
        world = SimulatedCommunicator(4, network)
        # Two sends to *different* destinations: fully concurrent, ~1 latency.
        world.rank(0).send(1, np.zeros(10))
        world.rank(2).send(3, np.zeros(10))
        single_round = world.estimate_time()
        world.next_round()
        world.rank(0).send(1, np.zeros(10))
        two_rounds = world.estimate_time()
        assert single_round == pytest.approx(1.0, rel=1e-6)
        assert two_rounds == pytest.approx(2.0, rel=1e-6)

    def test_concurrent_messages_into_one_link_serialize(self):
        network = NetworkModel(latency_seconds=1.0, bandwidth_bytes_per_second=1e12)
        world = SimulatedCommunicator(3, network)
        # Both sends land on rank 1's ingress link: they serialize, ~2 latencies.
        world.rank(0).send(1, np.zeros(10))
        world.rank(2).send(1, np.zeros(10))
        assert world.estimate_time() == pytest.approx(2.0, rel=1e-6)

    def test_gather(self):
        world = SimulatedCommunicator(3)
        results = []
        for rank in (1, 2, 0):
            results.append(world.rank(rank).gather(rank * 10, root=0))
        gathered = [r for r in results if r is not None][0]
        assert gathered == [0, 10, 20]

    def test_invalid_ranks(self):
        world = SimulatedCommunicator(2)
        with pytest.raises(IndexError):
            world.rank(5)
        with pytest.raises(IndexError):
            world.rank(0).send(7, 1)
        with pytest.raises(ValueError):
            SimulatedCommunicator(0)


class TestCommunicatorAccounting:
    """estimate_time vs a hand-computed round log, and accounting isolation."""

    def test_estimate_time_matches_hand_computed_round_log(self):
        latency, bandwidth = 2e-3, 1e6
        network = NetworkModel(latency_seconds=latency, bandwidth_bytes_per_second=bandwidth)
        world = SimulatedCommunicator(4, network)
        # Round 0: rank 0 sends 8000 B in two messages; rank 1 sends 4000 B in one.
        world.rank(0).send(1, np.zeros(500))   # 4000 B
        world.rank(0).send(2, np.zeros(500))   # 4000 B
        world.rank(1).send(3, np.zeros(500))   # 4000 B
        world.next_round()
        # Round 1: rank 2 sends 16000 B in one message.
        world.rank(2).send(0, np.zeros(2000))  # 16000 B
        world.next_round()
        # Round 2: empty (contributes nothing).
        round0 = max(2 * latency + 8000 / bandwidth, latency + 4000 / bandwidth)
        round1 = latency + 16000 / bandwidth
        assert world.estimate_time() == pytest.approx(round0 + round1, rel=1e-12)
        # The public round log exposes exactly the per-link terms the
        # estimate is built from: (sent bytes, sent msgs, received bytes, received msgs).
        totals = world.round_link_totals()
        assert len(totals) == 3
        assert totals[0][0] == (8000.0, 2, 0.0, 0)
        assert totals[0][1] == (4000.0, 1, 4000.0, 1)
        assert totals[0][2] == (0.0, 0, 4000.0, 1)
        assert totals[1][2] == (16000.0, 1, 0.0, 0)
        assert totals[1][0] == (0.0, 0, 16000.0, 1)
        assert totals[2] == {}
        recomputed = sum(
            max(
                (
                    network.transfer_seconds(nbytes, messages)
                    for sent_bytes, sent_msgs, recv_bytes, recv_msgs in log.values()
                    for nbytes, messages in ((sent_bytes, sent_msgs), (recv_bytes, recv_msgs))
                ),
                default=0.0,
            )
            for log in totals
        )
        assert recomputed == pytest.approx(world.estimate_time(), rel=1e-12)

    def test_exchange_records_wire_bytes_and_delivers_in_order(self):
        network = NetworkModel(latency_seconds=1.0, bandwidth_bytes_per_second=1e9)
        world = SimulatedCommunicator(3, network)
        payload = np.zeros(10)
        delivered = world.exchange(
            [
                (0, 2, payload, 123.0),   # explicit wire size overrides the estimate
                (1, 2, payload),          # falls back to the payload's 80 B
                (2, 0, payload, 7.0),
            ]
        )
        assert [source for source, _ in delivered[2]] == [0, 1]
        assert delivered[0][0][0] == 2
        totals = world.round_link_totals()[0]
        assert totals[0] == (123.0, 1, 7.0, 1)
        assert totals[1] == (80.0, 1, 0.0, 0)
        assert totals[2] == (7.0, 1, 203.0, 2)
        with pytest.raises(IndexError):
            world.exchange([(0, 9, payload)])
        with pytest.raises(IndexError):
            world.exchange([(-1, 0, payload)])

    def test_a_fresh_communicator_accounts_nothing(self):
        """Each composite gets a new communicator, which starts from an empty ledger."""
        network = NetworkModel(latency_seconds=1e-4, bandwidth_bytes_per_second=1e9)
        world = SimulatedCommunicator(2, network)
        assert world.estimate_time() == 0.0
        assert world.total_bytes() == 0.0
        assert world.total_messages() == 0
        assert world.round_link_totals() == [{}]
        assert world.round_summaries() == [
            {"bytes": 0.0, "messages": 0, "active_links": 0, "busiest_link_seconds": 0.0}
        ]
        world.rank(1).send(0, np.zeros(10))
        assert world.total_bytes() == 80.0
        assert world.round_link_totals() == [{0: (0.0, 0, 80.0, 1), 1: (80.0, 1, 0.0, 0)}]
        assert world.estimate_time() == pytest.approx(network.transfer_seconds(80.0, 1), rel=1e-12)

    def test_record_link_totals_rejects_a_wrong_shape(self):
        world = SimulatedCommunicator(3)
        with pytest.raises(ValueError, match="shape"):
            world.record_link_totals(0, np.zeros(2), np.zeros(3), np.zeros(3), np.zeros(3))

    @given(
        size=st.integers(1, 6),
        posts=st.lists(
            st.tuples(
                st.sampled_from(("send", "exchange", "totals")),
                st.integers(0, 3),
                st.lists(
                    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 100_000)),
                    max_size=6,
                ),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_ledger_matches_brute_force(self, size, posts):
        """Every read-out equals a recomputation from the list of messages posted."""
        network = NetworkModel(latency_seconds=3e-6, bandwidth_bytes_per_second=1.7e9)
        world = SimulatedCommunicator(size, network)
        messages = []  # (round, source, dest, bytes)
        rounds = 1
        for kind, round_index, batch in posts:
            batch = [(source % size, dest % size, nbytes) for source, dest, nbytes in batch]
            world.exchange([], round_index=round_index)  # opens the log out to round_index
            rounds = max(rounds, round_index + 1)
            if kind == "send":  # a send always lands in the last open round
                for source, dest, nbytes in batch:
                    world.rank(source).send(dest, np.zeros(nbytes, dtype=np.uint8))
                round_index = rounds - 1
            elif kind == "exchange":
                world.exchange([(s, d, None, float(n)) for s, d, n in batch], round_index=round_index)
            else:
                totals = np.zeros((4, size))
                for source, dest, nbytes in batch:
                    totals[:, source] += nbytes, 1, 0, 0
                    totals[:, dest] += 0, 0, nbytes, 1
                world.record_link_totals(round_index, *totals)
            messages += [(round_index, *message) for message in batch]

        links = [{} for _ in range(rounds)]  # round -> rank -> [sent B, sent msgs, recv B, recv msgs]
        for round_index, source, dest, nbytes in messages:
            for rank, offset in ((source, 0), (dest, 2)):
                link = links[round_index].setdefault(rank, [0, 0, 0, 0])
                link[offset] += nbytes
                link[offset + 1] += 1
        busiest = [
            max(
                [0.0]
                + [network.transfer_seconds(link[0], link[1]) for link in log.values()]
                + [network.transfer_seconds(link[2], link[3]) for link in log.values()]
            )
            for log in links
        ]
        assert world.total_bytes() == float(sum(message[3] for message in messages))
        assert world.total_messages() == len(messages)
        assert world.estimate_time() == sum(busiest)
        assert world.round_summaries() == [
            {
                "bytes": float(sum(link[0] for link in log.values())),
                "messages": sum(link[1] for link in log.values()),
                "active_links": len(log),
                "busiest_link_seconds": seconds,
            }
            for log, seconds in zip(links, busiest)
        ]
        assert world.round_link_totals() == [
            {rank: tuple(log[rank]) for rank in sorted(log)} for log in links
        ]

    def test_compositor_runs_are_isolated(self, rng):
        """Back-to-back composites report identical accounting (fresh comm each)."""
        framebuffers = _random_framebuffers(rng, 4)
        compositor = Compositor("binary-swap")
        first = compositor.composite([fb.copy() for fb in framebuffers], mode="depth")
        second = compositor.composite([fb.copy() for fb in framebuffers], mode="depth")
        assert first.bytes_exchanged == second.bytes_exchanged
        assert first.messages == second.messages
        assert first.network_seconds == pytest.approx(second.network_seconds, rel=1e-12)


class TestDecomposition:
    @given(st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_factor_into_blocks_product(self, n):
        grid = factor_into_blocks(n)
        assert np.prod(grid) == n
        assert all(g >= 1 for g in grid)

    def test_block_bounds_tile_domain(self):
        decomposition = BlockDecomposition(num_tasks=8, cells_per_task=4)
        total_volume = sum(np.prod(decomposition.block_bounds(rank).extent) for rank in range(8))
        assert total_volume == pytest.approx(np.prod(decomposition.global_bounds.extent))
        assert decomposition.total_cells == 8 * 4**3

    def test_block_grids_cover_global_bounds(self):
        decomposition = BlockDecomposition(num_tasks=4, cells_per_task=3)
        for rank in range(4):
            grid = decomposition.block_grid_for_rank(rank)
            assert decomposition.global_bounds.contains_points(grid.points(), tol=1e-9).all()

    def test_field_continuous_across_blocks(self):
        decomposition = BlockDecomposition(num_tasks=2, cells_per_task=4)
        field = lambda pts: pts[:, 0] + 2 * pts[:, 1]
        grids = [decomposition.block_grid_with_field(rank, "f", field) for rank in range(2)]
        # Shared face points must carry identical values.
        points_a, points_b = grids[0].points(), grids[1].points()
        values_a, values_b = grids[0].point_fields["f"], grids[1].point_fields["f"]
        shared_a = values_a[np.isclose(points_a[:, 0], decomposition.block_bounds(0).high[0])]
        shared_b = values_b[np.isclose(points_b[:, 0], decomposition.block_bounds(1).low[0])]
        assert np.allclose(np.sort(shared_a), np.sort(shared_b))

    def test_neighbors_symmetric(self):
        decomposition = BlockDecomposition(num_tasks=8, cells_per_task=2)
        for rank in range(8):
            for neighbor in decomposition.neighbor_ranks(rank):
                assert rank in decomposition.neighbor_ranks(neighbor)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockDecomposition(num_tasks=0, cells_per_task=4)
        with pytest.raises(ValueError):
            BlockDecomposition(num_tasks=4, cells_per_task=4, block_grid=(1, 1, 3))
        with pytest.raises(IndexError):
            BlockDecomposition(num_tasks=2, cells_per_task=2).block_index(5)


class TestCompositePixels:
    def test_depth_mode_picks_nearer(self):
        rgba, depth = composite_pixels(
            np.array([[1.0, 0, 0, 1]]), np.array([2.0]), np.array([[0, 1.0, 0, 1]]), np.array([1.0]), "depth"
        )
        assert rgba[0, 1] == 1.0
        assert depth[0] == 1.0

    def test_over_mode_blends(self):
        rgba, depth = composite_pixels(
            np.array([[1.0, 0, 0, 0.5]]), np.array([0.0]), np.array([[0, 1.0, 0, 1.0]]), np.array([1.0]), "over"
        )
        assert rgba[0, 3] == pytest.approx(1.0)
        assert depth[0] == 0.0
        assert rgba[0, 0] > 0 and rgba[0, 1] > 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            composite_pixels(np.zeros((1, 4)), np.zeros(1), np.zeros((1, 4)), np.zeros(1), "nope")

    def test_subimage_roundtrip(self, rng):
        fb = _random_framebuffers(rng, 1)[0]
        sub = from_framebuffer(fb)
        assert sub.active_pixels() == fb.active_pixels()
        back = sub.to_framebuffer()
        assert np.allclose(back.rgba, fb.rgba)
        assert np.allclose(back.depth, fb.depth)

    def test_subimage_validation(self):
        with pytest.raises(ValueError):
            SubImage(np.zeros((3, 4)), np.zeros(3), 2, 2)


class TestCompositor:
    @pytest.mark.parametrize("algorithm", ["direct-send", "binary-swap", "radix-k"])
    @pytest.mark.parametrize("tasks", [1, 2, 3, 4, 5, 8, 12])
    def test_depth_matches_serial_reference(self, rng, algorithm, tasks):
        framebuffers = _random_framebuffers(rng, tasks)
        result = Compositor(algorithm).composite([fb.copy() for fb in framebuffers], mode="depth")
        reference = Compositor.serial_reference(framebuffers, mode="depth")
        assert np.allclose(result.framebuffer.rgba, reference.rgba)
        assert np.allclose(result.framebuffer.depth, reference.depth)

    @pytest.mark.parametrize("algorithm", ["direct-send", "binary-swap", "radix-k"])
    @pytest.mark.parametrize("tasks", [2, 3, 5, 7, 8, 16])
    def test_over_matches_serial_reference(self, rng, algorithm, tasks):
        framebuffers = _random_framebuffers(rng, tasks, alpha=0.6)
        visibility = list(rng.permutation(tasks).astype(float))
        result = Compositor(algorithm).composite(
            [fb.copy() for fb in framebuffers], mode="over", visibility_order=visibility
        )
        reference = Compositor.serial_reference(framebuffers, mode="over", visibility_order=visibility)
        assert np.allclose(result.framebuffer.rgba, reference.rgba, atol=1e-9)

    def test_algorithms_agree_with_each_other(self, rng):
        framebuffers = _random_framebuffers(rng, 6, alpha=0.5)
        visibility = list(np.arange(6, dtype=float))
        images = []
        for algorithm in ("direct-send", "binary-swap", "radix-k"):
            result = Compositor(algorithm).composite(
                [fb.copy() for fb in framebuffers], mode="over", visibility_order=visibility
            )
            images.append(result.framebuffer.rgba)
        assert np.allclose(images[0], images[1], atol=1e-9)
        assert np.allclose(images[0], images[2], atol=1e-9)

    def test_result_accounting(self, rng):
        framebuffers = _random_framebuffers(rng, 4)
        result = Compositor("radix-k").composite(framebuffers, mode="depth")
        assert result.bytes_exchanged > 0
        assert result.messages > 0
        assert result.merge_operations > 0
        assert result.network_seconds > 0
        assert result.total_seconds >= result.local_seconds
        assert result.num_tasks == 4
        assert result.average_active_pixels > 0

    def test_more_pixels_more_bytes(self, rng):
        small = Compositor("radix-k").composite(_random_framebuffers(rng, 4, width=8, height=8), mode="depth")
        large = Compositor("radix-k").composite(_random_framebuffers(rng, 4, width=32, height=32), mode="depth")
        assert large.bytes_exchanged > small.bytes_exchanged

    def test_validation(self, rng):
        framebuffers = _random_framebuffers(rng, 2)
        with pytest.raises(ValueError):
            Compositor("nope")
        with pytest.raises(ValueError):
            Compositor().composite([], mode="depth")
        with pytest.raises(ValueError):
            Compositor().composite(framebuffers, mode="over")
        with pytest.raises(ValueError):
            Compositor().composite(framebuffers, mode="over", visibility_order=[0.0])
        with pytest.raises(ValueError):
            Compositor().composite(framebuffers, mode="nope")

    def test_factor_radices(self):
        for n in (1, 2, 3, 4, 6, 8, 12, 16, 30):
            assert int(np.prod(factor_radices(n))) == n
        with pytest.raises(ValueError):
            factor_radices(0)

    def test_single_task_identity(self, rng):
        framebuffers = _random_framebuffers(rng, 1)
        result = Compositor("binary-swap").composite([framebuffers[0].copy()], mode="depth")
        assert np.allclose(result.framebuffer.rgba, framebuffers[0].rgba)
