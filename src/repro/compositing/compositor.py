"""Compositor front-end: the reproduction's IceT.

:class:`Compositor` takes the per-rank framebuffers produced by the local
renders, runs one of the exchange algorithms over a simulated communicator,
and reports both the measured local blending time and the modeled network
time.  The sum of the two is the ``T_COMP`` quantity of the multi-node
performance model (Section 5.6).

Two interchangeable engines execute the exchange:

* ``"runlength"`` (default) -- the fast data path: per-rank images are
  compacted to :class:`~repro.compositing.runimage.RunImage` run-length
  sub-images and the algorithm's :class:`~repro.compositing.algorithms.Schedule`
  runs through the one cohort driver
  (:func:`~repro.compositing.algorithms.run_schedule`): a round is array
  operations over all of its groups at once -- one cut, one per-link byte
  table posted with
  :meth:`~repro.runtime.communicator.SimulatedCommunicator.record_link_totals`,
  and the batched kernels of :mod:`repro.compositing.merge`.
  :meth:`Compositor.composite` and
  :meth:`Compositor.composite_streaming` are the same engine: the first
  serves the images from a list with the whole population as its live
  budget, the second takes a ``factory`` and a ``max_live_ranks`` bound.
* ``"reference"`` -- the original dense per-run Python drivers
  (:mod:`repro.compositing.reference`), kept as the differential-testing
  oracle; the fast engine must match it within 1e-10 on every algorithm,
  mode, and rank count.

Both engines assume the sort-last invariant that every rank renders over the
same background color, which is what the final image shows wherever no rank
contributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import Callable

from repro.compositing.algorithms import get_algorithm, run_schedule, schedule_for
from repro.compositing.image import from_framebuffer
from repro.compositing.reference import composite_reference
from repro.compositing.runimage import RunImage, active_mask, run_image_from_framebuffer
from repro.dpp.primitives import scatter
from repro.rendering.framebuffer import Framebuffer
from repro.runtime.communicator import NetworkModel, SimulatedCommunicator
from repro.util.timing import Timer

__all__ = ["CompositeResult", "Compositor"]

_ENGINES = ("runlength", "reference")


@dataclass
class CompositeResult:
    """Outcome of one parallel composite.

    Attributes
    ----------
    framebuffer:
        The final image (assembled at rank 0).
    local_seconds:
        Measured wall-clock time of the exchange driver -- cutting, wire
        accounting and blending -- without the ``factory(position)`` calls
        that produce the rank images.
    network_seconds:
        Network-model estimate of the exchange time (critical path over
        rounds).
    bytes_exchanged, messages:
        Total simulated traffic.  The run-length engine exchanges compressed
        (active-pixel) payloads, so its byte counts are lower than the
        reference engine's dense slabs for the same images.
    merge_operations:
        Equivalent pairwise pixel merges performed.  The run-length engine
        counts per-pixel fragment folds (fragments minus survivors); the
        reference engine counts dense run merges -- both measure blending
        work, at their own granularity.
    average_active_pixels:
        Mean number of active pixels per input sub-image -- the ``avg(AP)``
        input of the compositing performance model (Eq. 5.5).  Activity is
        mode-aware (finite depth for ``"depth"``, positive alpha for
        ``"over"``), matching the run-length representation.
    """

    framebuffer: Framebuffer
    local_seconds: float
    network_seconds: float
    bytes_exchanged: float
    messages: int
    merge_operations: int
    average_active_pixels: float
    num_tasks: int
    num_pixels: int
    engine: str = "runlength"
    #: Cohort bookkeeping of the run-length engine (zero on the reference
    #: engine): the live-image budget, the observed peak (contract: at most
    #: budget + 1) and generate->merge->retire batches.
    max_live_ranks: int = 0
    peak_live_images: int = 0
    cohorts: int = 0
    #: The compact per-round traffic summary of either engine's communicator
    #: (the round-log artifact the CI scale gate uploads).
    round_summary: list[dict] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Modeled total compositing time (local blending + network)."""
        return self.local_seconds + self.network_seconds


@dataclass
class Compositor:
    """Sort-last compositor over a set of per-rank framebuffers.

    Parameters
    ----------
    algorithm:
        ``"radix-k"`` (default, as used in the study), ``"binary-swap"``, or
        ``"direct-send"``.
    network:
        Network cost model for the simulated interconnect.
    radices:
        Explicit radix schedule for ``"radix-k"``; its product must equal the
        task count at composite time (:class:`~repro.compositing.algorithms.
        RadixFactorError` otherwise).  ``None`` factors the task count
        automatically.
    """

    algorithm: str = "radix-k"
    network: NetworkModel = field(default_factory=NetworkModel)
    radices: list[int] | None = None

    def __post_init__(self) -> None:
        get_algorithm(self.algorithm)
        if self.radices is not None and self.algorithm != "radix-k":
            raise ValueError("an explicit radix schedule requires algorithm='radix-k'")

    def composite(
        self,
        framebuffers: list[Framebuffer],
        mode: str = "depth",
        visibility_order: list[float] | None = None,
        background: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 0.0),
        engine: str = "runlength",
    ) -> CompositeResult:
        """Composite one framebuffer per rank into the final image.

        Parameters
        ----------
        framebuffers:
            One full-resolution framebuffer per simulated rank.
        mode:
            ``"depth"`` for surface images, ``"over"`` for volume images.
        visibility_order:
            Required for ``"over"``: smaller values composite in front
            (typically each block's distance from the camera).
        engine:
            ``"runlength"`` (fast path, default) or ``"reference"`` (dense
            oracle).  At scale use :meth:`composite_streaming`, so the rank
            images need never coexist.
        """
        if not framebuffers:
            raise ValueError("composite requires at least one framebuffer")
        if engine not in _ENGINES:
            raise ValueError(f"unknown compositing engine {engine!r}; choose from {_ENGINES}")
        if mode == "over":
            if visibility_order is None:
                raise ValueError("'over' compositing requires a visibility order")
            if len(visibility_order) != len(framebuffers):
                raise ValueError("one visibility order entry per framebuffer is required")
            # Sort sub-images front to back so that ascending rank index equals
            # ascending visibility order -- the precondition the exchange
            # algorithms need for exact OVER compositing (IceT does the same
            # by pre-ordering its image layers).
            ranking = np.argsort(np.asarray(visibility_order), kind="stable")
            ordered = [framebuffers[index] for index in ranking]
        elif mode == "depth":
            ordered = list(framebuffers)
        else:
            raise ValueError(f"unknown compositing mode {mode!r}")

        if engine == "runlength":
            images = [
                run_image_from_framebuffer(framebuffer, mode, key=position)
                for position, framebuffer in enumerate(ordered)
            ]
            return self.composite_streaming(
                images.__getitem__,
                len(ordered),
                ordered[0].width,
                ordered[0].height,
                mode,
                max_live_ranks=len(ordered),
                background=background,
                rank_background=tuple(float(v) for v in ordered[0].background),
            )
        if mode == "over":
            sub_images = [
                from_framebuffer(framebuffer, position)
                for position, framebuffer in enumerate(ordered)
            ]
        else:
            sub_images = [from_framebuffer(framebuffer) for framebuffer in ordered]
        average_active = float(
            np.mean([int(np.count_nonzero(active_mask(fb.rgba, fb.depth, mode))) for fb in ordered])
        )
        comm = SimulatedCommunicator(len(ordered), self.network)
        with Timer() as timer:
            dense, merges = composite_reference(
                self.algorithm, [image.copy() for image in sub_images], comm, mode,
                radices=self.radices,
            )
        return CompositeResult(
            framebuffer=dense.to_framebuffer(background),
            local_seconds=timer.elapsed,
            network_seconds=comm.estimate_time(),
            bytes_exchanged=comm.total_bytes(),
            messages=comm.total_messages(),
            merge_operations=merges,
            average_active_pixels=average_active,
            num_tasks=len(ordered),
            num_pixels=ordered[0].num_pixels,
            engine="reference",
            round_summary=comm.round_summaries(),
        )

    def composite_streaming(
        self,
        factory: Callable[[int], RunImage],
        num_tasks: int,
        width: int,
        height: int,
        mode: str = "depth",
        *,
        max_live_ranks: int = 256,
        background: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 0.0),
        rank_background: tuple[float, float, float, float] | None = None,
    ) -> CompositeResult:
        """Composite thousands of simulated ranks without materializing them.

        ``factory(position)`` produces the :class:`RunImage` for visibility
        position ``position`` (ascending = front to back; for depth
        compositing any order works) and is called exactly once per rank, in
        bounded cohorts -- at most ``max_live_ranks`` rank images are live at
        any point, so 16k simulated ranks fit where a list of framebuffers
        caps out near 256.  The result is bit-identical to running
        :meth:`composite` over the same images (cohort execution is a pure
        reordering of the same merge operations) and invariant to
        ``max_live_ranks``.

        ``rank_background`` is the background the simulated renders used
        (what uncovered pixels show); defaults to ``background``.
        """
        if mode not in ("depth", "over"):
            raise ValueError(f"unknown compositing mode {mode!r}")
        if num_tasks < 1:
            raise ValueError("composite requires at least one task")
        if max_live_ranks < 1:
            raise ValueError("max_live_ranks must be positive")
        schedule = schedule_for(self.algorithm, num_tasks, self.radices)
        comm = SimulatedCommunicator(num_tasks, self.network)
        with Timer() as timer:
            final, merges, stats = run_schedule(
                schedule, factory, width, height, comm, mode, max_live_ranks
            )
        fill = tuple(float(v) for v in (rank_background if rank_background is not None else background))
        framebuffer = self._assemble(final, mode, num_tasks, np.asarray(fill), background)
        return CompositeResult(
            framebuffer=framebuffer,
            local_seconds=timer.elapsed - stats.factory_seconds,
            network_seconds=comm.estimate_time(),
            bytes_exchanged=comm.total_bytes(),
            messages=comm.total_messages(),
            merge_operations=merges,
            average_active_pixels=stats.total_active_pixels / num_tasks,
            num_tasks=num_tasks,
            num_pixels=width * height,
            engine="runlength",
            max_live_ranks=stats.max_live_ranks,
            peak_live_images=stats.peak_live_images,
            cohorts=stats.cohorts,
            round_summary=comm.round_summaries(),
        )

    @staticmethod
    def _assemble(
        final: RunImage,
        mode: str,
        num_tasks: int,
        rank_background: np.ndarray,
        background: tuple[float, float, float, float],
    ) -> Framebuffer:
        """Scatter the composited runs into a dense framebuffer.

        Fill values reproduce the dense reference exactly: ``"depth"`` keeps
        the (shared) rank background with infinite depth wherever no rank
        contributed; ``"over"`` blends uncovered pixels of two or more ranks
        down to transparent black, and its depth plane is the front-most
        visibility position (0) everywhere.
        """
        framebuffer = Framebuffer(final.width, final.height, tuple(float(v) for v in background))
        rgba = np.empty((final.num_pixels, 4), dtype=np.float64)
        if mode == "depth":
            rgba[:] = np.asarray(rank_background, dtype=np.float64)
            depth = np.full(final.num_pixels, np.inf)
            if final.active_pixels:
                scatter(final.rgba, final.pixels, rgba)
                scatter(final.depth, final.pixels, depth)
        else:
            rgba[:] = np.asarray(rank_background, dtype=np.float64) if num_tasks == 1 else 0.0
            depth = np.zeros(final.num_pixels)
            if final.active_pixels:
                scatter(final.rgba, final.pixels, rgba)
        framebuffer.rgba = rgba.reshape(final.height, final.width, 4)
        framebuffer.depth = depth.reshape(final.height, final.width)
        return framebuffer

    @staticmethod
    def serial_reference(
        framebuffers: list[Framebuffer],
        mode: str = "depth",
        visibility_order: list[float] | None = None,
    ) -> Framebuffer:
        """Straightforward serial composite used as the correctness oracle."""
        if mode == "over":
            assert visibility_order is not None
            order = np.argsort(np.asarray(visibility_order), kind="stable")
            result = framebuffers[order[0]].copy()
            for index in order[1:]:
                result = _over(result, framebuffers[index])
            return result
        result = framebuffers[0].copy()
        for framebuffer in framebuffers[1:]:
            result = result.depth_composite(framebuffer)
        return result


def _over(front: Framebuffer, back: Framebuffer) -> Framebuffer:
    """Front-to-back OVER of two full framebuffers with straight alpha."""
    result = Framebuffer(front.width, front.height, tuple(front.background))
    alpha_front = front.rgba[..., 3:4]
    alpha_back = back.rgba[..., 3:4]
    rgb = front.rgba[..., :3] * alpha_front + back.rgba[..., :3] * alpha_back * (1.0 - alpha_front)
    alpha = alpha_front + alpha_back * (1.0 - alpha_front)
    safe = np.where(alpha > 0.0, alpha, 1.0)
    result.rgba[..., :3] = rgb / safe
    result.rgba[..., 3:4] = alpha
    result.depth = np.minimum(front.depth, back.depth)
    return result
