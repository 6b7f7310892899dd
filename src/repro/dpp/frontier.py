"""The frontier kernel engine: one compacted-SoA substrate for every renderer.

The paper's central claim is that ray tracing, rasterization, and volume
rendering admit one cost-model family because they share a data-parallel
primitive substrate.  This module is that substrate's execution engine for
*image-order* work: a pool of independent lanes (rays, pixels) that march
through a per-lane computation, retire at different times, and are kept dense
by periodic stream compaction.

The machinery was originally welded into the BVH traversal loop
(``repro.rendering.raytracer.traversal``); it is factored out here so the
structured and unstructured volume ray casters run on the same engine:

* :class:`FrontierLanes` -- a contiguous structure-of-arrays of per-lane
  state.  Every field is one flat (or ``(n, k)``) array whose leading
  dimension is the lane count, so each vectorized step touches only resident
  lanes instead of fancy-indexing full-width arrays.
* :class:`FrontierKernel` -- the protocol a client implements: ``step``
  advances every resident lane once and returns the lanes that retired.
* :class:`FrontierEngine` -- owns the loop: it calls ``step`` until every
  lane has retired, and once enough lanes are dead it *flushes* (scatters the
  retired lanes' declared output fields back to full-width arrays) and
  *compacts* (drops dead lanes from every state array).  Both the flush and
  the compaction run through :mod:`repro.dpp.primitives` on the active device
  (:func:`repro.dpp.device.use_device` selects it; the ``vectorized`` and
  ``serial`` back-ends execute the same kernels) and are observed by
  :class:`repro.dpp.instrument.OpCounters` -- the reproduction's stand-in
  for PAPI/nvprof counters.

Retired lanes may ride along in the frontier until the next compaction;
kernels must treat them as inert (their retirement state is visible both in
``lanes.retired`` and in whatever lane state encodes it, e.g. an empty
traversal stack).
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.dpp.primitives import scatter, stream_compact

__all__ = [
    "FrontierLanes",
    "FrontierKernel",
    "FrontierEngine",
    "FRONTIER_COMPACT_FRACTION",
    "FRONTIER_COMPACT_MIN",
]

#: Retired fraction of the frontier that triggers a re-compaction.
FRONTIER_COMPACT_FRACTION = 0.25

#: Minimum number of retired lanes before a re-compaction is worthwhile
#: (below this the stream-compact overhead outweighs the dead-lane waste).
#: :meth:`FrontierEngine.run` reads both thresholds at call time, so a test
#: monkeypatches them (``FRONTIER_COMPACT_MIN = 1`` compacts after every
#: retirement).
FRONTIER_COMPACT_MIN = 256


class FrontierLanes:
    """Contiguous SoA of per-lane state resident in a frontier loop.

    Parameters
    ----------
    lane_ids:
        Integer id of each lane in the full-width output arrays (typically
        ray or pixel indices).  Compaction preserves these, so retiring
        lanes always scatter back to their original slot.
    state:
        Mapping of field name to array; every array's leading dimension must
        equal ``len(lane_ids)``.  Arrays may be multi-dimensional (per-lane
        traversal stacks, RGB accumulators).

    The engine adds (and owns) ``retired``, the boolean mask of lanes whose
    retirement has been recorded but not yet flushed.
    """

    __slots__ = ("lane_ids", "state", "retired")

    def __init__(self, lane_ids: np.ndarray, state: Mapping[str, np.ndarray]) -> None:
        self.lane_ids = np.asarray(lane_ids, dtype=np.int64)
        if self.lane_ids.ndim != 1:
            raise ValueError("lane_ids must be one-dimensional")
        self.state = dict(state)
        for name, array in self.state.items():
            if len(array) != len(self.lane_ids):
                raise ValueError(
                    f"state field {name!r} has leading dimension {len(array)}, "
                    f"expected {len(self.lane_ids)}"
                )
        self.retired = np.zeros(len(self.lane_ids), dtype=bool)

    def __len__(self) -> int:
        return len(self.lane_ids)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.state[name]

    def __setitem__(self, name: str, array: np.ndarray) -> None:
        self.state[name] = array

    def __contains__(self, name: str) -> bool:
        return name in self.state


@runtime_checkable
class FrontierKernel(Protocol):
    """The per-lane computation a :class:`FrontierEngine` drives.

    Attributes
    ----------
    output_fields:
        Names of the lane-state fields scattered into the same-named
        full-width output arrays when a lane retires (values are cast to the
        output array's dtype).

    Methods
    -------
    step(lanes):
        Advance every resident lane by one engine iteration, mutating lane
        state in place, and return a boolean mask (over the resident lanes)
        of lanes retired *as of* this step.  The mask may simply re-report
        lanes that already retired (retirement is sticky); lanes marked
        retired must no longer change their output fields.
    on_compact(lanes):
        Optional hook called after every compaction (and before the first
        step if defined), so kernels can rebuild lane-count-derived caches
        such as flat stack addressing.
    """

    output_fields: Sequence[str]

    def step(self, lanes: FrontierLanes) -> np.ndarray: ...


class FrontierEngine:
    """Drives a :class:`FrontierKernel` over a frontier until all lanes retire.

    A flush-and-compact runs once at least :data:`FRONTIER_COMPACT_MIN`
    lanes *and* at least :data:`FRONTIER_COMPACT_FRACTION` of the resident
    frontier have retired (or when every resident lane is dead).  The
    engine's stream-compact/scatter traffic runs on the active
    :mod:`repro.dpp.device`.

    Parameters
    ----------
    max_steps:
        Optional safety bound on engine iterations; exceeding it raises
        ``RuntimeError`` (a kernel that stops retiring lanes would otherwise
        loop forever).
    """

    def __init__(self, max_steps: int | None = None) -> None:
        self.max_steps = max_steps

    def run(
        self,
        kernel: FrontierKernel,
        lanes: FrontierLanes,
        outputs: Mapping[str, np.ndarray],
    ) -> int:
        """Step ``kernel`` until every lane has retired; returns the step count.

        ``outputs`` maps each of ``kernel.output_fields`` to a full-width
        array indexed by lane id; retiring lanes scatter their final state
        into it.  Lanes are compacted away according to the engine
        thresholds, so the loop stays dense without per-step compaction
        overhead.
        """
        missing = [name for name in kernel.output_fields if name not in outputs]
        if missing:
            raise KeyError(f"outputs missing kernel output fields: {missing}")
        hook = getattr(kernel, "on_compact", None)
        if hook is not None:
            hook(lanes)
        steps = 0
        while len(lanes):
            if self.max_steps is not None and steps >= self.max_steps:
                raise RuntimeError(f"frontier kernel exceeded {self.max_steps} steps")
            newly_retired = kernel.step(lanes)
            steps += 1
            lanes.retired |= newly_retired
            n_resident = len(lanes)
            dead = int(np.count_nonzero(lanes.retired))
            if dead and (
                dead == n_resident
                or (dead >= FRONTIER_COMPACT_MIN and dead >= FRONTIER_COMPACT_FRACTION * n_resident)
            ):
                self._flush_and_compact(kernel, lanes, outputs)
                if hook is not None and len(lanes):
                    hook(lanes)
        return steps

    def _flush_and_compact(
        self,
        kernel: FrontierKernel,
        lanes: FrontierLanes,
        outputs: Mapping[str, np.ndarray],
    ) -> None:
        """Scatter retiring lanes' outputs back, then compact the survivors."""
        resident = ~lanes.retired
        _, done = stream_compact(
            lanes.retired,
            lanes.lane_ids,
            *[lanes.state[name] for name in kernel.output_fields],
        )
        done_ids = done[0]
        for name, values in zip(kernel.output_fields, done[1:]):
            out = outputs[name]
            scatter(values.astype(out.dtype, copy=False), done_ids, out)
        names = list(lanes.state)
        _, kept = stream_compact(
            resident,
            lanes.lane_ids,
            *[lanes.state[name] for name in names],
        )
        lanes.lane_ids = kept[0]
        lanes.state = dict(zip(names, kept[1:]))
        lanes.retired = np.zeros(len(lanes.lane_ids), dtype=bool)
