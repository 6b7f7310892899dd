"""Data-parallel primitives framework (EAVL / VTK-m analogue).

The dissertation's rendering algorithms (Chapters II, III, and V) are composed
entirely of a small set of data-parallel primitives -- ``map``, ``gather``,
``scatter``, ``reduce``, ``scan``, and the stream-compaction idiom built from
them -- executed by an underlying engine (EAVL, later VTK-m) that provides
portable performance across CPU and GPU back-ends.

This package reproduces that layer in Python:

* :mod:`repro.dpp.device` -- the two back-ends ("device adapters").  The
  ``vectorized`` device executes primitives with numpy; the ``serial`` device
  runs explicit Python loops (useful for differential testing of the
  vectorized kernels, mirroring the paper's OpenMP-vs-ISPC back-end swap).
  :func:`use_device` picks the active one.
* :mod:`repro.dpp.primitives` -- the primitives themselves, dispatching to the
  active device and recording per-invocation instrumentation.
* :mod:`repro.dpp.instrument` -- per-scope operation counters and primitive
  time, standing in for PAPI / nvprof hardware counters.
* :mod:`repro.dpp.frontier` -- the compacted-frontier kernel engine shared by
  the BVH traversal loop and both volume ray casters: contiguous SoA lane
  state, device-routed flush/compaction, and per-lane retirement.
"""

from repro.dpp.frontier import FrontierEngine, FrontierKernel, FrontierLanes
from repro.dpp.device import (
    Device,
    SerialDevice,
    VectorizedDevice,
    get_device,
    list_devices,
    use_device,
)
from repro.dpp.instrument import OpCounters, get_instrumentation
from repro.dpp.primitives import (
    exclusive_scan,
    gather,
    inclusive_scan,
    map_field,
    reduce_field,
    reverse_index,
    scatter,
    segmented_argmin,
    stream_compact,
)

__all__ = [
    "Device",
    "FrontierEngine",
    "FrontierKernel",
    "FrontierLanes",
    "OpCounters",
    "SerialDevice",
    "VectorizedDevice",
    "exclusive_scan",
    "gather",
    "get_device",
    "get_instrumentation",
    "inclusive_scan",
    "list_devices",
    "map_field",
    "reduce_field",
    "reverse_index",
    "scatter",
    "segmented_argmin",
    "stream_compact",
    "use_device",
]
