"""The data-parallel primitives: map, gather, scatter, reduce, scan, compaction.

These are the operations enumerated in Section 2.3 of the dissertation.  Every
rendering algorithm in :mod:`repro.rendering` is written exclusively in terms
of these functions plus user-defined functors, exactly mirroring the paper's
EAVL/VTK-m implementations, so that the algorithmic-complexity terms used by
the performance models (objects touched, pixels touched, samples taken) can be
counted at this single choke point.

Each primitive validates its inputs and hands the device call to
:func:`_dispatch`, the one place dpp time is taken: it runs the call on the
active :class:`repro.dpp.device.Device` and records wall-clock time, elements
touched, and bytes moved into the global
:class:`repro.dpp.instrument.OpCounters`.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.dpp.device import get_device
from repro.dpp.instrument import get_instrumentation

__all__ = [
    "map_field",
    "gather",
    "scatter",
    "reduce_field",
    "inclusive_scan",
    "exclusive_scan",
    "reverse_index",
    "segmented_argmin",
    "stream_compact",
]


def _dispatch(call: Callable, elements: int, *operands):
    """Run ``call(*operands)`` on a device, timing it and recording its traffic.

    Bytes moved are estimated as the operand buffers plus every array the call
    produced that is not itself an operand (``scatter`` returns its output
    operand; a reduction returns a scalar).
    """
    start = time.perf_counter()
    result = call(*operands)
    seconds = time.perf_counter() - start
    buffers = [a for a in operands if isinstance(a, np.ndarray)]
    produced = result if isinstance(result, tuple) else (result,)
    buffers += [np.asarray(a) for a in produced if np.ndim(a) and all(a is not b for b in buffers)]
    get_instrumentation().record(elements, sum(a.nbytes for a in buffers), seconds)
    return result


def map_field(functor: Callable, *arrays: np.ndarray):
    """Apply ``functor`` element-wise over equally sized input arrays.

    The functor receives the input arrays whole (the vectorized execution
    model) and must return one array -- or a tuple of arrays -- whose leading
    dimension matches the inputs'.  This is the ``map`` primitive of
    Section 2.3: primary-ray generation, intersection, shading, and color
    compositing are all expressed through it.

    Parameters
    ----------
    functor:
        Callable applied to the arrays.
    arrays:
        One or more numpy arrays sharing their leading dimension.

    Returns
    -------
    numpy.ndarray or tuple of numpy.ndarray
        Whatever the functor produced.
    """
    if not arrays:
        raise ValueError("map_field requires at least one input array")
    arrays = tuple(np.asarray(a) for a in arrays)
    length = len(arrays[0])
    for array in arrays[1:]:
        if len(array) != length:
            raise ValueError("map_field inputs must share their leading dimension")
    return _dispatch(get_device().map, length, functor, *arrays)


def gather(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Collect ``values[indices[i]]`` into an output the length of ``indices``.

    Gather is used to compact surviving rays, to collect per-pixel samples for
    anti-aliasing, and by stream compaction (Section 2.3).
    """
    values = np.asarray(values)
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ValueError("gather indices must be one-dimensional")
    if len(values) == 0 and len(indices) > 0:
        raise ValueError("cannot gather from an empty array")
    if len(indices) and (indices.min() < 0 or indices.max() >= len(values)):
        raise IndexError("gather index out of range")
    return _dispatch(get_device().gather, len(indices), values, indices)


def scatter(values: np.ndarray, indices: np.ndarray, output: np.ndarray) -> np.ndarray:
    """Write ``values[i]`` into ``output[indices[i]]`` (in place) and return it.

    The caller is responsible for index uniqueness when a race would matter,
    as in the paper (scatter "generally requires more care than gather").
    """
    values = np.asarray(values)
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ValueError("scatter indices must be one-dimensional")
    if len(values) != len(indices):
        raise ValueError("scatter values and indices must have equal length")
    if len(indices) and (indices.min() < 0 or indices.max() >= len(output)):
        raise IndexError("scatter index out of range")
    return _dispatch(get_device().scatter, len(indices), values, indices, output)


def reduce_field(values: np.ndarray, operator: str = "add"):
    """Combine all values into one using ``add``, ``min``, or ``max``.

    An empty ``add`` reduction returns 0; empty ``min``/``max`` reductions
    raise ``ValueError`` as there is no identity element.  Both rules (and
    operator validation) live in :meth:`repro.dpp.device.Device.reduce`, so
    direct device callers get the identical contract.
    """
    values = np.asarray(values)
    return _dispatch(get_device().reduce, len(values), values, operator)


def inclusive_scan(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum: ``out[i] = sum(values[:i+1])``."""
    values = np.asarray(values)
    return _dispatch(get_device().scan, len(values), values, True)


def exclusive_scan(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: ``out[i] = sum(values[:i])`` with ``out[0] = 0``."""
    values = np.asarray(values)
    return _dispatch(get_device().scan, len(values), values, False)


def reverse_index(scan_result: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Invert an exclusive scan of boolean flags into gather indices.

    Given ``flags`` marking surviving elements and ``scan_result`` their
    exclusive prefix sum, return the array of original indices of the
    survivors, in order: survivor ``i`` is scattered to output position
    ``scan_result[i]``.  This is the ``reverseIndex`` step of the paper's
    stream-compaction idiom (Algorithm 1, line 21 and Algorithm 2, line 20);
    like every other primitive it dispatches to the active
    :class:`~repro.dpp.device.Device` and records its traffic.
    """
    flags = np.asarray(flags, dtype=bool)
    scan_result = np.asarray(scan_result)
    if flags.ndim != 1 or scan_result.ndim != 1:
        raise ValueError("reverse_index flags and scan_result must be one-dimensional")
    if len(flags) != len(scan_result):
        raise ValueError("flags and scan_result must have equal length")
    return _dispatch(get_device().reverse_index, len(flags), scan_result, flags)


def segmented_argmin(
    values: np.ndarray, segment_starts: np.ndarray, tiebreak: np.ndarray
) -> np.ndarray:
    """Global index of the minimum value within each contiguous segment.

    This is the segmented-reduction primitive behind the ray tracer's batched
    leaf intersection: all candidate ``(ray, triangle)`` pair distances are
    laid out contiguously per ray, and one segmented argmin picks each ray's
    winning triangle.  Ties on the value are broken by the smallest
    ``tiebreak`` entry (the triangle id), then by position, so the result is
    deterministic and matches a serial first-minimum sweep.

    Parameters
    ----------
    values:
        One-dimensional array of segment-concatenated values.
    segment_starts:
        Ascending start offsets, one per segment; ``segment_starts[0]`` must
        be 0 and every segment must be non-empty.
    tiebreak:
        Integer array the same length as ``values`` used to break value ties.

    Returns
    -------
    numpy.ndarray
        ``int64`` positions into ``values``, one per segment.
    """
    values = np.asarray(values)
    segment_starts = np.asarray(segment_starts, dtype=np.int64)
    tiebreak = np.asarray(tiebreak)
    if values.ndim != 1 or tiebreak.ndim != 1:
        raise ValueError("segmented_argmin values and tiebreak must be one-dimensional")
    if len(values) != len(tiebreak):
        raise ValueError("segmented_argmin values and tiebreak must have equal length")
    if len(segment_starts) == 0:
        return np.empty(0, dtype=np.int64)
    if segment_starts[0] != 0:
        raise ValueError("segmented_argmin segment_starts must begin at 0")
    if np.any(np.diff(segment_starts) <= 0) or segment_starts[-1] >= len(values):
        raise ValueError("segmented_argmin segments must be non-empty and ascending")
    if np.isnan(values.min()):
        # NaN never compares as a minimum, so the devices cannot agree on a
        # winner for it; reject it rather than diverge (use +inf for "no
        # candidate", as the ray tracer's masked intersection distances do).
        raise ValueError("segmented_argmin values must not contain NaN")
    return _dispatch(get_device().segmented_argmin, len(values), values, segment_starts, tiebreak)


def stream_compact(flags: np.ndarray, *arrays: np.ndarray):
    """Remove the elements whose flag is false from every array, preserving order.

    Implements the compaction idiom from the ray tracer (Section 2.4 "Stream
    Compaction"): reduce to count survivors, exclusive-scan the flags,
    reverse-index to build gather indices, then gather each array.

    Returns
    -------
    (count, compacted):
        ``count`` is the number of survivors and ``compacted`` a tuple with
        each input array restricted to the surviving elements.
    """
    flags = np.asarray(flags)
    flag_ints = flags.astype(np.int64)
    count = int(reduce_field(flag_ints, "add"))
    scanned = exclusive_scan(flag_ints)
    indices = reverse_index(scanned, flags)
    compacted = tuple(gather(array, indices) for array in arrays)
    return count, compacted
