"""Device adapters (back-ends) for the data-parallel primitives.

EAVL and VTK-m compile a single algorithm description to multiple back-ends
(serial, OpenMP/TBB, CUDA, ISPC).  The reproduction keeps the same structure:
primitives in :mod:`repro.dpp.primitives` never execute work themselves; they
delegate to the active :class:`Device`.  Two devices ship in-tree:

``vectorized``
    Executes every primitive with numpy array operations.  This is the
    production back-end and the one whose wall-clock time is measured for the
    "CPU1" architecture in the study.

``serial``
    Executes primitives with explicit Python loops.  It is deliberately slow
    but trivially correct, and is used for differential testing and to
    reproduce the paper's back-end comparison experiments (Table 5), where a
    poorly-matched back-end (OpenMP on Xeon Phi) is contrasted with a
    well-matched one (ISPC).

:func:`register_device` adds an adapter under its ``name`` (the tests install
a spy device this way); an unknown name is rejected in one place,
:meth:`DeviceRegistry.get`, with a ``ValueError`` naming the choices.

Devices are selected through :func:`use_device`, which is a context manager
mirroring VTK-m's runtime device tracker.  The active device is tracked in a
:class:`contextvars.ContextVar`, so activation is task- and thread-local:
concurrent ``use_device`` blocks on an asyncio event loop or across executor
threads each see their own device and restore their own previous device on
exit, instead of racing on one process-global slot.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "Device",
    "SerialDevice",
    "VectorizedDevice",
    "DeviceRegistry",
    "register_device",
    "get_device",
    "use_device",
    "list_devices",
]

#: Reduction operators every device must support.
REDUCE_OPERATORS = ("add", "min", "max")


class Device:
    """Abstract device adapter.

    Subclasses implement the raw execution of each primitive.  All inputs and
    outputs are numpy arrays; functors are plain Python callables that accept
    and return arrays (vectorized device) or scalars (serial device is free to
    call them element-wise when ``elementwise`` is requested).

    :meth:`reduce` is a template method: the operator/empty-input contract
    (unknown operators raise ``ValueError``; an empty ``add`` reduction
    returns the zero identity; empty ``min``/``max`` raise ``ValueError``) is
    enforced here once, so every device -- including direct ``Device.reduce``
    callers that bypass :func:`repro.dpp.primitives.reduce_field` -- behaves
    identically.  Devices implement :meth:`_reduce_impl` for the non-empty
    case only.
    """

    #: Unique registry name.
    name: str = "abstract"

    # -- mandatory primitive implementations ---------------------------------
    def map(self, functor: Callable, *arrays: np.ndarray) -> np.ndarray | tuple:
        raise NotImplementedError

    def gather(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def scatter(
        self, values: np.ndarray, indices: np.ndarray, output: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def reduce(self, values: np.ndarray, operator: str) -> np.generic:
        """Validated reduction entry point (shared across all devices)."""
        values = np.asarray(values)
        if operator not in REDUCE_OPERATORS:
            raise ValueError(f"unknown reduction operator: {operator!r}")
        if len(values) == 0:
            if operator == "add":
                if values.ndim > 1:
                    return np.zeros(values.shape[1:], dtype=values.dtype)
                return values.dtype.type(0)
            raise ValueError(f"cannot {operator}-reduce an empty array")
        return self._reduce_impl(values, operator)

    def _reduce_impl(self, values: np.ndarray, operator: str) -> np.generic:
        """Reduce a validated, non-empty array (device-specific)."""
        raise NotImplementedError

    def scan(self, values: np.ndarray, inclusive: bool) -> np.ndarray:
        raise NotImplementedError

    def reverse_index(self, scan_result: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """Original indices of the flagged elements, ordered by scan offset.

        ``scan_result`` is the exclusive prefix sum of ``flags``; survivor
        ``i`` lands at output position ``scan_result[i]``.  This is the
        ``reverseIndex`` step of the paper's stream-compaction idiom
        (Algorithm 1, line 21 and Algorithm 2, line 20) -- a scatter of the
        survivors' positions through their scan offsets.
        """
        raise NotImplementedError

    def segmented_argmin(
        self, values: np.ndarray, starts: np.ndarray, tiebreak: np.ndarray
    ) -> np.ndarray:
        """Global index of the minimum of each contiguous segment of ``values``.

        ``starts`` are the segment start offsets (ascending, ``starts[0] == 0``,
        every segment non-empty).  Ties on the value are broken by the smallest
        ``tiebreak`` entry, then by position, making the result deterministic
        across devices.  Used by the ray tracer's batched leaf intersector to
        pick the winning triangle per ray.
        """
        raise NotImplementedError


class VectorizedDevice(Device):
    """numpy-backed device adapter (the production back-end)."""

    name = "vectorized"

    def map(self, functor: Callable, *arrays: np.ndarray) -> np.ndarray | tuple:
        return functor(*arrays)

    def gather(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return np.take(values, indices, axis=0)

    def scatter(
        self, values: np.ndarray, indices: np.ndarray, output: np.ndarray
    ) -> np.ndarray:
        output[indices] = values
        return output

    def _reduce_impl(self, values: np.ndarray, operator: str) -> np.generic:
        if operator == "add":
            return values.sum(axis=0)
        if operator == "min":
            return values.min(axis=0)
        return values.max(axis=0)

    def scan(self, values: np.ndarray, inclusive: bool) -> np.ndarray:
        result = np.cumsum(values, axis=0)
        if inclusive or len(result) == 0:
            return result
        exclusive = np.empty_like(result)
        exclusive[0] = 0
        exclusive[1:] = result[:-1]
        return exclusive

    def reverse_index(self, scan_result: np.ndarray, flags: np.ndarray) -> np.ndarray:
        count = int(scan_result[-1]) + int(flags[-1]) if len(flags) else 0
        out = np.empty(count, dtype=np.int64)
        out[scan_result[flags]] = np.flatnonzero(flags)
        return out

    def segmented_argmin(
        self, values: np.ndarray, starts: np.ndarray, tiebreak: np.ndarray
    ) -> np.ndarray:
        total = len(values)
        segment_of = np.repeat(
            np.arange(len(starts), dtype=np.int64),
            np.diff(np.append(starts, total)),
        )
        segment_min = np.minimum.reduceat(values, starts)
        at_min = values == segment_min[segment_of]
        big = np.iinfo(np.int64).max
        masked_tiebreak = np.where(at_min, tiebreak, big)
        segment_tiebreak = np.minimum.reduceat(masked_tiebreak, starts)
        winning = at_min & (masked_tiebreak == segment_tiebreak[segment_of])
        positions = np.where(winning, np.arange(total, dtype=np.int64), total)
        return np.minimum.reduceat(positions, starts)


class SerialDevice(Device):
    """Pure-Python loop device adapter (reference back-end).

    Functors passed to :meth:`map` are still called on whole arrays (they are
    written vectorized throughout the library); the serial device differs in
    how the structural primitives -- gather, scatter, reduce, scan -- are
    executed, using explicit loops so they can be diffed against the
    vectorized implementations.
    """

    name = "serial"

    def map(self, functor: Callable, *arrays: np.ndarray) -> np.ndarray | tuple:
        return functor(*arrays)

    def gather(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        out_shape = (len(indices),) + values.shape[1:]
        out = np.empty(out_shape, dtype=values.dtype)
        for position, index in enumerate(indices):
            out[position] = values[index]
        return out

    def scatter(
        self, values: np.ndarray, indices: np.ndarray, output: np.ndarray
    ) -> np.ndarray:
        indices = np.asarray(indices)
        for position, index in enumerate(indices):
            output[index] = values[position]
        return output

    def _reduce_impl(self, values: np.ndarray, operator: str) -> np.generic:
        accumulator = values[0]
        for value in values[1:]:
            if operator == "add":
                accumulator = accumulator + value
            elif operator == "min":
                accumulator = np.minimum(accumulator, value)
            else:
                accumulator = np.maximum(accumulator, value)
        return accumulator

    def scan(self, values: np.ndarray, inclusive: bool) -> np.ndarray:
        out = np.empty_like(np.asarray(values))
        running = np.zeros_like(np.asarray(values[:1]).sum(axis=0)) if len(values) else 0
        for position, value in enumerate(values):
            if inclusive:
                running = running + value
                out[position] = running
            else:
                out[position] = running
                running = running + value
        return out

    def reverse_index(self, scan_result: np.ndarray, flags: np.ndarray) -> np.ndarray:
        count = 0
        for flag in flags:
            count += int(bool(flag))
        out = np.empty(count, dtype=np.int64)
        for position, flag in enumerate(flags):
            if flag:
                out[int(scan_result[position])] = position
        return out

    def segmented_argmin(
        self, values: np.ndarray, starts: np.ndarray, tiebreak: np.ndarray
    ) -> np.ndarray:
        boundaries = list(starts) + [len(values)]
        out = np.empty(len(starts), dtype=np.int64)
        for segment in range(len(starts)):
            best = boundaries[segment]
            for position in range(boundaries[segment] + 1, boundaries[segment + 1]):
                key = (values[position], tiebreak[position], position)
                if key < (values[best], tiebreak[best], best):
                    best = position
            out[segment] = best
        return out


class DeviceRegistry:
    """Registry of devices with a context-local active device.

    The active device is held in a :class:`contextvars.ContextVar`, not an
    instance attribute: each asyncio task and each thread resolves (and
    restores) its own activation, so interleaved :meth:`activate` blocks --
    the serving tier's event loop, the sweep executor's workers -- can never
    restore one another's device.  A context that never activated anything
    falls back to the registry default (the first registered device).
    """

    def __init__(self) -> None:
        self._devices: dict[str, Device] = {}
        self._default: str | None = None
        self._active: contextvars.ContextVar[str | None] = contextvars.ContextVar(
            "repro_dpp_active_device", default=None
        )

    def register(self, device: Device) -> None:
        """Add ``device``; the first registration becomes the default device."""
        self._devices[device.name] = device
        if self._default is None:
            self._default = device.name

    def get(self, name: str | None = None) -> Device:
        """Return the named device, or the active device when ``name`` is None.

        The one place an unknown device name is rejected.
        """
        if name is None:
            name = self._active.get() or self._default
            if name is None:
                raise RuntimeError("no device registered")
        try:
            return self._devices[name]
        except KeyError:
            choices = ", ".join(self.names())
            raise ValueError(f"unknown device {name!r}; choose from {choices}") from None

    def names(self) -> list[str]:
        """Names of every registered device."""
        return sorted(self._devices)

    @property
    def active(self) -> str | None:
        """The calling context's active device name (default when unset)."""
        return self._active.get() or self._default

    @contextlib.contextmanager
    def activate(self, name: str) -> Iterator[Device]:
        """Temporarily make ``name`` the active device in this context."""
        device = self.get(name)
        token = self._active.set(device.name)
        try:
            yield device
        finally:
            self._active.reset(token)


#: Process-global registry used by the primitive front-ends.
_REGISTRY = DeviceRegistry()
_REGISTRY.register(VectorizedDevice())
_REGISTRY.register(SerialDevice())


def register_device(device: Device) -> None:
    """Register a custom device adapter in the global registry."""
    _REGISTRY.register(device)


def get_device(name: str | None = None) -> Device:
    """Return a registered device (the active one when ``name`` is omitted)."""
    return _REGISTRY.get(name)


def use_device(name: str):
    """Context manager selecting the active device for the enclosed block.

    Activation is context-local (task- and thread-local): concurrent blocks
    do not observe or clobber each other's device.
    """
    return _REGISTRY.activate(name)


def list_devices() -> list[str]:
    """Names of all registered devices."""
    return _REGISTRY.names()
