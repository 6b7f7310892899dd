"""The micro-batching queue: bounded-window accumulation, one vectorized flush.

Concurrent requests enqueue synchronously (:meth:`MicroBatcher.submit` never
awaits); the first pending request arms a ``max_delay_us`` timer, and the
batch flushes early the moment ``max_batch`` configurations have accumulated.
A flush captures the serving core's current :class:`~repro.serving.core.ModelHandle`
exactly once, pre-screens each request against that handle's availability (so one
request's unknown slice cannot fail its batch-mates), merges the surviving
requests per ``sigmas`` value, and runs one
:meth:`~repro.serving.core.ServingCore.predict_canonical` call per group --
the amortization that makes per-prediction cost approach the batch
:class:`~repro.reporting.predictor.Predictor`'s.

Batching-window semantics:

* Requests are **atomic**: a request's configurations never split across
  batches, so ``max_batch`` is a flush *threshold*, not a hard cap -- a batch
  may overshoot by the size of its last request.
* Results are **delivered through callbacks** (``on_result(rows, meta)`` /
  ``on_error(error, meta)``), not futures: the HTTP server fills per-connection
  response slots directly from the flush, which keeps the per-request hot path
  free of event-loop round trips.
* Determinism: the numeric results of a configuration depend only on
  ``(handle, config, sigmas)``.  Arrival order and batch split decide *when*
  a response is produced, never *what* it contains.

``max_batch <= 1`` disables accumulation entirely: every submit flushes
immediately: the per-request no-batching baseline, whose bytes the serving
tests hold equal to the batched server's.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable

from repro.serving.core import ServingCore, ServingError

__all__ = ["BatchRequest", "MicroBatcher", "DEFAULT_MAX_BATCH", "DEFAULT_MAX_DELAY_US"]

#: Default flush threshold (configurations per batch).
DEFAULT_MAX_BATCH = 512

#: Default accumulation window in microseconds.
DEFAULT_MAX_DELAY_US = 2000


@dataclass
class BatchRequest:
    """One enqueued request: pre-canonicalized configs plus delivery callbacks."""

    configs: list[dict]
    canon: list[tuple]
    sigmas: float | None
    on_result: Callable[[list[tuple], dict], None]
    on_error: Callable[[ServingError, dict], None]


@dataclass
class MicroBatcher:
    """Accumulate requests for a bounded window, flush as one vectorized call."""

    core: ServingCore
    max_batch: int = DEFAULT_MAX_BATCH
    max_delay_us: int = DEFAULT_MAX_DELAY_US
    batches_flushed: int = 0
    configs_flushed: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    _pending: list[BatchRequest] = field(default_factory=list)
    _pending_configs: int = 0
    _timer: object = None

    @property
    def enabled(self) -> bool:
        return self.max_batch > 1

    def submit(self, request: BatchRequest) -> None:
        """Enqueue one request; flushes inline when the threshold is reached."""
        self._pending.append(request)
        self._pending_configs += len(request.canon)
        if not self.enabled or self._pending_configs >= self.max_batch:
            self.flush()
        elif self._timer is None:
            loop = asyncio.get_running_loop()
            self._timer = loop.call_later(self.max_delay_us / 1e6, self.flush)

    def flush(self) -> None:
        """Serve everything pending against one captured handle snapshot."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        batch_configs, self._pending_configs = self._pending_configs, 0
        self.batches_flushed += 1
        self.configs_flushed += batch_configs
        self.histogram[batch_configs] = self.histogram.get(batch_configs, 0) + 1

        handle = self.core.handle  # the swap point: one snapshot serves the whole batch
        meta = {"models_digest": handle.digest, "generation": handle.generation}

        # Pre-screen per request so an unknown slice only fails its own request.
        servable: list[BatchRequest] = []
        for request in batch:
            missing = next(
                (m for m in (handle.missing_slice(c) for c in request.canon) if m is not None), None
            )
            if missing is not None:
                request.on_error(
                    ServingError(
                        "unknown-model",
                        f"no fitted model for ({missing[0]!r}, {missing[1]!r})",
                        architecture=missing[0],
                        technique=missing[1],
                        available=handle.availability(),
                        models_digest=handle.digest,
                    ),
                    meta,
                )
                continue
            servable.append(request)

        # Merge per sigmas value (None = server default) and serve each merge
        # with a single vectorized core call.
        by_sigmas: dict[float | None, list[BatchRequest]] = {}
        for request in servable:
            by_sigmas.setdefault(request.sigmas, []).append(request)
        for sigmas, requests in by_sigmas.items():
            merged: list[tuple] = []
            for request in requests:
                merged.extend(request.canon)
            try:
                results = self.core.predict_canonical(merged, sigmas=sigmas, handle=handle)
            except ServingError as error:
                for request in requests:
                    request.on_error(error, meta)
                continue
            offset = 0
            for request in requests:
                count = len(request.canon)
                request.on_result(results[offset : offset + count], meta)
                offset += count

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "max_batch": self.max_batch,
            "max_delay_us": self.max_delay_us,
            "batches": self.batches_flushed,
            "configs": self.configs_flushed,
            "pending": self._pending_configs,
            "histogram": {str(size): count for size, count in sorted(self.histogram.items())},
        }
