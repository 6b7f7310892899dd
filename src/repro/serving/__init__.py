"""The prediction-serving tier: micro-batched, cached, hot-reloading model service.

``repro.serving`` turns the vectorized batch
:class:`~repro.reporting.predictor.Predictor` into a long-running service
(stdlib ``asyncio`` + HTTP/1.1, no third-party dependencies):

* :mod:`repro.serving.core` -- the synchronous request path shared by the
  server and the ``python -m repro.study predict`` CLI: configuration
  canonicalization, the LRU result cache keyed by
  ``(models digest, schema, canonical config, sigmas)``, vectorized group
  execution, and the immutable :class:`~repro.serving.core.ModelHandle`
  snapshots hot reload swaps atomically.
* :mod:`repro.serving.batching` -- the micro-batching queue: concurrent
  requests accumulate for a bounded window (``max_batch`` / ``max_delay_us``)
  and flush as one vectorized predictor call.
* :mod:`repro.serving.server` -- the asyncio HTTP/1.1 front end
  (``POST /predict``, ``GET /stats``, ``GET /healthz``, ``POST /reload``)
  with pipelining-aware connections and a ``models.json`` digest watcher.
* :mod:`repro.serving.client` -- a minimal stdlib client used by the tests
  and the ``serve_mixed`` workload of ``benchmarks/e2e``.

Start a server with ``python -m repro.serve --models models.json``.  Served
predictions are bit-identical to ``Predictor.predict_configurations`` on the
same inputs -- the differential oracle the serving tests and the
``serve_mixed`` workload both enforce.
"""

from repro.serving.core import (
    LRUCache,
    ModelHandle,
    ServingCore,
    ServingError,
    canonical_config,
)

__all__ = ["LRUCache", "ModelHandle", "ServingCore", "ServingError", "canonical_config"]
