"""The sweep executor: process-pool execution with isolation, timeouts, cache.

Two layers live here.

:class:`SweepExecutor` is generic: it runs ``execute(spec) -> payload`` over a
list of specs with

* **failure isolation** -- a spec that raises records an ``"error"`` failure;
  a spec whose worker process dies (segfault, ``os._exit``, OOM kill) records
  a ``"crash"`` failure and the pool replaces the worker; in both cases every
  other spec still runs;
* **per-experiment timeouts** -- a worker that exceeds ``timeout`` seconds on
  one spec is terminated (``"timeout"`` failure) and replaced;
* **caching / resume** -- with a :class:`~repro.study.cache.CorpusCache` and
  ``resume=True``, cached specs are never re-executed, and every fresh result
  is persisted the moment it finishes, so a killed sweep loses at most the
  experiments that were in flight.

The pool is hand-rolled (workers over pipes, a dispatcher with deadlines)
rather than ``concurrent.futures`` because ``ProcessPoolExecutor`` cannot
kill a timed-out task and treats a dead worker as a broken pool -- the
opposite of the isolation contract above.  Each worker owns a private duplex
pipe, so terminating one worker can never corrupt another's channel.

A pipe message carries a *chunk* of specs sized from the worker's observed
service time (about 10 ms of work, so a spec that takes that long travels
alone and sub-millisecond specs travel dozens to a message); the worker
streams one reply per spec.  The dispatcher treats the head of the chunk as
the spec in flight: the deadline restarts at each reply, and a crash or
timeout fails only the head -- its unstarted chunk-mates are requeued.

The second layer is the study glue: :func:`execute_spec` turns one
:class:`~repro.study.plan.ExperimentSpec` into a row payload by dispatching
``spec.kind`` to its function of the spec in :mod:`repro.study.experiments`,
and :func:`run_plan` assembles executor output back into a
:class:`~repro.modeling.study.StudyCorpus` in plan order.  The in-process
path (``jobs=1``, no timeout: a bare loop, no pool) is the serial oracle the
pool is contractually row-for-row equal to.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from repro.modeling.study import (
    FailureRecord,
    StudyCorpus,
    compositing_record_to_payload,
    experiment_record_to_payload,
    record_from_payload,
)
from repro.study.cache import CorpusCache
from repro.study.experiments import (
    run_compositing_case,
    run_experiment,
    run_synthetic_experiment,
)
from repro.study.plan import (
    KIND_COMPOSITING,
    KIND_RENDER,
    KIND_SYNTHETIC,
    ExperimentSpec,
    SweepPlan,
)

__all__ = [
    "SpecFailure",
    "SweepOutcome",
    "SweepReport",
    "SweepExecutor",
    "execute_spec",
    "run_plan",
]

#: Seconds between dispatcher wake-ups while waiting on workers.
_POLL_SECONDS = 0.05

#: Seconds of work one pipe message should carry, at the worker's observed
#: per-spec service time.  Sub-millisecond specs travel in chunks so that the
#: per-message cost (pickling, a pipe round trip, two context switches) is paid
#: once per chunk; a spec that takes this long or longer travels alone.
_CHUNK_SECONDS = 0.010

#: Most specs one message carries, however cheap they have been.
_MAX_CHUNK = 64


@dataclass
class SpecFailure:
    """Why one spec produced no row."""

    index: int
    reason: str  #: ``"error"`` | ``"timeout"`` | ``"crash"``
    error_type: str = ""
    message: str = ""
    traceback_text: str = ""


@dataclass
class SweepOutcome:
    """Index-aligned results of one executor run."""

    payloads: list[dict | None]
    failures: list[SpecFailure] = field(default_factory=list)
    from_cache: list[bool] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0


class _Worker:
    """One pool process, its private pipe, and the chunk of specs it was sent.

    ``chunk`` holds the indices sent and not yet answered, in execution order:
    the head is the spec in flight (the one ``deadline`` applies to), the rest
    have not started.
    """

    def __init__(self, context, execute) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = context.Process(
            target=_worker_loop, args=(execute, child_conn, parent_conn), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.chunk: deque[int] = deque()
        self.deadline: float | None = None
        #: Mean seconds per spec of the last finished chunk, as seen from the
        #: dispatcher (``None`` until a chunk finished: the first one is one spec).
        self.service_seconds: float | None = None
        self._sent_at = 0.0
        self._sent = 0

    def assign(self, items: list[tuple[int, object]], timeout: float | None) -> None:
        self.conn.send(items)
        self.chunk.extend(index for index, _spec in items)
        self._sent_at = time.monotonic()
        self._sent = len(items)
        self.deadline = (self._sent_at + timeout) if timeout else None

    def answered(self, timeout: float | None) -> None:
        """The in-flight spec replied: the next one in the chunk is in flight now."""
        self.chunk.popleft()
        now = time.monotonic()
        if self.chunk:
            self.deadline = (now + timeout) if timeout else None
        else:
            self.deadline = None
            self.service_seconds = (now - self._sent_at) / self._sent

    def stop(self) -> None:
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.conn.close()

    def kill(self) -> None:
        self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=2.0)
        self.conn.close()


def _worker_loop(execute, conn, dispatcher_end) -> None:
    """Worker main: receive a chunk of ``(index, spec)``, reply ``(status, index, payload)`` per spec."""
    # A forked worker inherits the dispatcher's end of its own pipe; while it
    # holds that, a dispatcher killed outright (``kill -9``) never reads as EOF
    # here and the orphaned worker would wait for work forever.
    dispatcher_end.close()
    while True:
        try:
            items = conn.recv()
        except (EOFError, OSError):
            return
        if items is None:
            return
        for index, spec in items:
            try:
                reply = ("ok", index, execute(spec))
            except Exception as exc:
                reply = (
                    "error",
                    index,
                    {
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": traceback.format_exc(),
                    },
                )
            try:
                conn.send(reply)
            except OSError:
                return  # the dispatcher is gone; nobody is left to work for


class SweepExecutor:
    """Run ``execute`` over specs with isolation, timeouts, and caching.

    Parameters
    ----------
    execute:
        Pure function of one spec returning a JSON-safe payload.  Must be
        picklable (a module-level function) when ``jobs > 1``.
    jobs:
        Worker process count; ``1`` executes in-process (no multiprocessing,
        still failure-isolated for Python exceptions).
    timeout:
        Per-experiment wall-clock budget in seconds.  Enforcement requires a
        killable process, so ``jobs=1`` with a timeout runs on a one-worker
        pool instead of in-process.
    cache:
        Content-addressed row cache, keyed by each spec's ``key_payload()``.
        Results are always written through; cached rows are only *read* when
        ``run(resume=True)``.
    """

    def __init__(self, execute, jobs: int = 1, timeout: float | None = None, cache=None):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.execute = execute
        self.jobs = jobs
        self.timeout = timeout
        self.cache = cache

    # -- public -------------------------------------------------------------------------
    def run(self, specs: list, resume: bool = True) -> SweepOutcome:
        outcome = SweepOutcome(
            payloads=[None] * len(specs), from_cache=[False] * len(specs)
        )
        keys: list[str | None] = [None] * len(specs)
        pending: list[int] = []
        for index, spec in enumerate(specs):
            if self.cache is not None:
                keys[index] = self.cache.key(spec.key_payload())
                if resume:
                    cached = self.cache.get(keys[index])
                    if cached is not None:
                        outcome.payloads[index] = cached
                        outcome.from_cache[index] = True
                        outcome.cache_hits += 1
                        continue
            pending.append(index)

        if not pending:
            return outcome
        # Timeouts can only be enforced on a process we may kill, so a
        # timeout-carrying serial run still goes through a one-worker pool.
        if self.jobs == 1 and self.timeout is None:
            self._run_inline(specs, pending, keys, outcome)
        else:
            self._run_pool(specs, pending, keys, outcome)
        return outcome

    # -- in-process path ----------------------------------------------------------------
    def _run_inline(self, specs, pending, keys, outcome) -> None:
        for index in pending:
            try:
                payload = self.execute(specs[index])
            except Exception as exc:
                outcome.failures.append(
                    SpecFailure(
                        index=index,
                        reason="error",
                        error_type=type(exc).__name__,
                        message=str(exc),
                        traceback_text=traceback.format_exc(),
                    )
                )
                continue
            self._record(index, payload, specs, keys, outcome)

    # -- pool path ----------------------------------------------------------------------
    def _chunk_size(self, worker: _Worker, remaining: int) -> int:
        """Specs the next message to ``worker`` carries: about ``_CHUNK_SECONDS`` of
        work at its observed service time, and never more than its share of half
        the remaining queue, so that the tail of a sweep stays balanced."""
        if worker.service_seconds is None:
            return 1
        wanted = int(_CHUNK_SECONDS / max(worker.service_seconds, 1e-9))
        return max(1, min(wanted, _MAX_CHUNK, remaining // (2 * self.jobs)))

    def _run_pool(self, specs, pending, keys, outcome) -> None:
        context = multiprocessing.get_context()
        queue = deque(pending)
        workers = [_Worker(context, self.execute) for _ in range(min(self.jobs, len(queue)))]

        def replace(worker: _Worker) -> None:
            worker.kill()
            workers.remove(worker)
            if queue:
                workers.append(_Worker(context, self.execute))

        def fail_in_flight(worker: _Worker, reason: str, message: str) -> None:
            """Only the in-flight spec fails; its unstarted chunk-mates run elsewhere."""
            outcome.failures.append(
                SpecFailure(index=worker.chunk.popleft(), reason=reason, message=message)
            )
            queue.extendleft(reversed(worker.chunk))
            worker.chunk.clear()
            replace(worker)

        try:
            while queue or any(w.chunk for w in workers):
                for worker in [w for w in workers if not w.chunk]:
                    if not queue:
                        break
                    size = self._chunk_size(worker, len(queue))
                    indices = [queue.popleft() for _ in range(size)]
                    try:
                        worker.assign([(index, specs[index]) for index in indices], self.timeout)
                    except OSError:
                        # Worker died before it could accept work; put the
                        # specs back and replace the worker.
                        queue.extendleft(reversed(indices))
                        replace(worker)

                busy = {w.conn: w for w in workers if w.chunk}
                for conn in multiprocessing.connection.wait(list(busy), timeout=_POLL_SECONDS):
                    worker = busy[conn]
                    # A chunk's replies arrive in a burst: take all that are there.
                    while worker.chunk and conn.poll(0):
                        try:
                            status, index, payload = conn.recv()
                        except (EOFError, OSError):
                            # The worker died without replying: crash isolation.
                            fail_in_flight(
                                worker, "crash", f"worker exited with code {worker.process.exitcode}"
                            )
                            break
                        worker.answered(self.timeout)
                        if status == "ok":
                            self._record(index, payload, specs, keys, outcome)
                        else:
                            outcome.failures.append(
                                SpecFailure(
                                    index=index,
                                    reason="error",
                                    error_type=payload["error_type"],
                                    message=payload["message"],
                                    traceback_text=payload["traceback"],
                                )
                            )

                now = time.monotonic()
                for worker in [w for w in workers if w.deadline is not None and now > w.deadline]:
                    if worker.conn.poll(0):
                        # The result beat the deadline and is sitting in the
                        # pipe: let the next wait() iteration consume it
                        # rather than discarding a finished row as a timeout.
                        continue
                    fail_in_flight(worker, "timeout", f"experiment exceeded {self.timeout:.1f}s")
        finally:
            for worker in workers:
                if worker.chunk:
                    worker.kill()
                else:
                    worker.stop()

    # -- shared -------------------------------------------------------------------------
    def _record(self, index, payload, specs, keys, outcome) -> None:
        outcome.payloads[index] = payload
        outcome.executed += 1
        if self.cache is not None and keys[index] is not None:
            self.cache.put(keys[index], payload, spec_payload=specs[index].key_payload())


# ---------------------------------------------------------------------------
# Study glue: spec execution and plan -> corpus assembly
# ---------------------------------------------------------------------------

#: Spec kind -> (experiment body, row serializer).
_EXPERIMENTS = {
    KIND_RENDER: (run_experiment, experiment_record_to_payload),
    KIND_SYNTHETIC: (run_synthetic_experiment, experiment_record_to_payload),
    KIND_COMPOSITING: (run_compositing_case, compositing_record_to_payload),
}


def execute_spec(spec: ExperimentSpec) -> dict:
    """Run one experiment spec to a row payload (pure function of the spec)."""
    run, to_payload = _EXPERIMENTS[spec.kind]
    return to_payload(run(spec))


@dataclass
class SweepReport:
    """What one engine run did (the CLI's summary and CI's assertions)."""

    planned: int
    cache_hits: int
    executed: int
    failures: list[SpecFailure] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def as_dict(self) -> dict:
        return {
            "planned": self.planned,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": self.failed,
        }


def run_plan(
    plan: SweepPlan,
    jobs: int = 1,
    timeout: float | None = None,
    cache=None,
    resume: bool = True,
):
    """Execute a sweep plan into a corpus; returns ``(corpus, report)``.

    ``cache`` may be a :class:`~repro.study.cache.CorpusCache` or a directory
    path.  Rows land in plan order regardless of completion order, so the
    corpus of a pool run is row-for-row comparable with the inline run's.
    """
    if cache is not None and not isinstance(cache, CorpusCache):
        cache = CorpusCache(cache)
    executor = SweepExecutor(execute_spec, jobs=jobs, timeout=timeout, cache=cache)
    outcome = executor.run(plan.specs, resume=resume)

    corpus = StudyCorpus()
    failure_by_index = {failure.index: failure for failure in outcome.failures}
    for index, spec in enumerate(plan.specs):
        payload = outcome.payloads[index]
        if payload is not None:
            record = record_from_payload(payload)
            if payload["row_type"] == "compositing":
                corpus.compositing_records.append(record)
            else:
                corpus.records.append(record)
            continue
        failure = failure_by_index.get(index)
        corpus.failures.append(
            FailureRecord(
                kind=spec.kind,
                reason=failure.reason if failure else "error",
                spec=spec.key_payload(),
                error_type=failure.error_type if failure else "",
                message=failure.message if failure else "",
            )
        )
    report = SweepReport(
        planned=len(plan.specs),
        cache_hits=outcome.cache_hits,
        executed=outcome.executed,
        failures=outcome.failures,
    )
    return corpus, report
