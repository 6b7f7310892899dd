"""The asyncio HTTP/1.1 prediction server (stdlib only, pipelining-aware).

One event loop, no threads, no third-party dependencies.  Endpoints:

* ``POST /predict`` -- body is a configuration object, a JSON list of them,
  or ``{"configs": [...], "sigmas": x}``.  The response's ``predictions``
  rows are **positional** (row *i* answers configuration *i*) and carry only
  the numeric result fields, plus the ``models_digest``/``generation`` of
  the handle snapshot that produced them; clients that want echoes pair rows
  with their own request (the ``predict`` CLI does exactly that).  Response
  bodies are built from fixed-order templates whose bytes equal
  ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` -- hand
  serialization keeps the per-request cost off the micro-batched hot path
  without giving up canonical JSON.
* ``GET /stats`` -- models digest/generation, cache hit/miss/eviction
  counters, batching histogram, request counters, uptime.
* ``GET /healthz`` -- liveness plus the current digest.
* ``POST /reload`` -- force a ``models.json`` digest check right now (the
  watcher task does the same on a poll interval).

Each target answers only its listed method; any other is a ``405``.

Connections are **pipelining-aware**: the read loop parses every complete
request in its buffer without awaiting responses, so a client that pipelines
N single-config requests hands the micro-batcher N configurations in one
window.  Responses are delivered through per-connection ordered slots
(HTTP/1.1 requires in-order responses).  Filling a slot does not write: the
first fill of an event-loop turn schedules one write for the next turn, which
sends the leading run of ready responses in one ``writer.write`` -- one write
per connection per loop turn, so every response one flush owes a connection
leaves together.  (Writing at each fill cost 92,002 ``socket.send`` calls for
92,000 pipelined requests.)

Hot reload: a watcher task polls the ``models.json`` path every
:data:`RELOAD_POLL_S` seconds; when the file's bytes hash to a new digest, a
fresh :class:`~repro.serving.core.ModelHandle` is built and swapped in with
one assignment.  In-flight batches captured the old handle and finish against
it -- no request is dropped, no response mixes two suites, and every response
says which digest served it.  A file that does not read as a suite (a torn
mid-write read, or JSON that is not a suite object) is skipped and retried on
the next poll; the old suite keeps serving.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from http import HTTPStatus
from pathlib import Path

from repro.serving import batching
from repro.serving.batching import BatchRequest, MicroBatcher
from repro.serving.core import ModelHandle, ServingCore, ServingError, canonical_config

__all__ = ["PredictionServer", "start_server", "build_parser", "main"]

#: Watcher poll interval (seconds); read at each poll.
RELOAD_POLL_S = 0.5

_STATUS_TEXT = {status: HTTPStatus(status).phrase for status in (200, 400, 404, 405, 500)}


def _response_bytes(status: int, body: bytes) -> bytes:
    return (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _json_response(status: int, payload: dict) -> bytes:
    return _response_bytes(status, json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())


def _error_response(status: int, code: str, message: str) -> bytes:
    return _json_response(status, {"error": {"code": code, "message": message}})


class _Connection:
    """Ordered response slots for one pipelined HTTP/1.1 connection.

    Writes are deferred to the next event-loop turn: every response filled in
    one turn (e.g. a whole flushed batch) leaves in a single ``writer.write``.
    """

    __slots__ = ("writer", "slots", "closed", "write_pending")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.slots: list = []  # each slot: [bytes | None]; filled in request order
        self.closed = False
        self.write_pending = False

    def reserve(self) -> list:
        slot = [None]
        self.slots.append(slot)
        return slot

    def fill(self, slot: list, data: bytes) -> None:
        """Complete one slot; the first fill of a loop turn schedules its write."""
        slot[0] = data
        if self.closed:
            self.slots.clear()
        elif not self.write_pending:
            self.write_pending = True
            asyncio.get_running_loop().call_soon(self.write_ready)

    def write_ready(self) -> None:
        """Write the leading run of ready responses in one ``writer.write``."""
        self.write_pending = False
        if self.closed:
            return
        ready = 0
        while ready < len(self.slots) and self.slots[ready][0] is not None:
            ready += 1
        if ready:
            chunks = [s[0] for s in self.slots[:ready]]
            del self.slots[:ready]
            self.writer.write(b"".join(chunks))


class PredictionServer:
    """The serving tier: core + micro-batcher + HTTP front end + reload watcher."""

    def __init__(self, core: ServingCore, host: str = "127.0.0.1", port: int = 0, watch: bool = True) -> None:
        self.core = core
        self.host = host
        self.port = port
        self.batcher = MicroBatcher(core)
        self.watch = watch
        self.requests = 0
        self.errors = 0
        self.reloads = 0
        self.reload_errors = 0
        self._last_error = ""
        self.started_at = time.monotonic()
        self._server: asyncio.AbstractServer | None = None
        self._watcher: asyncio.Task | None = None
        self._last_stat: tuple | None = None

    # -- lifecycle -----------------------------------------------------------------------
    async def start(self) -> "PredictionServer":
        self._server = await asyncio.start_server(self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        try:
            stat = os.stat(self.core.handle.path)
            self._last_stat = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            self._last_stat = None
        if self.watch:
            self._watcher = asyncio.get_running_loop().create_task(self._watch())
        return self

    async def close(self) -> None:
        if self._watcher is not None:
            self._watcher.cancel()
            try:
                await self._watcher
            except asyncio.CancelledError:
                pass
            self._watcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- hot reload ----------------------------------------------------------------------
    async def _watch(self) -> None:
        while True:
            await asyncio.sleep(RELOAD_POLL_S)
            self.maybe_reload()

    def maybe_reload(self) -> bool:
        """Swap in ``models.json`` if its bytes changed; never drops the old suite."""
        path = self.core.handle.path
        try:
            stat = os.stat(path)
        except OSError:
            return False
        signature = (stat.st_mtime_ns, stat.st_size)
        if signature == self._last_stat:
            return False
        try:
            data = Path(path).read_bytes()
            handle = ModelHandle.from_bytes(data, path, generation=self.core.handle.generation + 1)
        except (OSError, ValueError) as error:
            # A torn mid-write read or an invalid file (``from_payload`` raises
            # ValueError for any payload it cannot read): keep serving the old
            # suite and retry on the next poll (the stat signature is only
            # committed on success).
            self.reload_errors += 1
            self._last_error = str(error)
            return False
        self._last_stat = signature
        if handle.digest == self.core.handle.digest:
            return False
        self.core.swap(handle)
        self.reloads += 1
        return True

    # -- connection handling -------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        buffer = b""
        framing_lost = False
        try:
            while not framing_lost:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                buffer = (buffer + chunk) if buffer else chunk
                while True:
                    header_end = buffer.find(b"\r\n\r\n")
                    if header_end < 0:
                        break
                    header = buffer[:header_end]
                    length = 0
                    lowered = header.lower()
                    # Only a line named Content-Length frames the body (the
                    # request line comes first, so every header follows a CRLF);
                    # ``X-Content-Length`` frames nothing.
                    marker = lowered.find(b"\r\ncontent-length:")
                    if marker >= 0:
                        value = lowered[marker + 17 :].split(b"\r\n", 1)[0].strip()
                        if not value.isdigit() or len(value) > 18:  # int() raises on ~4300 digits
                            # Where the next request starts is unknowable: answer, then close.
                            self.requests += 1
                            self.errors += 1
                            error = _error_response(400, "bad-request", "malformed Content-Length")
                            conn.fill(conn.reserve(), error)
                            framing_lost = True
                            break
                        length = int(value)
                    total = header_end + 4 + length
                    if len(buffer) < total:
                        break
                    body = buffer[header_end + 4 : total]
                    buffer = buffer[total:]
                    request_line = header.split(b"\r\n", 1)[0]
                    self._route(request_line, body, conn)
                await writer.drain()
            # EOF (or lost framing): let in-flight batched responses finish before closing.
            while conn.slots:
                self.batcher.flush()
                if conn.slots:
                    await asyncio.sleep(0)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            conn.closed = True
            conn.slots.clear()
            # transport.close() flushes buffered writes before closing; not
            # awaiting wait_closed keeps server shutdown cancellation quiet.
            try:
                writer.close()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- routing (fully synchronous: responses land in ordered slots) -------------------
    def _route(self, request_line: bytes, body: bytes, conn: _Connection) -> None:
        self.requests += 1
        slot = conn.reserve()
        try:
            method, target = request_line.split(b" ", 2)[:2]
        except ValueError:
            self.errors += 1
            conn.fill(slot, _error_response(400, "bad-request", "malformed request line"))
            return
        route = self._ROUTES.get(target)
        if route is None:
            self.errors += 1
            conn.fill(
                slot, _error_response(404, "not-found", f"no route {target.decode(errors='replace')}")
            )
            return
        allowed, handler = route
        if method != allowed:
            self.errors += 1
            conn.fill(
                slot,
                _error_response(405, "method-not-allowed", f"{allowed.decode()} {target.decode()}"),
            )
            return
        handler(self, body, conn, slot)

    def _route_stats(self, body: bytes, conn: _Connection, slot: list) -> None:
        conn.fill(slot, _json_response(200, self.stats()))

    def _route_healthz(self, body: bytes, conn: _Connection, slot: list) -> None:
        conn.fill(slot, _json_response(200, {"status": "ok", "models_digest": self.core.handle.digest}))

    def _route_reload(self, body: bytes, conn: _Connection, slot: list) -> None:
        reloaded = self.maybe_reload()
        conn.fill(
            slot, _json_response(200, {"reloaded": reloaded, "models_digest": self.core.handle.digest})
        )

    def _route_predict(self, body: bytes, conn: _Connection, slot: list) -> None:
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError, RecursionError):  # nested past the decoder's limit
            self.errors += 1
            conn.fill(slot, _error_response(400, "bad-request", "body is not valid JSON"))
            return
        sigmas = None
        if isinstance(payload, dict) and "configs" in payload:
            configs = payload["configs"]
            sigmas = payload.get("sigmas")
        elif isinstance(payload, dict):
            configs = [payload]
        else:
            configs = payload
        if not isinstance(configs, list) or not configs:
            self.errors += 1
            conn.fill(
                slot,
                _error_response(400, "bad-request", "body must hold at least one configuration"),
            )
            return
        try:
            canon = [canonical_config(config) for config in configs]
            if sigmas is not None:
                sigmas = float(sigmas)
        except ServingError as error:
            self.errors += 1
            conn.fill(slot, _json_response(400, error.payload()))
            return
        except (TypeError, ValueError):
            self.errors += 1
            conn.fill(slot, _error_response(400, "bad-request", "sigmas must be a number"))
            return

        def on_result(results: list[tuple], meta: dict) -> None:
            # Fixed-order templates; byte-equal to json.dumps(sort_keys=True,
            # separators=(",", ":")) of the same payload (pinned by a test).
            rows = ",".join(
                f'{{"lower":{result[1]!r},"residual_std":{result[3]!r},'
                f'"seconds":{result[0]!r},"upper":{result[2]!r}}}'
                for result in results
            )
            body = (
                f'{{"generation":{meta["generation"]},'
                f'"models_digest":"{meta["models_digest"]}","predictions":[{rows}]}}'
            ).encode()
            conn.fill(slot, _response_bytes(200, body))

        def on_error(error: ServingError, meta: dict) -> None:
            self.errors += 1
            status = {"unknown-model": 404, "internal-error": 500}.get(error.code, 400)
            conn.fill(slot, _json_response(status, error.payload()))

        self.batcher.submit(BatchRequest(canon, sigmas, on_result, on_error))

    #: target -> (the one method it answers, handler); any other method is a 405.
    _ROUTES = {
        b"/predict": (b"POST", _route_predict),
        b"/stats": (b"GET", _route_stats),
        b"/healthz": (b"GET", _route_healthz),
        b"/reload": (b"POST", _route_reload),
    }

    # -- introspection -------------------------------------------------------------------
    def stats(self) -> dict:
        payload = self.core.stats()
        payload["models"]["reloads"] = self.reloads
        payload["models"]["reload_errors"] = self.reload_errors
        payload["batching"] = self.batcher.stats()
        payload["requests"] = {"total": self.requests, "errors": self.errors}
        payload["uptime_s"] = round(time.monotonic() - self.started_at, 3)
        return payload


async def start_server(
    models: str | Path, host: str = "127.0.0.1", port: int = 0, watch: bool = True
) -> PredictionServer:
    """Load ``models.json``, bind, and start serving (port 0 = ephemeral)."""
    server = PredictionServer(ServingCore.from_path(models), host=host, port=port, watch=watch)
    return await server.start()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Micro-batched, cached, hot-reloading prediction server over a models.json.",
    )
    parser.add_argument("--models", required=True, help="models.json written by `report` or ModelSuite.save")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8766, help="0 binds an ephemeral port")
    parser.add_argument("--no-watch", action="store_true", help="disable the hot-reload watcher")
    return parser


async def _serve_forever(args: argparse.Namespace) -> None:
    server = await start_server(args.models, host=args.host, port=args.port, watch=not args.no_watch)
    handle = server.core.handle
    print(
        f"serving http://{server.host}:{server.port} models={handle.path} "
        f"digest={handle.digest[:12]} max_batch={batching.MAX_BATCH} "
        f"max_delay_us={batching.MAX_DELAY_US}",
        flush=True,
    )
    try:
        await asyncio.Event().wait()
    finally:
        await server.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(_serve_forever(args))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0
