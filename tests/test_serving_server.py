"""The HTTP serving tier: sockets, micro-batching, hot reload, determinism."""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import struct
import threading

import pytest

from repro.modeling.study import StudyConfiguration
from repro.reporting import MODELS_SCHEMA_VERSION, ModelSuite
from repro.serving import batching, core as serving_core, server as serving_server
from repro.serving.batching import BatchRequest, MicroBatcher
from repro.serving.client import ServingClient, read_response, request_bytes
from repro.serving.core import ModelHandle, ServingCore, canonical_config
from repro.serving.server import _Connection, start_server
from repro.study import run_study


def _fit_suite(seed: int) -> ModelSuite:
    config = StudyConfiguration(
        architectures=("gpu1-k40m",),
        techniques=("raytrace", "volume"),
        simulations=("kripke",),
        task_counts=(1, 4),
        samples_per_technique=8,
        compositing_task_counts=(2, 4),
        compositing_pixel_sizes=(32, 48, 64),
        seed=seed,
    )
    return ModelSuite.fit_corpus(run_study(config))


@pytest.fixture(scope="module")
def models_path(tmp_path_factory):
    return _fit_suite(seed=11).save(tmp_path_factory.mktemp("serving-http") / "models.json")


@pytest.fixture
def uncached(monkeypatch):
    """Servers started in this test cache nothing: every answer is computed."""
    monkeypatch.setattr(serving_core, "DEFAULT_CACHE_SIZE", 0)


@contextlib.contextmanager
def _window(max_batch: int, max_delay_us: int):
    """The micro-batching window of the servers started inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batching, "MAX_BATCH", max_batch)
        patch.setattr(batching, "MAX_DELAY_US", max_delay_us)
        yield


CONFIG = {"architecture": "gpu1-k40m", "technique": "raytrace", "num_tasks": 4, "cells_per_task": 80}


def _raytrace_frame_edited(edit):
    """A ``models.json`` text whose ``frame`` fit of CONFIG's slice went through ``edit``."""

    def invalid(payload: dict) -> str:
        [entry] = [
            e for e in payload["models"] if [e["architecture"], e["technique"]] == ["gpu1-k40m", "raytrace"]
        ]
        edit(entry["fits"]["frame"])
        return json.dumps(payload)

    return invalid
VOLUME = {"architecture": "gpu1-k40m", "technique": "volume", "num_tasks": 16}


async def _predict_alone(models_path, config) -> bytes:
    server = await start_server(models_path, watch=False)
    try:
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(request_bytes("POST", "/predict", config))
        await writer.drain()
        status, body = await read_response(reader)
        assert status == 200
        writer.close()
        return body
    finally:
        await server.close()


class TestPredictEndpoint:
    def test_served_bytes_match_core_results_and_canonical_json(self, models_path):
        async def scenario():
            body = await _predict_alone(models_path, CONFIG)
            payload = json.loads(body)
            core = ServingCore.from_path(models_path, cache_size=0)
            (result,) = core.predict_canonical([canonical_config(CONFIG)])
            [row] = payload["predictions"]
            assert row == {
                "seconds": result[0], "lower": result[1],
                "upper": result[2], "residual_std": result[3],
            }
            assert payload["models_digest"] == core.handle.digest
            assert payload["generation"] == 0
            # The hand-built template is byte-equal to canonical compact JSON.
            assert body == json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode()

        asyncio.run(scenario())

    def test_envelope_with_sigmas_and_positional_rows(self, models_path):
        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                client = await ServingClient.connect(server.host, server.port)
                status, payload = await client.predict([CONFIG, VOLUME], sigmas=3.0)
                assert status == 200
                assert len(payload["predictions"]) == 2
                core = ServingCore.from_path(models_path, cache_size=0)
                results = core.predict_canonical(
                    [canonical_config(CONFIG), canonical_config(VOLUME)], sigmas=3.0
                )
                for row, result in zip(payload["predictions"], results):
                    assert row["seconds"] == result[0] and row["upper"] == result[2]
                await client.close()
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_pipelined_requests_share_a_batch_and_bytes_match_solo(self, models_path, uncached):
        """N pipelined requests -> one flush; every body identical to solo serving."""
        configs = [{**VOLUME, "num_tasks": tasks} for tasks in (2, 4, 8, 16)]

        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(b"".join(request_bytes("POST", "/predict", c) for c in configs))
                await writer.drain()
                bodies = []
                for _ in configs:
                    status, body = await read_response(reader)
                    assert status == 200
                    bodies.append(body)
                writer.close()
                histogram = server.batcher.stats()["histogram"]
                return bodies, histogram
            finally:
                await server.close()

        bodies, histogram = asyncio.run(scenario())
        assert histogram == {"4": 1}, "the pipelined run must flush as one batch"
        for config, body in zip(configs, bodies):
            solo = asyncio.run(_predict_alone(models_path, config))
            assert body == solo, "batch composition must not change a single byte"

    def test_no_batching_server_serves_identical_bytes(self, models_path, uncached):
        batched = asyncio.run(_predict_alone(models_path, CONFIG))
        with _window(1, batching.MAX_DELAY_US):
            unbatched = asyncio.run(_predict_alone(models_path, CONFIG))
        assert batched == unbatched

    def test_batch_threshold_flushes_before_the_window(self, models_path):
        """MAX_BATCH=2 with a 10s window: two requests must not wait for the timer."""
        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(
                    request_bytes("POST", "/predict", CONFIG)
                    + request_bytes("POST", "/predict", VOLUME)
                )
                await writer.drain()
                for _ in range(2):
                    status, _ = await asyncio.wait_for(read_response(reader), timeout=5.0)
                    assert status == 200
                writer.close()
            finally:
                await server.close()

        with _window(2, 10_000_000):
            asyncio.run(scenario())

    def test_window_timer_flushes_a_lone_request(self, models_path):
        """A single request under a 20ms window is answered by the timer flush."""
        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(request_bytes("POST", "/predict", CONFIG))
                await writer.drain()
                status, _ = await asyncio.wait_for(read_response(reader), timeout=5.0)
                assert status == 200
                writer.close()
            finally:
                await server.close()

        with _window(1_000_000, 20_000):
            asyncio.run(scenario())


class TestHttpSurface:
    def test_error_statuses(self, models_path):
        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                client = await ServingClient.connect(server.host, server.port)
                status, payload = await client.request("POST", "/predict", {"technique": "nope"})
                assert status == 400 and payload["error"]["code"] == "invalid-configuration"
                status, payload = await client.predict(
                    {"architecture": "missing", "technique": "raytrace"}
                )
                assert status == 404 and payload["error"]["code"] == "unknown-model"
                assert payload["error"]["available"]
                status, payload = await client.request("GET", "/predict")
                assert status == 405
                status, payload = await client.request("GET", "/nothing-here")
                assert status == 404 and payload["error"]["code"] == "not-found"
                status, payload = await client.request("POST", "/predict", [])
                assert status == 400
                # Every route answers one method: a GET must not reload models.json.
                for method, target in (
                    ("GET", "/reload"), ("POST", "/stats"), ("DELETE", "/healthz"), ("PUT", "/predict"),
                ):
                    status, payload = await client.request(method, target)
                    assert status == 405, (method, target)
                    assert payload["error"]["code"] == "method-not-allowed", (method, target)
                await client.close()
                # Hostile numbers (raw bodies: 1e999 parses to inf, NaN to nan) are
                # rejected, and the connection lives on to answer what follows.
                config = json.dumps(CONFIG)
                numbers = (
                    '{"architecture":"gpu1-k40m","technique":"raytrace","num_tasks":1e999}',
                    '{"technique":"compositing","average_active_pixels":NaN,"pixels":4096}',
                    '{"technique":"compositing","average_active_pixels":512.0,"pixels":-1}',
                    '{"architecture":"gpu1-k40m","technique":"raytrace","include_build":"false"}',
                    # Counts from 2**53 up: 10**200 cells used to be served as "inf".
                    '{"architecture":"gpu1-k40m","technique":"raytrace","cells_per_task":1' + "0" * 200 + "}",
                    '{"architecture":"gpu1-k40m","technique":"raytrace","num_tasks":9007199254740992}',
                    # Compositing inputs too: 1e308 active pixels served -3e301 seconds.
                    '{"technique":"compositing","average_active_pixels":1e308,"pixels":4096}',
                    '{"technique":"compositing","average_active_pixels":512.0,"pixels":9007199254740992}',
                    f'{{"configs":[{config}],"sigmas":NaN}}',
                    f'{{"configs":[{config}],"sigmas":1e999}}',
                    f'{{"configs":[{config}],"sigmas":-1}}',
                )
                hostile = [(body, "invalid-configuration") for body in numbers]
                # A body nested past the JSON decoder's recursion limit is not valid
                # JSON either, and must not close the connection unanswered.
                hostile.append(("[" * 100_000, "bad-request"))
                for body, code in hostile:
                    reader, writer = await asyncio.open_connection(server.host, server.port)
                    head = f"POST /predict HTTP/1.1\r\nHost: serving\r\nContent-Length: {len(body)}\r\n\r\n"
                    writer.write((head + body).encode() + request_bytes("POST", "/predict", CONFIG))
                    await writer.drain()
                    status, error = await read_response(reader)
                    assert status == 400, body[:80]
                    assert json.loads(error)["error"]["code"] == code, body[:80]
                    assert await read_response(reader) == (200, solo), body[:80]
                    writer.close()
            finally:
                await server.close()

        solo = asyncio.run(_predict_alone(models_path, CONFIG))
        asyncio.run(scenario())

    @pytest.mark.parametrize("length", ["-47", "abc", pytest.param("9" * 5000, id="5000-digits")])
    def test_a_bad_content_length_is_a_400_and_the_server_lives_on(self, models_path, length):
        # ``-47`` is the negated length of its own header: the parse loop used
        # to consume nothing and spin inside the event loop, ``/healthz``
        # included; the others raised out of the connection callback (empty
        # reply).  The scenario runs on a daemon thread so that a spinning
        # event loop fails this test instead of hanging the suite.
        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(
                    request_bytes("POST", "/predict", CONFIG)
                    + f"POST /predict HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
                )
                await writer.drain()
                assert await read_response(reader) == (200, solo)
                status, error = await read_response(reader)
                assert status == 400 and json.loads(error)["error"]["code"] == "bad-request"
                assert await reader.read() == b"", "the connection is closed: framing is lost"
                writer.close()
                client = await ServingClient.connect(server.host, server.port)
                status, health = await client.request("GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                await client.close()
            finally:
                await server.close()

        solo = asyncio.run(_predict_alone(models_path, CONFIG))
        failures = []

        def run():
            try:
                asyncio.run(scenario())
            except BaseException as error:  # re-raised on the test's thread below
                failures.append(error)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "the server's event loop stopped answering"
        if failures:
            raise failures[0]

    @pytest.mark.parametrize("placement", ["alone", "before-content-length"])
    def test_only_a_content_length_line_frames_the_body(self, models_path, placement):
        # The server used to find ``content-length:`` anywhere in the header
        # block, so ``X-Content-Length: 5`` framed the body: alone it took the
        # next request's first five bytes as its body; placed before the real
        # Content-Length it cut the body short.
        body = json.dumps(CONFIG)
        if placement == "alone":
            first = b"GET /healthz HTTP/1.1\r\nX-Content-Length: 5\r\n\r\n"
        else:
            first = (
                f"POST /predict HTTP/1.1\r\nX-Content-Length: 5\r\n"
                f"Content-Length: {len(body)}\r\n\r\n{body}"
            ).encode()

        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(first + request_bytes("POST", "/predict", CONFIG))
                await writer.drain()
                status, payload = await asyncio.wait_for(read_response(reader), 10.0)
                if placement == "alone":
                    assert status == 200 and json.loads(payload)["status"] == "ok"
                else:
                    assert (status, payload) == (200, solo)
                assert await asyncio.wait_for(read_response(reader), 10.0) == (200, solo)
                writer.close()
            finally:
                await server.close()

        solo = asyncio.run(_predict_alone(models_path, CONFIG))
        asyncio.run(scenario())

    def test_unknown_model_does_not_fail_batch_mates(self, models_path):
        """A bad request inside a pipelined batch answers 404; its mates answer 200."""
        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(
                    request_bytes("POST", "/predict", CONFIG)
                    + request_bytes("POST", "/predict", {"architecture": "x", "technique": "volume"})
                    + request_bytes("POST", "/predict", VOLUME)
                )
                await writer.drain()
                statuses = []
                for _ in range(3):
                    status, _ = await read_response(reader)
                    statuses.append(status)
                writer.close()
                assert statuses == [200, 404, 200]
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_stats_and_healthz(self, models_path):
        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                client = await ServingClient.connect(server.host, server.port)
                await client.predict(CONFIG)
                await client.predict(CONFIG)  # second hit comes from the cache
                stats = await client.stats()
                assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
                assert stats["predictions_served"] == 2
                assert stats["requests"]["total"] == 3  # includes this /stats call
                assert stats["models"]["digest"] == server.core.handle.digest
                assert stats["models"]["schema"] == MODELS_SCHEMA_VERSION
                assert stats["models"]["available"] == [
                    ["gpu1-k40m", "raytrace"], ["gpu1-k40m", "volume"], ["-", "compositing"],
                ]
                assert stats["batching"]["batches"] >= 1
                status, health = await client.request("GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                await client.close()
            finally:
                await server.close()

        asyncio.run(scenario())


class _RecordingWriter:
    def __init__(self) -> None:
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)


class TestWritePath:
    """One ``write`` per connection per event-loop turn, and the seams it owns."""

    def test_a_turns_filled_slots_leave_in_one_write(self):
        async def scenario():
            writer = _RecordingWriter()
            conn = _Connection(writer)
            slots = [conn.reserve() for _ in range(64)]
            for index, slot in enumerate(slots):
                conn.fill(slot, b"response %d;" % index)
            assert writer.writes == [], "a fill only schedules the write"
            await asyncio.sleep(0)
            assert writer.writes == [b"".join(b"response %d;" % index for index in range(64))]
            assert conn.slots == []

        asyncio.run(scenario())

    def test_nothing_is_written_until_the_leading_slot_is_ready(self):
        async def scenario():
            writer = _RecordingWriter()
            conn = _Connection(writer)
            slots = [conn.reserve() for _ in range(4)]
            for index in (3, 1, 2):
                conn.fill(slots[index], b"%d" % index)
            await asyncio.sleep(0)
            assert writer.writes == [] and len(conn.slots) == 4
            conn.fill(slots[0], b"0")
            await asyncio.sleep(0)
            assert writer.writes == [b"0123"] and conn.slots == []

        asyncio.run(scenario())

    def test_a_closed_connection_writes_nothing(self):
        async def scenario():
            writer = _RecordingWriter()
            conn = _Connection(writer)
            conn.fill(conn.reserve(), b"scheduled")
            conn.closed = True  # closed between the fill and its write
            await asyncio.sleep(0)
            conn.fill(conn.reserve(), b"late")
            await asyncio.sleep(0)
            assert writer.writes == [] and conn.slots == []

        asyncio.run(scenario())

    def test_a_reset_client_mid_batch_costs_its_batch_mates_nothing(self, models_path, uncached):
        doomed_configs = [{**VOLUME, "num_tasks": tasks} for tasks in (2, 4, 8, 16)]
        mate_configs = [{**CONFIG, "num_tasks": tasks} for tasks in (1, 2, 4, 8)]

        async def scenario():
            loop = asyncio.get_running_loop()
            raised: list[dict] = []
            loop.set_exception_handler(lambda loop, context: raised.append(context))
            server = await start_server(models_path, watch=False)
            try:
                doomed = socket.create_connection((server.host, server.port))
                doomed.sendall(b"".join(request_bytes("POST", "/predict", c) for c in doomed_configs))
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(b"".join(request_bytes("POST", "/predict", c) for c in mate_configs))
                await writer.drain()
                while server.batcher.stats()["pending"] < len(doomed_configs) + len(mate_configs):
                    await asyncio.sleep(0.001)
                # Linger 0: close() sends RST, and the flush in the same turn
                # schedules a write onto the connection the peer just reset.
                doomed.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                doomed.close()
                server.batcher.flush()
                bodies = []
                for _ in mate_configs:
                    status, body = await asyncio.wait_for(read_response(reader), timeout=5.0)
                    assert status == 200
                    bodies.append(body)
                writer.close()
                assert server.batcher.stats()["histogram"] == {"8": 1}
                client = await ServingClient.connect(server.host, server.port)
                status, health = await client.request("GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                await client.close()
                assert raised == [], "the write onto the reset connection must not raise"
                return bodies
            finally:
                await server.close()

        with _window(1_000_000, 10_000_000):
            bodies = asyncio.run(scenario())
        for config, body in zip(mate_configs, bodies):
            assert body == asyncio.run(_predict_alone(models_path, config))

    def test_a_half_closed_client_receives_every_owed_response_in_order(self, models_path, uncached):
        configs = [{**VOLUME, "num_tasks": tasks} for tasks in (2, 4, 8)]

        async def scenario():
            server = await start_server(models_path, watch=False)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                requests = [request_bytes("POST", "/predict", c) for c in configs]
                # /healthz is answered at once, but its response must wait its turn.
                requests.insert(1, request_bytes("GET", "/healthz"))
                writer.write(b"".join(requests))
                writer.write_eof()
                responses = [
                    await asyncio.wait_for(read_response(reader), timeout=5.0) for _ in requests
                ]
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b"", "closed after"
                writer.close()
                return responses
            finally:
                await server.close()

        # A 10 s window: only the EOF drain can answer within the timeout.
        with _window(1_000_000, 10_000_000):
            responses = asyncio.run(scenario())
        status, health = responses.pop(1)
        assert status == 200 and json.loads(health)["status"] == "ok"
        for config, response in zip(configs, responses):
            assert response == (200, asyncio.run(_predict_alone(models_path, config)))


class TestHotReload:
    def test_reload_swaps_digest_without_dropping_results(self, models_path, tmp_path):
        models = tmp_path / "models.json"
        models.write_bytes(models_path.read_bytes())

        async def scenario():
            server = await start_server(models, watch=False)
            try:
                client = await ServingClient.connect(server.host, server.port)
                _, before = await client.predict(CONFIG)
                _fit_suite(seed=23).save(models)
                reload_payload = await client.reload()
                assert reload_payload["reloaded"] is True
                _, after = await client.predict(CONFIG)
                assert before["models_digest"] != after["models_digest"]
                assert after["generation"] == 1
                assert server.reloads == 1
                # The new suite is a different fit: the same config now
                # predicts different numbers, served without a restart.
                assert before["predictions"] != after["predictions"]
                await client.close()
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_watcher_reloads_on_its_own(self, models_path, tmp_path, monkeypatch):
        models = tmp_path / "models.json"
        models.write_bytes(models_path.read_bytes())
        monkeypatch.setattr(serving_server, "RELOAD_POLL_S", 0.05)

        async def scenario():
            server = await start_server(models)
            try:
                old_digest = server.core.handle.digest
                _fit_suite(seed=29).save(models)
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if server.core.handle.digest != old_digest:
                        break
                assert server.core.handle.digest != old_digest
                assert server.core.handle.generation == 1
            finally:
                await server.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "invalid",
        [
            lambda payload: '{"torn": ',
            lambda payload: "[]",
            lambda payload: "null",
            lambda payload: json.dumps({"schema": MODELS_SCHEMA_VERSION, "models": [1]}),
            _raytrace_frame_edited(lambda fit: fit["coefficients"].append(1e-9)),
            _raytrace_frame_edited(
                lambda fit: fit.update(term_names=["c2_trace", "c3_shade", "c4_intercept"])
            ),
            lambda payload: json.dumps({**payload, "schema": 1}),
            lambda payload: json.dumps({**payload, "seed": float("inf")}),
        ],
        ids=[
            "torn-read", "list", "null", "non-object-entry", "extra-coefficient", "renamed-terms",
            "schema-1", "infinite-seed",
        ],
    )
    def test_invalid_file_keeps_the_old_suite_serving(self, models_path, tmp_path, invalid):
        models = tmp_path / "models.json"
        models.write_bytes(models_path.read_bytes())

        async def scenario():
            server = await start_server(models, watch=False)
            try:
                client = await ServingClient.connect(server.host, server.port)
                old_digest = server.core.handle.digest
                models.write_text(invalid(json.loads(models_path.read_text())))
                # /healthz and /predict pipelined behind the failing /reload are answered too.
                client.writer.write(
                    request_bytes("POST", "/reload")
                    + request_bytes("GET", "/healthz")
                    + request_bytes("POST", "/predict", CONFIG)
                )
                await client.writer.drain()
                status, reload_body = await asyncio.wait_for(read_response(client.reader), timeout=5.0)
                assert status == 200 and json.loads(reload_body)["reloaded"] is False
                status, health = await asyncio.wait_for(read_response(client.reader), timeout=5.0)
                assert status == 200 and json.loads(health)["models_digest"] == old_digest
                status, body = await asyncio.wait_for(read_response(client.reader), timeout=5.0)
                assert status == 200 and json.loads(body)["models_digest"] == old_digest
                assert server.reload_errors == 1
                await client.close()
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_a_failing_merge_answers_every_request_with_an_error(self, models_path, monkeypatch):
        """Any exception of the core call becomes each merged request's error reply."""
        core = ServingCore.from_path(models_path, cache_size=0)

        def broken(*args, **kwargs):
            raise ValueError("got 2 work columns, expected 3")

        monkeypatch.setattr(core, "predict_canonical", broken)
        batcher = MicroBatcher(core)
        errors = []

        async def scenario():
            for config in (CONFIG, VOLUME):
                batcher.submit(BatchRequest(
                    [canonical_config(config)], None, None,
                    lambda error, meta: errors.append((error.code, str(error))),
                ))
            batcher.flush()

        with _window(1_000_000, 10_000_000):
            asyncio.run(scenario())
        assert errors == [("internal-error", "ValueError: got 2 work columns, expected 3")] * 2

    def test_in_flight_batch_is_stamped_with_the_handle_that_served_it(self, models_path):
        """A queued batch captures one handle at flush: no torn reads mid-batch."""
        core = ServingCore.from_path(models_path, cache_size=0)
        batcher = MicroBatcher(core)
        outcomes: list[tuple[tuple, dict]] = []

        async def scenario():
            batcher.submit(BatchRequest(
                [canonical_config(CONFIG)], None,
                lambda results, meta: outcomes.append((results[0], meta)), None,
            ))
            batcher.submit(BatchRequest(
                [canonical_config(VOLUME)], None,
                lambda results, meta: outcomes.append((results[0], meta)), None,
            ))
            # Swap while both requests sit in the pending window.
            swapped = ModelHandle.load(core.handle.path, generation=5)
            core.swap(swapped)
            batcher.flush()

        with _window(1_000_000, 10_000_000):
            asyncio.run(scenario())
        assert len(outcomes) == 2
        generations = {meta["generation"] for _, meta in outcomes}
        assert generations == {5}, "one batch, one handle: every response stamped alike"
