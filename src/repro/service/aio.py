"""Asyncio streaming front: bounded memory, backpressure, deadlines.

The threaded front (:mod:`repro.service.http`) buffers every request
body, so validating a corpus is bounded by worker memory, and one
handler thread parks per connection.  This front serves the same
endpoints from one event loop per process:

* **Streaming NDJSON** on ``POST /match`` and ``POST /validate``
  (``Content-Type: application/x-ndjson``, request body streamed via
  ``Content-Length`` or chunked transfer encoding): *header object, one
  item per line*; the response is chunked NDJSON — *header object, one
  verdict per item in order, trailer object* (grammar in
  ``docs/service.md``).  Memory is bounded by the micro-batch size times
  the queue depth, never by the corpus.
* **Backpressure** per connection: items are micro-batched
  (:data:`STREAM_BATCH`) onto the shared worker pool through a bounded
  queue (:data:`MAX_PENDING_BATCHES`); when the pool falls behind, the
  reader stops consuming the socket and TCP pushes back on the client.
  Verdict writes go through ``drain()``, so a slow *reader* pauses the
  pipeline instead of buffering it.
* **Deadlines**: ``X-Repro-Deadline-Ms`` bounds a request wall-clock.
  Exceeded before the response starts → a clean ``504``; exceeded
  mid-stream → an ``{"error": ...}`` line (no ``"done"`` trailer) and
  the connection closes, so a client can always distinguish a complete
  stream from a truncated one.
* **CPU stays off the loop**: compiles, matching and document parsing
  all run on the service's worker pool
  (:meth:`~repro.service.core.ValidationService.submit_async`); the loop
  only frames bytes.
* **Auth hook**: pass ``auth_token`` (``Authorization: Bearer ...``) or
  override :meth:`AsyncServiceServer.authorize` for anything richer;
  ``/healthz`` stays open for probes.
* ``GET /snapshot`` streams via zero-copy ``loop.sendfile`` where the
  platform has it, with strong ``ETag``/``Range``/``If-Range`` handling
  shared with the threaded front (:mod:`repro.service.wire`).

Buffered JSON requests (``Content-Type: application/json``, with a
``Content-Length`` or chunked body) are answered with exactly the
threaded front's response shapes: both fronts take their request
semantics from :mod:`repro.service.routes`, which a parity test table
and the property tests pin down.

Runs standalone (``python -m repro.service --front aio``) or as the
worker body of the prefork model (``--processes N --front aio``): each
forked worker runs one event loop accepting on the inherited socket.
"""

from __future__ import annotations

import asyncio
import hmac
import socket

from . import routes, wire
from .aio_frames import (
    COPY_BLOCK as _COPY_BLOCK,
    DEADLINE_HEADER as DEADLINE_HEADER,  # noqa: PLC0414 - re-exported wire constant
    body_lines as _body_lines,
    chunked_frames as _chunked_frames,
    deadline_seconds as _deadline_seconds,
)
from .core import ValidationService
from .prefork import StatsBoard, cluster_payload
from .wire import WireError

#: Items per micro-batch dispatched to the worker pool.  Small enough
#: that verdicts start flowing almost immediately, large enough that the
#: per-batch pool handoff amortizes (the batch kernel's sweet spot).
STREAM_BATCH = 256

#: Pool batches in flight per connection before the reader stops
#: consuming the socket — the backpressure bound.  Peak buffered items
#: per connection is ``STREAM_BATCH * (MAX_PENDING_BATCHES + 2)``
#: regardless of corpus size.
MAX_PENDING_BATCHES = 8

#: Seconds a keep-alive connection may sit idle between requests.
IDLE_TIMEOUT = 75.0

#: The client went away: counted as a disconnect, never answered.
_DISCONNECTS = (ConnectionError, asyncio.IncompleteReadError)

_NDJSON_HEAD = wire.head_bytes(
    200,
    [("Content-Type", "application/x-ndjson; charset=utf-8"), ("Transfer-Encoding", "chunked")],
)


class AsyncServiceServer:
    """One event loop serving the validation service's endpoints.

    Wraps a shared :class:`ValidationService`; CPU-bound work is
    dispatched to its pool, the loop itself only parses frames and moves
    bytes.  ``board``/``slot``/``processes`` attach the prefork fleet
    view to ``GET /stats`` exactly like the threaded worker front.
    """

    def __init__(
        self,
        service: ValidationService,
        snapshot_source: str | None = None,
        auth_token: str | None = None,
        board: StatsBoard | None = None,
        slot: int = 0,
        processes: int = 1,
        stream_batch: int = STREAM_BATCH,
        max_pending: int = MAX_PENDING_BATCHES,
        idle_timeout: float = IDLE_TIMEOUT,
    ):
        self.service = service
        self.snapshot_source = snapshot_source
        self.auth_token = auth_token
        self.board = board
        self.slot = slot
        self.processes = processes
        self.stream_batch = max(1, stream_batch)
        self.max_pending = max(1, max_pending)
        self.idle_timeout = idle_timeout
        #: front telemetry, merged into ``GET /stats`` under ``"aio"``
        self.connections = 0
        self.streams = 0
        self.deadline_hits = 0
        self.disconnects = 0
        self.sendfile_sends = 0
        self._server: asyncio.Server | None = None

    # -- lifecycle ----------------------------------------------------------------------
    async def start(
        self,
        host: str | None = None,
        port: int | None = None,
        sock: socket.socket | None = None,
    ) -> asyncio.Server:
        """Bind (or adopt *sock*) and start accepting; returns the server."""
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock, limit=wire.MAX_HEAD_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port, limit=wire.MAX_HEAD_BYTES
            )
        return self._server

    def address(self) -> tuple[str, int]:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- auth hook ----------------------------------------------------------------------
    def authorize(self, head: wire.RequestHead) -> bool:
        """The per-request auth hook; override for anything beyond Bearer.

        The default accepts everything when no token is configured, and
        requires ``Authorization: Bearer <token>`` (constant-time
        comparison) otherwise.  ``/`` and ``/healthz`` bypass this so
        liveness probes never need credentials.
        """
        if self.auth_token is None:
            return True
        scheme, _, token = head.headers.get("authorization", "").partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            token.strip(), self.auth_token
        )

    def stats_payload(self) -> dict:
        stats = self.service.stats()
        stats["aio"] = {
            "connections": self.connections,
            "streams": self.streams,
            "deadline_hits": self.deadline_hits,
            "disconnects": self.disconnects,
            "sendfile_sends": self.sendfile_sends,
            "stream_batch": self.stream_batch,
            "max_pending_batches": self.max_pending,
        }
        if self.board is not None:
            stats["cluster"] = cluster_payload(self.board, self.processes)
        return stats

    # -- connection loop ----------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                try:
                    async with asyncio.timeout(self.idle_timeout):
                        raw = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, TimeoutError):
                    break  # clean EOF between requests, or idle too long
                except asyncio.LimitOverrunError:
                    await self._send_error(writer, WireError(431, "request head too large"))
                    break
                if not await self._serve(raw[:-4], reader, writer):
                    break
        except _DISCONNECTS:
            self.disconnects += 1
        except asyncio.CancelledError:
            pass  # server shutdown mid-request: drop the connection quietly
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve(
        self, raw: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; returns whether the connection survives.

        An error before the request body is consumed closes the
        connection (the next request's position is unknown); one after
        it is answered on a connection that stays open.  Disconnects
        propagate to the connection loop.
        """
        consumed = False
        snapshot = None
        try:
            head = wire.parse_request_head(raw)
            if head.path not in routes.OPEN_PATHS and not self.authorize(head):
                raise WireError(
                    401, "missing or invalid bearer token", (("WWW-Authenticate", "Bearer"),)
                )
            if head.method not in ("GET", "POST"):
                raise WireError(405, f"method {head.method} not allowed")
            if head.method == "POST":
                if head.path not in routes.POST_ROUTES:
                    raise routes.not_found(head.path)
                if head.wants_ndjson():
                    return await self._handle_stream(head, reader, writer)
            data = await self._read_body(head, reader)
            consumed = True
            if head.method == "POST":
                body = await self._post(head, data)
            elif head.path == "/snapshot":
                # open()/fstat() touch the filesystem — off the loop.
                snapshot = await asyncio.get_running_loop().run_in_executor(
                    None, routes.open_snapshot, self.snapshot_source, head
                )
            else:
                body = routes.get_body(head.path, self.stats_payload)
        except _DISCONNECTS:
            raise
        except Exception as error:  # noqa: BLE001 - classify() frames every failure
            if isinstance(error, TimeoutError):
                self.deadline_hits += 1
            await self._send_error(writer, error, close=not consumed)
            return consumed and head.keep_alive()
        if snapshot is not None:
            await self._send_snapshot(writer, *snapshot)
        else:
            await self._send_json(writer, 200, body)
        return head.keep_alive()

    async def _read_body(self, head: wire.RequestHead, reader: asyncio.StreamReader) -> bytes:
        """The whole request body, never more than ``MAX_BODY_BYTES``.

        A ``POST`` needs a ``Content-Length`` or chunked body.  A (rare)
        ``GET`` body is read and dropped, or the next ``readuntil`` on a
        reused connection would parse body bytes as a request head.
        """
        if head.is_chunked():
            body = bytearray()
            async for piece in _chunked_frames(reader):
                body += piece
                routes.check_body_size(len(body))
            return bytes(body)
        if head.method == "POST":
            return await reader.readexactly(routes.body_length(head))
        length = head.content_length() or 0
        routes.check_body_size(length)
        return await reader.readexactly(length)

    async def _post(self, head: wire.RequestHead, data: bytes) -> dict:
        """A buffered ``POST``: prepare and run on the pool, under the deadline."""
        payload = routes.parse_body(data)
        async with asyncio.timeout(_deadline_seconds(head)):
            job = await self.service.submit_async(routes.prepare, self.service, head, payload)
            return job.body(await job.run_async(self.service))

    # -- response plumbing --------------------------------------------------------------
    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict, headers=(), close=False
    ) -> None:
        if close:
            headers = (*headers, ("Connection", "close"))
        writer.write(wire.json_response(status, payload, headers))
        await writer.drain()

    async def _send_error(
        self, writer: asyncio.StreamWriter, error: Exception, close: bool = True
    ) -> None:
        error = routes.classify(error)
        await self._send_json(writer, error.status, {"error": str(error)}, error.headers, close)

    # -- the streaming pipeline ---------------------------------------------------------
    async def _handle_stream(
        self, head: wire.RequestHead, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """One NDJSON stream: header line, items, verdicts, trailer.

        Errors before the response head goes out are ordinary statuses;
        after it, an in-stream ``{"error": ...}`` line with no ``"done"``
        trailer.  Either way the connection closes.  The ``requests``
        counters see the whole stream as *one* request.
        """
        self.streams += 1
        started = False
        with self.service.track_request():
            try:
                async with asyncio.timeout(_deadline_seconds(head)):
                    lines = _body_lines(reader, head)
                    header = routes.parse_stream_header(await anext(lines, None))
                    job = await self.service.submit_async(
                        routes.prepare, self.service, head, header, True
                    )
                    # Response head + header line go out before the first
                    # verdict: from here on, errors surface *in-stream*.
                    started = True
                    writer.write(_NDJSON_HEAD + wire.chunk(wire.ndjson_line(job.header())))
                    await writer.drain()
                    await self._pump(job, lines, writer)
            except _DISCONNECTS:
                raise
            except Exception as error:  # noqa: BLE001 - classify() frames every failure
                if isinstance(error, TimeoutError):
                    self.deadline_hits += 1
                if not started:
                    await self._send_error(writer, error)
                else:
                    await self._finish_stream_error(writer, str(routes.classify(error)))
                return False
        return head.keep_alive()

    async def _pump(self, job, lines, writer: asyncio.StreamWriter) -> None:
        """Items in, verdicts out, in order, under bounded memory.

        Items are parsed line by line, batched into :attr:`stream_batch`
        pool submissions through a queue of :attr:`max_pending` — when
        the pool lags, ``queue.put`` blocks the reader and TCP
        backpressure reaches the client.  Verdicts are written in order
        through ``drain()``.
        """
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.max_pending)

        async def produce() -> None:
            # The future in hand between submit() and a successful
            # queue.put(): if the put is cancelled (disconnect, deadline),
            # the batch would otherwise run to completion unobserved.
            in_hand: asyncio.Future | None = None
            try:
                batch: list = []
                async for line in lines:
                    if not line.strip():
                        continue
                    batch.append(job.parse_item(line))
                    if len(batch) >= self.stream_batch:
                        in_hand = asyncio.wrap_future(self.service.submit(job.work, batch))
                        await queue.put(in_hand)
                        in_hand = None
                        batch = []
                if batch:
                    in_hand = asyncio.wrap_future(self.service.submit(job.work, batch))
                    await queue.put(in_hand)
                    in_hand = None
                await queue.put(None)
            except asyncio.CancelledError:
                if in_hand is not None:
                    in_hand.cancel()
                raise
            except BaseException as error:  # noqa: BLE001 - relayed to the writer loop
                await queue.put(error)

        producer = asyncio.create_task(produce())
        total = 0
        try:
            while True:
                entry = await queue.get()
                if entry is None:
                    break
                if isinstance(entry, BaseException):
                    raise entry
                for verdict in await entry:
                    writer.write(wire.chunk(wire.ndjson_line(job.shape(verdict))))
                    total += 1
                await writer.drain()
            writer.write(wire.chunk(wire.ndjson_line({"count": total, "done": True})))
            writer.write(wire.CHUNK_END)
            await writer.drain()
        finally:
            # Disconnect, deadline or failure: stop producing and drop
            # queued pool work, keeping the server healthy for others.
            producer.cancel()
            while not queue.empty():
                leftover = queue.get_nowait()
                if isinstance(leftover, asyncio.Future):
                    leftover.cancel()

    async def _finish_stream_error(self, writer: asyncio.StreamWriter, message: str) -> None:
        """Terminate a started stream: error line, end chunk, no trailer."""
        try:
            writer.write(wire.chunk(wire.ndjson_line({"error": message})))
            writer.write(wire.CHUNK_END)
            await writer.drain()
        except ConnectionError:
            pass

    # -- GET /snapshot ------------------------------------------------------------------
    async def _send_snapshot(
        self, writer: asyncio.StreamWriter, handle, status: int, headers: list, offset, length
    ) -> None:
        with handle:
            writer.write(wire.head_bytes(status, headers))
            await writer.drain()
            await self._send_file(writer, handle, offset, length)

    async def _send_file(
        self, writer: asyncio.StreamWriter, handle, offset: int, length: int
    ) -> None:
        """Zero-copy sendfile when the platform has it; else a read loop.

        The open descriptor pins one complete snapshot generation (the
        refresher replaces the *directory entry*, never bytes under an
        open fd), so a concurrent refresh can never tear this download.
        """
        if length == 0:
            return
        loop = asyncio.get_running_loop()
        transport = writer.transport
        try:
            await loop.sendfile(transport, handle, offset, length, fallback=False)
            self.sendfile_sends += 1
            return
        except (NotImplementedError, RuntimeError, AttributeError):
            pass  # SSL transport, exotic platform, or sendfile-less loop
        # Fallback copy loop: the reads are disk I/O that would stall
        # every other connection if run on the loop (a large snapshot
        # over TLS would freeze the server), so they go to the executor.
        handle.seek(offset)
        remaining = length
        while remaining > 0:
            block = await loop.run_in_executor(
                None, handle.read, min(_COPY_BLOCK, remaining)
            )
            if not block:
                break
            writer.write(block)
            remaining -= len(block)
            await writer.drain()
