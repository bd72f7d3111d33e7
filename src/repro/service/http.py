"""Stdlib-only HTTP front end for the validation service.

``ThreadingHTTPServer`` gives one handler thread per connection; handlers
delegate to a shared :class:`~repro.service.core.ValidationService`, whose
worker pool and warm caches do the actual matching.  No third-party web
framework is involved — the deployment story is ``python -m repro.service``
behind any reverse proxy.

Endpoints (JSON in, JSON out; shapes documented in ``docs/service.md``):

``POST /match``
    ``{"pattern": "(ab)*", "words": ["abab", ...], "dialect": "paper"}``
    → ``{"verdicts": [true, ...], "strategy": ..., "batch_path": ...}``.
    Non-deterministic patterns are a *422* with the conflict explanation —
    determinism is a property of the input, not a server fault.  The
    negotiated ``detail`` level (``?detail=``, ``X-Repro-Detail``, or the
    ``Accept`` parameter; default ``verdict``) upgrades the booleans to
    the :func:`~repro.service.wire.shape_match` diagnosis shapes —
    failing index, expected-next set, repair hints.

``POST /validate``
    ``{"dtd": "<!ELEMENT ...>", "documents": ["<a>...</a>", ...]}`` or
    ``{"xsd": {"root": ..., "elements": {...}}, "documents": [...]}``
    → ``{"verdicts": [{"valid": ..., "violations": [...]}, ...]}``.
    ``detail`` negotiates the violation shape (default ``full``:
    structured objects with element path, child index, expected tags).

``GET /stats``
    The service's consistent telemetry snapshot (request counters with
    p50/p99, compile-cache stats, per-pattern runtime stats, per-schema
    validator stats, shared dense-row count, batch-kernel telemetry,
    snapshot telemetry).

``GET /snapshot``
    Streams the server's current warm-state snapshot file (format v2,
    ``docs/snapshot.md``) as ``application/octet-stream``, so a fresh
    host can bootstrap from a running fleet:
    ``repro.load_snapshot("http://host:port/snapshot")`` or
    ``python -m repro.service --snapshot-url ...``.  404 until the
    server has a snapshot to serve (``--snapshot-save`` once the
    refresher has persisted, or the ``--snapshot`` file it booted from).

``GET /healthz``
    Liveness probe: ``{"status": "ok"}``.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import routes, wire
from .core import DEFAULT_WORKERS, ValidationService
from .routes import MAX_BODY_BYTES as MAX_BODY_BYTES  # noqa: PLC0414 - historical import path

#: Default bind address of ``python -m repro.service``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8421


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ValidationService`.

    Pass an existing service to share its pool and memos; otherwise one is
    created (and closed again by :meth:`server_close`).
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: ValidationService | None = None,
        snapshot_source: str | None = None,
    ):
        super().__init__(address, ServiceRequestHandler)
        self.service = service if service is not None else ValidationService()
        self._owns_service = service is None
        #: path of the snapshot file ``GET /snapshot`` streams (the live
        #: ``--snapshot-save`` file, falling back to the file the server
        #: booted from); ``None`` disables the endpoint (404).
        self.snapshot_source = snapshot_source

    def server_close(self) -> None:  # noqa: D102 - stdlib override
        super().server_close()
        if self._owns_service:
            self.service.close()

    def stats_payload(self) -> dict:
        """The ``GET /stats`` body; the prefork front overrides this to
        merge the whole fleet's shared-memory stats into the response."""
        return self.service.stats()


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Socket I/O for the threaded front; :mod:`~repro.service.routes`
    decides what every request means."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    # The default handler prints one line per request to stderr; a busy
    # service would drown real diagnostics, so access logging is off.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    @property
    def service(self) -> ValidationService:
        return self.server.service

    # -- plumbing -----------------------------------------------------------------------
    def _head(self) -> wire.RequestHead:
        headers = {name.lower(): value for name, value in self.headers.items()}
        return wire.make_head(self.command, self.path, self.request_version, headers)

    def _stamp(self) -> list[tuple[str, str]]:
        return [("Server", self.version_string()), ("Date", self.date_time_string())]

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        extra = [*self._stamp(), *headers]
        if self.close_connection:
            # Error paths that could not consume the request body set this;
            # advertise the close instead of silently dropping the socket.
            extra.append(("Connection", "close"))
        # One write for head and body (see wire.json_response).
        self.wfile.write(wire.json_response(status, payload, extra))

    def _attempt(self, answer):
        """``answer()``, or ``None`` once the error it raised has been answered."""
        try:
            return answer()
        except ConnectionError:
            self.close_connection = True  # the client is gone: nothing to frame
        except Exception as error:  # noqa: BLE001 - classify() frames every failure
            error = routes.classify(error)
            self._send_json(error.status, {"error": str(error)}, error.headers)
        return None

    # -- routes -------------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        head = self._head()
        if head.path == "/snapshot":
            source = self.server.snapshot_source
            snapshot = self._attempt(lambda: routes.open_snapshot(source, head))
            if snapshot is not None:
                self._send_snapshot(*snapshot)
            return
        body = self._attempt(lambda: routes.get_body(head.path, self.server.stats_payload))
        if body is not None:
            self._send_json(200, body)

    def _send_snapshot(self, handle, status: int, headers: list, offset: int, length: int) -> None:
        """Stream the snapshot file (the fleet-bootstrap endpoint).

        Strong ``ETag``, single ranges and ``If-Range`` as decided by
        :func:`~repro.service.wire.snapshot_reply`, so a bootstrapping
        host can resume an interrupted download without ever splicing
        two snapshot generations together.
        """
        with handle:
            self.wfile.write(wire.head_bytes(status, [*self._stamp(), *headers]))
            handle.seek(offset)
            remaining = length
            while remaining > 0:
                block = handle.read(min(64 * 1024, remaining))
                if not block:
                    break
                self.wfile.write(block)
                remaining -= len(block)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        body = self._attempt(self._post)
        if body is not None:
            self._send_json(200, body)

    def _post(self) -> dict:
        head = self._head()
        if head.path not in routes.POST_ROUTES:
            self.close_connection = True  # body unread: keep-alive would desync
            raise routes.not_found(head.path)
        try:
            length = routes.body_length(head)
        except wire.WireError:
            self.close_connection = True  # unknown or refused body: cannot resync
            raise
        payload = routes.parse_body(self.rfile.read(length))
        job = routes.prepare(self.service, head, payload)
        return job.body(job.run(self.service))


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = DEFAULT_WORKERS,
    snapshot_source: str | None = None,
    refresher=None,
    autosizer=None,
) -> None:
    """Run the service until interrupted (the ``python -m repro.service`` body).

    *snapshot_source* enables ``GET /snapshot`` (streaming that file);
    *refresher* is an optional started/stopped object (a
    :class:`~repro.service.prefork.SnapshotRefresher`) re-persisting the
    snapshot in the background while the server runs; *autosizer* (a
    :class:`~repro.service.autosize.Autosizer`) runs the telemetry-driven
    cache-sizing loop alongside the server.
    """
    service = ValidationService(workers=workers)
    server = ServiceHTTPServer((host, port), service, snapshot_source=snapshot_source)
    bound_host, bound_port = server.server_address[:2]
    if refresher is not None:
        refresher.start()
    if autosizer is not None:
        service.autosizer = autosizer
        autosizer.start()
    # flush so a supervisor (or the CI smoke step) redirecting stdout can
    # read the ephemeral port back before the first request arrives
    print(
        f"repro.service listening on http://{bound_host}:{bound_port} "
        f"({workers} workers) — POST /match, POST /validate, GET /stats, GET /snapshot",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if refresher is not None:
            refresher.stop()
        if autosizer is not None:
            autosizer.stop()
        server.server_close()
        service.close()
