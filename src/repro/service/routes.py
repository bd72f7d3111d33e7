"""Request semantics shared by both serving fronts (no sockets).

The threaded front (:mod:`repro.service.http`) and the asyncio front
(:mod:`repro.service.aio`) differ only in how they move bytes and how
they wait on the worker pool.  What a request *means* lives here, once,
so the two cannot drift apart:

* body bounds and decoding (:func:`body_length`, :func:`check_body_size`,
  :func:`parse_body`, :func:`parse_stream_header`);
* :func:`prepare`: the payload checks, then the pattern compiled and
  found deterministic (a 422 otherwise — Theorem 3.5's verdict) or the
  schema built and its UPA constraint checked (XSD's determinism).  The job it
  returns carries the per-chunk work closure for the negotiated detail
  level, used by the buffered paths and the NDJSON stream alike;
* the response bodies (:meth:`MatchJob.body`, :meth:`MatchJob.header`
  and their :class:`ValidateJob` twins, :func:`get_body`);
* one exception → status map (:func:`classify`), ending in a framed
  500, so no request loses its connection without a status.

Framing (heads, chunks, ranges) stays in :mod:`repro.service.wire`.
"""

from __future__ import annotations

import json
import logging
import os

from .. import api
from ..errors import NotDeterministicError, ReproError
from . import wire
from .core import ValidationService, match_work, text_work
from .wire import WireError

#: Reject request bodies beyond this size (bytes) instead of buffering them.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Paths that answer without credentials (liveness probes).
OPEN_PATHS = ("/", "/healthz")

_log = logging.getLogger(__name__)

#: ``POST`` routes and their default detail level: ``/match`` keeps the
#: historical bare booleans, ``/validate`` full violation detail.
POST_ROUTES = {"/match": "verdict", "/validate": "full"}


def not_found(path: str) -> WireError:
    return WireError(404, f"no such endpoint: {path}")


def classify(error: Exception) -> WireError:
    """The framed reply for an exception raised while serving a request.

    Fronts handle client disconnects and cancellation before calling
    this; everything else gets a status.  A non-deterministic expression
    is a 422 (the input fails the paper's requirement, the server did
    not fail), a library error or malformed value a 400, a blown
    deadline a 504, and anything unforeseen — a ``RecursionError`` on a
    huge expression, a closed service — a 500, still framed, so the
    client learns what happened and the connection stays in sync.  A 500
    also logs its traceback: it is a fault of the server, not the input.
    """
    if isinstance(error, WireError):
        return error
    if isinstance(error, TimeoutError):
        return WireError(504, "deadline exceeded")
    if isinstance(error, NotDeterministicError):
        return WireError(422, str(error))
    if isinstance(error, ReproError):
        return WireError(400, str(error))
    if isinstance(error, (TypeError, ValueError, KeyError)):
        return WireError(400, f"malformed request: {error!r}")
    _log.error("internal error serving a request", exc_info=error)
    return WireError(500, f"internal error: {error!r}")


# ---------------------------------------------------------------------------
# Bodies
# ---------------------------------------------------------------------------

def check_body_size(size: int) -> None:
    """413 once a request body grows past :data:`MAX_BODY_BYTES`."""
    if size > MAX_BODY_BYTES:
        raise WireError(413, f"body exceeds {MAX_BODY_BYTES} bytes")


def body_length(head: wire.RequestHead) -> int:
    """The declared length of a buffered JSON body: 400 if none, 413 if too big."""
    length = head.content_length()
    if not length:
        raise WireError(400, "a JSON body with Content-Length is required")
    check_body_size(length)
    return length


def _load(data: bytes, what: str):
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise WireError(400, f"invalid {what}: {error}") from None


def parse_body(data: bytes) -> dict:
    """A buffered request body as a JSON object."""
    payload = _load(data, "JSON body")
    if not isinstance(payload, dict):
        raise WireError(400, "the JSON body must be an object")
    return payload


def parse_stream_header(line: bytes | None) -> dict:
    """The first line of an NDJSON request stream as a JSON object."""
    if line is None:
        raise WireError(400, "an NDJSON stream starts with a header object line")
    header = _load(line, "stream header")
    if not isinstance(header, dict):
        raise WireError(400, "the stream header must be a JSON object")
    return header


def _check_words(words: list, what: str) -> None:
    for word in words:
        if isinstance(word, str):
            continue
        if isinstance(word, list) and all(isinstance(symbol, str) for symbol in word):
            continue
        raise WireError(400, f"{what} must be strings or lists of symbol strings")


# ---------------------------------------------------------------------------
# GET routes
# ---------------------------------------------------------------------------

def get_body(path: str, stats) -> dict:
    """The JSON body of ``GET path``; *stats* builds the front's ``/stats``."""
    if path == "/stats":
        return stats()
    if path in OPEN_PATHS:
        return {"status": "ok", "service": "repro"}
    raise not_found(path)


def open_snapshot(source: str | None, head: wire.RequestHead) -> tuple:
    """Open the ``GET /snapshot`` file: ``(handle, status, headers, offset, length)``.

    The file is written atomically (temp + ``os.replace``), so the open
    handle pins one *complete* snapshot generation; a concurrent refresh
    replaces the directory entry, never the bytes under the descriptor.
    The range decision is :func:`~repro.service.wire.snapshot_reply`'s.
    Blocking file-system calls: the asyncio front runs this off the loop.
    """
    if not source:
        raise WireError(404, "this server does not serve a snapshot")
    try:
        handle = open(source, "rb")
    except OSError:
        raise WireError(404, "no snapshot has been persisted yet") from None
    try:
        return (handle, *wire.snapshot_reply(os.fstat(handle.fileno()), head.headers))
    except BaseException:
        handle.close()
        raise


# ---------------------------------------------------------------------------
# POST routes: one prepare step for buffered requests and streams
# ---------------------------------------------------------------------------

def prepare(
    service: ValidationService, head: wire.RequestHead, fields: dict, stream: bool = False
) -> "MatchJob | ValidateJob":
    """Check a ``POST`` payload (or NDJSON stream header) and prepare its job.

    Negotiates the detail level, checks every field, then compiles the
    pattern or builds the schema.  CPU work (a cold compile runs the
    determinism test): the asyncio front calls this on the pool.
    """
    detail = wire.negotiate_detail(head.headers, head.query, default=POST_ROUTES[head.path])
    if head.path == "/match":
        return MatchJob(fields, detail, stream)
    return ValidateJob(service, fields, detail, stream)


class MatchJob:
    """A prepared ``POST /match``: a deterministic pattern and its work closure."""

    def __init__(self, fields: dict, detail: str, stream: bool):
        expr = fields.get("pattern")
        if not isinstance(expr, str):
            raise WireError(
                400,
                'the stream header needs a string "pattern" field'
                if stream
                else 'a string "pattern" field is required',
            )
        self.words = None
        if not stream:
            self.words = fields.get("words")
            if not isinstance(self.words, list):
                raise WireError(400, 'a list "words" field is required')
            # Reject malformed entries up front with a clean 400: left to
            # the worker pool, a non-string word surfaces as a repr'd
            # TypeError after a wasted (chunked) fan-out.
            _check_words(self.words, '"words" entries')
        self.expr = expr
        self.detail = detail
        self.dialect = fields.get("dialect", "paper")
        self.pattern = api.compile(expr, dialect=self.dialect)
        if not self.pattern.is_deterministic:
            raise WireError(422, f"pattern is not deterministic: {self.pattern.explain()}")
        self.work = match_work(self.pattern, detail)

    def run(self, service: ValidationService) -> list:
        return service.match_batch(self.expr, self.words, dialect=self.dialect, detail=self.detail)

    async def run_async(self, service: ValidationService) -> list:
        return await service.match_batch_async(
            self.expr, self.words, dialect=self.dialect, detail=self.detail
        )

    @staticmethod
    def parse_item(line: bytes):
        """One stream item: a word (string or symbol list)."""
        word = _load(line, "NDJSON item")
        _check_words([word], "stream items")
        return word

    @staticmethod
    def shape(verdict):
        return verdict  # the work closure already shaped it

    def header(self) -> dict:
        description = self.pattern.describe()
        return {
            "pattern": self.expr,
            "strategy": description.get("strategy"),
            "batch_path": description.get("batch_path"),
            "detail": self.detail,
        }

    def body(self, verdicts: list) -> dict:
        # Described after the run: ``batch_path`` names the plan that executed.
        description = self.pattern.describe()
        return {
            "pattern": self.expr,
            "count": len(verdicts),
            "detail": self.detail,
            "verdicts": verdicts,
            "strategy": description.get("strategy"),
            "batch_path": description.get("batch_path"),
        }


class ValidateJob:
    """A prepared ``POST /validate``: a usable schema and its work closure."""

    def __init__(self, service: ValidationService, fields: dict, detail: str, stream: bool):
        self.documents = None
        if not stream:
            # The documents list must be fully checked *before* any schema
            # is built: validator_for_dtd/schema_for_payload memoize into
            # the MEMO_SIZE-bounded LRU, so a malformed request that got
            # this far could evict a warm validator another client uses.
            self.documents = fields.get("documents")
            if not isinstance(self.documents, list):
                raise WireError(400, 'a list "documents" field (XML text) is required')
            if not all(isinstance(text, str) for text in self.documents):
                raise WireError(400, '"documents" must be a list of XML strings')
        dtd_text = fields.get("dtd")
        xsd_data = fields.get("xsd")
        if (dtd_text is None) == (xsd_data is None):
            raise WireError(400, 'exactly one of "dtd" (text) or "xsd" (object) is required')
        if dtd_text is not None:
            if not isinstance(dtd_text, str):
                raise WireError(400, '"dtd" must be the DTD as a string')
            self.kind = "dtd"
            self.validator = service.validator_for_dtd(dtd_text)
        else:
            if not isinstance(xsd_data, dict):
                raise WireError(400, '"xsd" must be a schema object')
            self.kind = "xsd"
            self.validator = service.schema_for_payload(
                json.dumps(xsd_data, sort_keys=True), xsd_data
            )
            if not self.validator.is_valid_schema():
                raise WireError(
                    422, "schema violates Unique Particle Attribution (non-deterministic)"
                )
        self.detail = detail
        self.work = text_work(self.validator)

    def run(self, service: ValidationService) -> list:
        return service.validate_document_texts(self.validator, self.documents)

    async def run_async(self, service: ValidationService) -> list:
        return await service.validate_document_texts_async(self.validator, self.documents)

    @staticmethod
    def parse_item(line: bytes) -> str:
        """One stream item: an XML document string."""
        text = _load(line, "NDJSON item")
        if not isinstance(text, str):
            raise WireError(400, "stream items must be XML document strings")
        return text

    def shape(self, verdict):
        return wire.shape_verdict(verdict.valid, verdict.details or verdict.violations, self.detail)

    def header(self) -> dict:
        return {"schema": self.kind, "detail": self.detail}

    def body(self, verdicts: list) -> dict:
        return {
            "schema": self.kind,
            "count": len(verdicts),
            "detail": self.detail,
            "verdicts": [self.shape(verdict) for verdict in verdicts],
        }
