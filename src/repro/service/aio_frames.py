"""Byte-level framing for the asyncio front (:mod:`repro.service.aio`).

Everything here is reader-side connection plumbing with no service
semantics: deadline-header parsing, chunked-transfer decoding and
incremental NDJSON line splitting.  The handlers in
:mod:`repro.service.aio` compose these; what each request means lives in
:mod:`repro.service.routes`.

All generators yield bounded pieces: a frame is consumed in
:data:`COPY_BLOCK` blocks and the line splitter buffers at most one
incomplete line (bounded by :data:`repro.service.wire.MAX_LINE_BYTES`),
so memory never scales with the corpus a client streams.
"""

from __future__ import annotations

import asyncio

from . import wire
from .wire import WireError

#: Request wall-clock bound, milliseconds, set per request.
DEADLINE_HEADER = "x-repro-deadline-ms"

#: Bytes per read/sendfile-fallback block on body and snapshot paths.
COPY_BLOCK = 64 * 1024


def deadline_seconds(head: wire.RequestHead) -> float | None:
    """The request deadline from :data:`DEADLINE_HEADER`, in seconds."""
    raw = head.headers.get(DEADLINE_HEADER)
    if raw is None:
        return None
    try:
        ms = float(raw)
    except ValueError:
        raise WireError(400, f"invalid {DEADLINE_HEADER} header: {raw!r}") from None
    if ms <= 0:
        raise WireError(400, f"{DEADLINE_HEADER} must be positive, got {raw!r}")
    return ms / 1000.0


async def chunked_frames(reader: asyncio.StreamReader):
    """Decode chunked transfer encoding: yields raw data pieces.

    A frame is consumed in :data:`COPY_BLOCK` pieces, so one
    absurdly-sized chunk declared by a client never buffers whole —
    the line splitter downstream enforces the real per-item bound.
    """
    while True:
        size = wire.parse_chunk_size(await reader.readline())
        if size == 0:
            # Drain optional trailers up to the terminating blank line.
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            return
        while size > 0:
            piece = await reader.read(min(COPY_BLOCK, size))
            if not piece:
                raise WireError(400, "request body ended inside a chunk")
            size -= len(piece)
            yield piece
        await reader.readexactly(2)  # the CRLF after each chunk


async def body_lines(reader: asyncio.StreamReader, head: wire.RequestHead):
    """Yield the request body's NDJSON lines, incrementally.

    Handles both Content-Length and chunked bodies; buffers at most one
    incomplete line (bounded by :data:`wire.MAX_LINE_BYTES` — 413
    beyond) plus one transfer frame, never the corpus.
    """
    buffer = bytearray()
    if head.is_chunked():
        async for frame in chunked_frames(reader):
            buffer.extend(frame)
            for line in wire.split_lines(buffer):
                yield line
    else:
        remaining = head.content_length()
        if remaining is None:
            raise WireError(411, "streaming requests need Content-Length or chunked TE")
        while remaining > 0:
            data = await reader.read(min(COPY_BLOCK, remaining))
            if not data:
                raise WireError(400, "request body ended before Content-Length")
            remaining -= len(data)
            buffer.extend(data)
            for line in wire.split_lines(buffer):
                yield line
    if buffer:  # final line without a trailing newline
        tail = bytes(buffer)
        yield tail[:-1] if tail.endswith(b"\r") else tail


__all__ = [
    "COPY_BLOCK",
    "DEADLINE_HEADER",
    "body_lines",
    "chunked_frames",
    "deadline_seconds",
]
