"""Front parity: the threaded and asyncio fronts answer every request alike.

Both fronts take their request semantics from ``repro.service.routes``;
this table pins that down over real sockets.  Every malformed or edge
request goes to a threaded and an aio server, and the two answers must
carry the same status and the same JSON body.  A second group sends a
request that blows up inside the library (a 5,000-alternative union) to
a subprocess server of each front: it must get a framed status, and the
server must keep serving.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service import routes
from repro.service.aio import AsyncServiceServer
from repro.service.core import ValidationService
from repro.service.http import ServiceHTTPServer
from repro.service.wire import WireError

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
PATTERN = "(ab+b(b?)a)*"
DTD_TEXT = "<!ELEMENT a (b, c?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>"
UPA_SCHEMA = {
    "elements": {
        "a": {
            "kind": "sequence",
            "min": 1,
            "max": 1,
            "children": [
                {"kind": "element", "name": "b", "min": 0, "max": 2},
                {"kind": "element", "name": "b", "min": 1, "max": 1},
            ],
        }
    }
}


@pytest.fixture(scope="module")
def fronts():
    """``(threaded port, aio port)``, each front over its own service."""
    threaded_service = ValidationService(workers=2)
    threaded = ServiceHTTPServer(("127.0.0.1", 0), threaded_service)
    threading.Thread(target=threaded.serve_forever, daemon=True).start()

    loop = asyncio.new_event_loop()
    aio_service = ValidationService(workers=2)
    front = AsyncServiceServer(aio_service)
    ready = threading.Event()
    stop: list[asyncio.Event] = []

    async def boot():
        stop.append(asyncio.Event())
        await front.start("127.0.0.1", 0)
        ready.set()
        await stop[0].wait()
        await front.close()

    runner = threading.Thread(target=lambda: loop.run_until_complete(boot()), daemon=True)
    runner.start()
    assert ready.wait(timeout=10)
    try:
        yield threaded.server_address[1], front.address()[1]
    finally:
        threaded.shutdown()
        threaded.server_close()
        loop.call_soon_threadsafe(stop[0].set)
        runner.join(timeout=10)
        loop.close()
        threaded_service.close()
        aio_service.close()


def _exchange(port: int, method: str, target: str, body: bytes | None = None, headers=None):
    """One request on a fresh connection: ``(status, decoded JSON body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        sent = {"Content-Type": "application/json", **(headers or {})}
        connection.request(method, target, body=body, headers=sent)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


#: ``(case id, method, target, body, expected status)``
CASES = [
    ("missing-pattern", "POST", "/match", _json({"words": ["a"]}), 400),
    ("non-string-pattern", "POST", "/match", _json({"pattern": 7, "words": []}), 400),
    ("missing-words", "POST", "/match", _json({"pattern": PATTERN}), 400),
    ("non-list-words", "POST", "/match", _json({"pattern": PATTERN, "words": "ab"}), 400),
    ("bad-word-entry", "POST", "/match", _json({"pattern": PATTERN, "words": ["ab", 7]}), 400),
    ("bad-symbol", "POST", "/match", _json({"pattern": PATTERN, "words": [["a", 3]]}), 400),
    ("syntax-error", "POST", "/match", _json({"pattern": "((", "words": []}), 400),
    ("non-deterministic", "POST", "/match", _json({"pattern": "(a*ba+bb)*", "words": []}), 422),
    ("invalid-json", "POST", "/match", b"{not json", 400),
    ("non-object-json", "POST", "/validate", _json(["a", "b"]), 400),
    (
        "unknown-detail",
        "POST",
        "/match?detail=everything",
        _json({"pattern": PATTERN, "words": []}),
        400,
    ),
    ("missing-documents", "POST", "/validate", _json({"dtd": DTD_TEXT}), 400),
    ("non-string-document", "POST", "/validate", _json({"dtd": DTD_TEXT, "documents": [42]}), 400),
    ("neither-schema", "POST", "/validate", _json({"documents": []}), 400),
    (
        "both-schemas",
        "POST",
        "/validate",
        _json({"dtd": DTD_TEXT, "xsd": {}, "documents": []}),
        400,
    ),
    ("non-string-dtd", "POST", "/validate", _json({"dtd": 1, "documents": []}), 400),
    ("non-object-xsd", "POST", "/validate", _json({"xsd": [], "documents": []}), 400),
    ("upa-violation", "POST", "/validate", _json({"xsd": UPA_SCHEMA, "documents": []}), 422),
    ("malformed-xml", "POST", "/validate", _json({"dtd": DTD_TEXT, "documents": ["<a><b>"]}), 400),
    ("unknown-post-path", "POST", "/nope", _json({}), 404),
    ("unknown-get-path", "GET", "/nope", None, 404),
    ("no-snapshot", "GET", "/snapshot", None, 404),
    ("healthz", "GET", "/healthz", None, 200),
    ("match", "POST", "/match", _json({"pattern": PATTERN, "words": ["abba", "bb", ""]}), 200),
    (
        "match-full-detail",
        "POST",
        "/match?detail=full",
        _json({"pattern": PATTERN, "words": ["abba", "ab"]}),
        200,
    ),
    (
        "validate-summary",
        "POST",
        "/validate?detail=summary",
        _json({"dtd": DTD_TEXT, "documents": ["<a><b/></a>", "<a><c/></a>"]}),
        200,
    ),
]


@pytest.mark.parametrize(
    ("method", "target", "body", "status"),
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_both_fronts_give_the_same_answer(fronts, method, target, body, status):
    threaded_port, aio_port = fronts
    threaded = _exchange(threaded_port, method, target, body)
    aio = _exchange(aio_port, method, target, body)
    assert threaded == aio
    assert threaded[0] == status, threaded


@pytest.mark.parametrize(
    ("error", "status"),
    [
        (WireError(413, "too big"), 413),
        (TimeoutError(), 504),
        (ValueError("bad"), 400),
        (RecursionError("maximum recursion depth exceeded"), 500),
        (RuntimeError("service is closed"), 500),
    ],
)
def test_every_failure_maps_to_a_framed_status(error, status):
    assert routes.classify(error).status == status


def _boot(front: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", "--workers", "2", "--front", front],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,  # a logged RecursionError traceback could fill a pipe
        text=True,
        env=env,
    )
    for line in process.stdout:
        if "listening on http://" in line:
            return process, int(line.split("http://")[1].split(" ")[0].rsplit(":", 1)[1])
    process.kill()
    process.wait(timeout=10)
    raise AssertionError("server exited before printing its address")


@pytest.mark.parametrize("front", ["threaded", "aio"])
def test_a_library_blowup_still_gets_a_framed_status(front):
    """A 5,000-alternative union overflows the recursive parser: the
    client must get a status (not a dropped connection), and the server
    must go on serving.  A subprocess keeps the interpreter-wide side
    effects of the overflow out of the test process."""
    process, port = _boot(front)
    try:
        union = "+".join("ab"[i % 2] + "c" * (i % 7) for i in range(5000))
        status, body = _exchange(port, "POST", "/match", _json({"pattern": union, "words": []}))
        assert status in (200, 400, 413, 422, 500), (status, body)
        if status != 200:
            assert body["error"]
        assert _exchange(port, "GET", "/healthz") == (200, {"status": "ok", "service": "repro"})
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()
