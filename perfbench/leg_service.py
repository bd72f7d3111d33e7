"""service leg: ``python -m repro.service`` driven by an open-loop client.

The server runs as a subprocess (``--port 0 --workers <nproc>``; traced
runs use :mod:`serve_traced` instead).  This process is the only client:
``nproc`` keep-alive connections, each on its own thread with its own
constant-rate share of the schedule, so a slow reply delays that
connection's later requests instead of slowing the schedule (open
loop).  Every latency is measured from the request's due time; how late
the sender ran is reported too.

Traffic mix (seeded): warm ``/match`` batches over a small set of CHARE
patterns, ``/validate`` with DTD and XSD documents, never-seen patterns
that compile and write to the cache beside the warm reads, and
non-deterministic patterns whose correct answer is a 422.  One phase
runs at :data:`BASE_RATE` (``http_p50_ms``, ``http_tail_ms``); then a
ladder of tripling rates runs until a rung misses :data:`LIMIT_MS` on
its p90 or leaves a backlog; ``http_max_rps`` is the rate of the highest
rung (the base phase included) that met both.  The leg is one block.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter

import common
import inputs

#: One client connection per CPU this process may run on (``nproc``).
CONNECTIONS = len(os.sched_getaffinity(0))
#: The base phase is the ladder's first rung, run longer; its latencies
#: give ``http_p50_ms`` and ``http_tail_ms``.  Each connection sees one
#: request every 1 / PER_CONNECTION_RATE s at the base rate, whatever the
#: connection count; rungs grow threefold from there.
PER_CONNECTION_RATE = 15.0
BASE_RATE = PER_CONNECTION_RATE * CONNECTIONS
LADDER = tuple(BASE_RATE * 3**step for step in range(1, 5))
#: a rung passes when its p90 latency (from due time) stays within this ...
LIMIT_MS = 250.0
LIMIT_PERCENTILE = 90.0
#: ... and at most this share of its requests were still unsent when it ended
BACKLOG_SHARE = 0.02
#: (base phase seconds, rung seconds, rungs at most); the base phase holds
#: enough requests (105 with nproc = 2) for a p90 tail
DURATIONS = {
    "full": (3.5, 1.0, len(LADDER)),
    "smoke": (0.5, 0.3, 1),
}
#: Requests each connection sends back to back right before the base
#: phase, whose schedule then starts without an idle gap.  A keep-alive
#: connection under steady traffic is either in the delayed-ACK state
#: (every reply waits ~40 ms) or not, and keeps whichever it is in; the
#: preroll puts every connection in the state steady traffic leads to.
PREROLL = 4
MIX = (("match", 0.84), ("validate", 0.08), ("fresh", 0.05), ("nondet", 0.03))
BOOT_TIMEOUT_S = 60


# -- requests ------------------------------------------------------------------------------


class Traffic:
    """Seeded request bodies with their expected answers."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{seed}:service")
        self.fresh = 0
        rng = self.rng
        ranges = [(1, 1), (0, 1), (0, None), (1, None)]
        self.match_bodies = []
        # Shapes are fixed (kernel-table sizes, hence server memory, do not
        # vary by seed); names, words and the request order are seeded.
        for index in range(8):
            prefix = f"p{rng.randrange(10**6)}f"
            chain = inputs.cycled_chain(prefix, 4 + index, 1 + index % 3, ranges)
            words = inputs.ChainWords(chain, rng, max_repeat=3, distinct=False)
            for _ in range(6):
                batch, labels = inputs.word_batch(words, rng, 48, 0.0)
                self.match_bodies.append(self._match(chain.text(), batch, labels))
        pools = inputs.document_pools()
        self.validate_bodies = []
        for kind in ("dtd", "xsd") * 4:
            docs = [inputs.document(pools, rng, kind, rng.random() < 0.2) for _ in range(4)]
            flags = [not any(seq in pools.product_invalid + pools.order_invalid for seq in seqs)
                     for _, seqs in docs]
            payload = {"documents": [text for text, _ in docs]}
            payload["dtd" if kind == "dtd" else "xsd"] = (
                inputs.CATALOG_DTD if kind == "dtd" else inputs.ORDERS_XSD
            )
            body = json.dumps(payload).encode()
            self.validate_bodies.append(("validate", "/validate", body, (200, flags)))
        self.nondet_bodies = [
            ("nondet", "/match", json.dumps(
                {"pattern": template.format(a="za", b="zb", c="zc"), "dialect": "named",
                 "words": [["za", "zb"]]}).encode(), (422, None))
            for template in inputs.NON_DETERMINISTIC[:3]
        ]

    @staticmethod
    def _match(text: str, words, labels, kind: str = "match"):
        body = json.dumps({"pattern": text, "dialect": "named", "words": words}).encode()
        return (kind, "/match", body, (200, labels))

    def warm(self) -> list:
        """Every warm body: patterns, schemas, rows and kernel tables built.

        Match bodies go twice: the first pass fills rows, the second
        rebuilds each kernel table over the filled rows, so no table is
        rebuilt once measuring starts.
        """
        return self.match_bodies * 2 + self.validate_bodies + self.nondet_bodies

    def next(self):
        rng = self.rng
        roll = rng.random()
        for kind, share in MIX:
            if roll < share:
                break
            roll -= share
        if kind == "match":
            return rng.choice(self.match_bodies)
        if kind == "validate":
            return rng.choice(self.validate_bodies)
        if kind == "nondet":
            return rng.choice(self.nondet_bodies)
        self.fresh += 1
        chain = inputs.cycled_chain(f"q{self.fresh}f", 5, 2, [(1, 1), (0, 1), (0, None)])
        words, labels = inputs.word_batch(
            inputs.ChainWords(chain, rng, max_repeat=3, distinct=False), rng, 16, 0.0
        )
        return self._match(chain.text(), words, labels, kind="fresh")


def check(expected, status: int, body: bytes) -> bool:
    want_status, want = expected
    if status != want_status:
        return False
    if want is None:
        return True
    verdicts = json.loads(body)["verdicts"]
    if verdicts and isinstance(verdicts[0], dict):
        verdicts = [verdict["valid"] for verdict in verdicts]
    return verdicts == want


# -- server process ------------------------------------------------------------------------


def start_server(traced: bool, log_name: str):
    here = os.path.dirname(os.path.abspath(__file__))
    args = ["--port", "0", "--workers", str(CONNECTIONS)]
    spans_out = None
    if traced:
        spans_out = os.path.abspath(common.out_path("spans-server.jsonl"))
        command = [sys.executable, os.path.join(here, "serve_traced.py"), spans_out, "--", *args]
    else:
        command = [sys.executable, "-m", "repro.service", *args]
    # closed by stop_server
    log = open(common.out_path(log_name), "w", encoding="utf-8")  # noqa: SIM115
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log, text=True)
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    ready = selector.select(BOOT_TIMEOUT_S)
    selector.close()
    line = process.stdout.readline() if ready else ""
    if "listening on http://" not in line:
        stop_server({"process": process, "log": log})
        raise RuntimeError(f"service did not start: {line!r}")
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return {"process": process, "log": log, "port": port, "spans_out": spans_out}


def stop_server(server) -> None:
    process = server["process"]
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()
    server["log"].close()


# -- open-loop client ----------------------------------------------------------------------


class Client:
    """``CONNECTIONS`` keep-alive connections, each on its own thread and schedule.

    Request *i* of a phase goes to connection ``i % CONNECTIONS``, so each
    connection sees a constant-rate schedule of its own (as in wrk2); a
    connection still busy when its next request is due sends it late,
    and the latency counts from the due time.
    """

    def __init__(self, port: int):
        self.port = port
        self.queues = [queue.Queue() for _ in range(CONNECTIONS)]
        self.records: list[dict] = []
        self.preroll_failures = 0
        self._lock = threading.Lock()
        self.threads = [
            threading.Thread(target=self._worker, args=(jobs,), daemon=True) for jobs in self.queues
        ]
        for thread in self.threads:
            thread.start()

    def _connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def _send(self, connection, request_id, request):
        """One request on *connection*; returns ``(connection, status, ok)``."""
        _, path, body, expected = request
        try:
            connection.request("POST", path, body, {
                "Content-Type": "application/json", "X-Request-Id": str(request_id)})
            response = connection.getresponse()
            status, payload = response.status, response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            return self._connect(), 0, False
        return connection, status, check(expected, status, payload)

    def _worker(self, jobs: queue.Queue) -> None:
        connection = self._connect()
        anchor = 0.0
        while True:
            job = jobs.get()
            if job is None:
                connection.close()
                return
            if job[0] == "anchor":
                # Preroll requests go back to back; the connection's schedule
                # then starts the moment the last one returns (no idle gap).
                _, planned, preroll = job
                for request in preroll:
                    connection, _, ok = self._send(connection, -1, request)
                    if not ok:
                        with self._lock:
                            self.preroll_failures += 1
                anchor = perf_counter() if preroll else planned
                continue
            request_id, offset, request, done_event = job
            due = anchor + offset
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = perf_counter()
            connection, status, ok = self._send(connection, request_id, request)
            record = {"id": request_id, "kind": request[0], "due": due, "sent": sent,
                      "done": perf_counter(), "ok": ok, "status": status}
            with self._lock:
                self.records.append(record)
            done_event.release()

    def phase(self, requests, rate: float, first_id: int, preroll=()) -> list[dict]:
        """Send *requests* at a constant *rate* per second; returns their records.

        Each connection first sends *preroll* back to back (unrecorded) and
        starts its share of the schedule as soon as those return.
        """
        finished = threading.Semaphore(0)
        start = perf_counter() + 0.02
        count = len(self.queues)
        for index, jobs in enumerate(self.queues):
            jobs.put(("anchor", start + index / rate, list(preroll)))
        for offset, request in enumerate(requests):
            job = (first_id + offset, (offset - offset % count) / rate, request, finished)
            self.queues[offset % count].put(job)
        for _ in requests:
            if not finished.acquire(timeout=120):
                raise RuntimeError("request did not finish within 120 s")
        ids = set(range(first_id, first_id + len(requests)))
        with self._lock:
            return sorted((r for r in self.records if r["id"] in ids), key=lambda r: r["id"])

    def close(self) -> None:
        for jobs in self.queues:
            jobs.put(None)
        for thread in self.threads:
            thread.join(timeout=30)


def _stats(port: int) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", "/stats")
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


# -- leg protocol --------------------------------------------------------------------------


def setup(seed: int, size: str, traced: bool) -> dict:
    with common.UNTIMED:
        traffic = Traffic(seed)
    server = start_server(traced, "server.log")
    client = Client(server["port"])
    for kind, path, body, expected in traffic.warm():  # one at a time: no queueing
        connection = http.client.HTTPConnection("127.0.0.1", server["port"], timeout=60)
        try:
            connection.request("POST", path, body, {"Content-Type": "application/json"})
            response = connection.getresponse()
            if not check(expected, response.status, response.read()):
                raise RuntimeError(f"warm-up {kind} request failed")
        finally:
            connection.close()
    return {"traffic": traffic, "server": server, "client": client, "size": size, "traced": traced}


def blocks(state: dict, budget: float) -> int:
    """One block, whatever *budget* is: the service leg always runs the same phases."""
    return 1


def _late_ms(records) -> list[float]:
    return [(record["sent"] - record["due"]) * 1e3 for record in records]


def _rung(client: Client, traffic: Traffic, rate: float, seconds: float, first_id: int, preroll=()):
    """One constant-rate phase; returns its records and its ladder row."""
    requests = [traffic.next() for _ in range(int(rate * seconds))]
    records = client.phase(requests, rate, first_id, preroll)
    latency = [(r["done"] - r["due"]) * 1e3 if r["ok"] else float("inf") for r in records]
    last_due = max(r["due"] for r in records)
    backlog = sum(1 for r in records if r["sent"] > last_due + 1e-3)
    p90 = common.percentile(latency, LIMIT_PERCENTILE)
    passed = p90 <= LIMIT_MS and backlog <= max(2, BACKLOG_SHARE * len(records))
    achieved = len(records) / (max(r["done"] for r in records) - min(r["due"] for r in records))
    row = {"row": f"ladder.{rate:g}rps", "p90_ms": p90, "backlog": backlog,
           "achieved_rps": achieved, "passed": passed, "requests": len(records)}
    return records, row


def run_block(state: dict, index: int) -> None:
    state["result"] = measure(state)


def finish(state: dict, factors: list) -> dict:
    """The leg's result; HTTP latencies are not scaled (kernel timers dominate them)."""
    return state["result"]


def measure(state: dict) -> dict:
    traffic = state["traffic"]
    client = state["client"]
    server = state["server"]
    base_s, rung_s, rungs = DURATIONS[state["size"]]
    before = _stats(server["port"])["pattern_cache"]
    window_start = perf_counter()
    preroll = traffic.match_bodies[:PREROLL]
    base, row = _rung(client, traffic, BASE_RATE, base_s, 0, preroll)
    window_end = perf_counter()
    after = _stats(server["port"])["pattern_cache"]
    base_latency = [(r["done"] - r["due"]) * 1e3 for r in base]
    rows = [row]
    best = BASE_RATE if row["passed"] else 0.0
    all_records = list(base)
    for rate in LADDER[:rungs] if row["passed"] else ():
        records, row = _rung(client, traffic, rate, rung_s, len(all_records))
        all_records.extend(records)
        rows.append(row)
        if not row["passed"]:
            break
        best = rate
    failures = [
        f"{r['kind']} request {r['id']}: status {r['status']}" for r in all_records if not r["ok"]
    ]
    if client.preroll_failures:
        failures.append(f"{client.preroll_failures} preroll requests failed")
    base_tail = common.tail(base_latency)
    rows.append({
        "row": "http.base",
        "rate_rps": BASE_RATE,
        "p50_ms": round(common.percentile(base_latency, 50.0), 3),
        **{f"tail_{key}": value for key, value in base_tail.items()},
    })
    state["base"] = base
    kinds = {kind: sum(1 for r in all_records if r["kind"] == kind) for kind, _ in MIX}
    server_stats = _stats(server["port"])
    return {
        "metrics": {
            "http_p50_ms": common.percentile(base_latency, 50.0),
            "http_tail_ms": base_tail["value"],
            "http_max_rps": best,
        },
        "peak_rss_mib": common.process_peak_rss_mib(server["process"].pid),
        "ops": len(base),
        "attempted": len(all_records),
        "failures": failures,
        "window": (window_start, window_end),
        "rows": rows,
        "props": {
            "requests_by_kind": kinds,
            "non_deterministic_share": round(kinds["nondet"] / len(all_records), 4),
            "never_seen_share": round(kinds["fresh"] / len(all_records), 4),
            "connections": CONNECTIONS,
            "limit": {"percentile": LIMIT_PERCENTILE, "ms": LIMIT_MS},
            "server_kernel_backend": server_stats["kernel"]["backend"],
        },
        "layers": {
            "cache.hit_ratio": (after["hits"] - before["hits"])
            / max(after["hits"] - before["hits"] + after["misses"] - before["misses"], 1),
            "loadgen.late_ms": common.tail(_late_ms(base))["value"],
        },
    }


def teardown(state: dict) -> None:
    state["client"].close()
    stop_server(state["server"])
    if state["traced"] and "base" in state:
        state["trace_layers"] = server_layers(state)


def server_layers(state: dict) -> dict:
    """Per-request layer figures from the traced server's spans (base phase only)."""
    import spans

    records = state["base"]
    server_spans = spans.load(state["server"]["spans_out"])
    ids = {str(r["id"]) for r in records}
    inside = [span for span in server_spans if span[5] in ids]
    by_request = spans.per_request(inside, {"service.core", "service.pool_wait"})
    core = [by_request.get(str(r["id"]), {}).get("service.core", 0.0) * 1e3 for r in records]
    wait = [by_request.get(str(r["id"]), {}).get("service.pool_wait", 0.0) * 1e3 for r in records]
    overhead = [(r["done"] - r["sent"]) * 1e3 - c for r, c in zip(records, core)]
    layers = spans.layer_self_ms(inside, len(records))
    layers["service.core_ms"] = statistics.median(core)
    layers["service.pool_wait_ms"] = sum(wait) / len(wait)
    layers["service.http_overhead_ms"] = statistics.median(overhead)
    return layers
