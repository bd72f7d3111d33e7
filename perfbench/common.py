"""Helpers shared by the benchmark runner (run.py) and its legs.

Statistics follow one convention throughout: percentiles are nearest
rank over the sorted samples, and a *tail* is the highest percentile of
:data:`TAIL_LADDER` that still has at least :data:`TAIL_BEYOND` samples
strictly beyond it, reported with that percentile and the sample count.
Timed figures of the compile, match and validate legs are taken over all
their samples, each scaled to the reference host speed (see
:mod:`calibrate`); per-sample percentiles of the compile and validate
legs are the median over blocks of each block's percentile or tail
(:func:`block_percentile`, :func:`block_tail`), so a burst of load on the
host that slows the samples of one block moves no figure.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

#: candidate percentiles for a tail, highest first
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: samples a tail percentile must leave beyond itself
TAIL_BEYOND = 10
#: where traces and server logs go, relative to the checkout root
OUT_DIR = ".perfbench"
#: attribute every span wrapper carries (see spans.py)
MARKER = "__perfbench_span__"


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of *samples* (non-empty)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples) -> dict:
    """``{"value", "percentile", "samples"}`` for the tail of *samples*."""
    count = len(samples)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * count))
        if count - rank >= TAIL_BEYOND:
            return {"value": percentile(samples, q), "percentile": q, "samples": count}
    return {"value": max(samples), "percentile": 100.0, "samples": count}


def block_percentile(blocks, q: float) -> float:
    """Median over *blocks* of each block's percentile *q* of its sample seconds."""
    return statistics.median(percentile([s[2] for s in block], q) for block in blocks)


def block_tail(blocks) -> dict:
    """:func:`tail` of each block's sample seconds; the median value, with the
    smallest percentile and block size any block's tail used."""
    tails = [tail([s[2] for s in block]) for block in blocks]
    return {
        "value": statistics.median(t["value"] for t in tails),
        "percentile": min(t["percentile"] for t in tails),
        "samples": min(t["samples"] for t in tails),
        "blocks": len(tails),
    }


def block_count(seconds: float, per_second: float, smoke: bool) -> int:
    """How many blocks of measured work a leg runs: *per_second* per ``--seconds``.

    Fixed work, never time-boxed, so two commits measured on a busy and
    a quiet host still do the same work; a smoke run does one block.
    """
    return 1 if smoke else max(1, round(seconds * per_second))


def scaled(blocks, factors) -> list:
    """*blocks* of ``(key, work, seconds)`` samples, block *i*'s seconds times ``factors[i]``."""
    return [
        [(key, work, seconds * factor) for key, work, seconds in block]
        for block, factor in zip(blocks, factors, strict=True)
    ]


def throughput(samples) -> float:
    """Work per second over *samples* of ``(key, work, seconds)``."""
    return sum(sample[1] for sample in samples) / sum(sample[2] for sample in samples)


def block_speeds(blocks) -> list[float]:
    """Work per second of each block, in run order (for the per-row report)."""
    return [round(throughput(block), 1) for block in blocks]


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of ``log(time)`` against ``log(size)``."""
    xs = [math.log(size) for size in sizes]
    ys = [math.log(value) for value in times]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


class Untimed:
    """Seconds of benchmark-own work (inputs, references) to leave out of ``setup_s``.

    ``with UNTIMED:`` around such work inside a leg's ``setup``; ``leg.py``
    subtracts :attr:`seconds` from the set-up time.
    """

    def __init__(self):
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += perf_counter() - self._start
        return False


UNTIMED = Untimed()


def peak_rss_mib() -> float:
    """This process's peak resident set size, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def emit(payload: dict) -> None:
    """Print *payload* as the final JSON line of standard output."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict:
    """The JSON object on the last non-empty line of *text*."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def wrappers_installed() -> bool:
    """True when any loaded ``repro`` module or class holds a span wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            if hasattr(value, MARKER):
                return True
            if isinstance(value, type) and any(
                hasattr(member, MARKER) for member in vars(value).values()
            ):
                return True
    return False
