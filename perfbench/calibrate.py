"""The host-speed calibration that the timed figures are scaled by.

The host's CPU speed is not steady: on a shared virtual machine it moves
between states up to 1.8x apart, each lasting from under a second to
minutes, so two runs of the same code can differ by more than any useful
bound.  ``leg.py`` therefore runs a fixed pure-Python loop — the
benchmark's own code, never the program's, touching only the cached
small integers so that it allocates nothing and the garbage collector
never runs inside it — :data:`RUNS` times right
before and right after every block of measured work (the compile leg
also around every ladder compile), and that work's seconds are
multiplied by :func:`factor` of those runs: :data:`REFERENCE_S` divided
by their median.  The figures are then seconds on a host running the
loop in :data:`REFERENCE_S`; a change of the program moves them, a
change of the host's speed does not.

This module imports nothing but ``time``, so ``leg.py`` can calibrate
before its set-up clock starts without loading any module early.
"""

from time import perf_counter

#: runs of the loop on each side of a piece of timed work
RUNS = 3
#: the reference speed: about the loop's time, in seconds, on a 2-core
#: Intel Xeon virtual machine running CPython 3.11 in its fast state
REFERENCE_S = 1.0e-3

_TABLE = list(range(256))
#: the loop's input: small integers only, so the loop allocates nothing
_STEPS = tuple(range(256)) * 64


def loop_seconds() -> float:
    """Seconds one run of the calibration loop takes now."""
    table = _TABLE
    acc = 0
    start = perf_counter()
    for step in _STEPS:
        acc = (acc + step) & 255
        table[step] = table[acc] ^ step
    return perf_counter() - start


def runs() -> list[float]:
    """Seconds of :data:`RUNS` runs of the loop, one after another."""
    return [loop_seconds() for _ in range(RUNS)]


def factor(samples) -> float:
    """:data:`REFERENCE_S` over the median of *samples* (seconds of loop runs)."""
    ordered = sorted(samples)
    middle = len(ordered) // 2
    median = ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    return REFERENCE_S / median
