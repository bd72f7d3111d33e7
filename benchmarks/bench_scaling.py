"""Scaling slopes of the determinism tests (Theorem 3.5 and Section 3.3).

Theorem 3.5 decides determinism in O(|e|), where the Glushkov test needs
O(σ|e|).  One timing cannot show a bound, so this module times the tests
over doubling sizes and fits the log-log slope of time against the size
of the parse tree:

* :class:`DeterminismChecker` on E1 ``(a1+…+am)*``, m = 256 … 4096, and on
  the CHARE family, 125 … 2000 factors: the slope must be at most 1.15,
  and E1's cost per symbol may change by at most 1.5× from m = 256 to
  m = 4096;
* :class:`NumericDeterminismChecker` on E1, m = 64 … 512: reported, not
  gated.  It materialises the follow sets, which is Θ(m²) on E1, so its
  slope is about 2.

Every size is timed three times, in interleaved rounds, and the minimum
is kept.  One timing repeats the call until it covers as much work as one
call at the largest size, so every size is measured over about the same
stretch of time, and reports the time per call.  Each timing is divided
by the median of a fixed pure-Python loop run three times right before
and three times right after it, so a host that changes speed between
sizes does not bend the slope.  The
module uses its own timer, so the gates hold with pytest-benchmark
timings disabled (the repository default).  Run with ``-s`` to see the
fitted slopes::

    python -m pytest benchmarks/bench_scaling.py -q -s
"""

from __future__ import annotations

import gc
import math
import statistics
import time

from repro.core.determinism import DeterminismChecker
from repro.core.numeric import NumericDeterminismChecker
from repro.regex.generators import mixed_content

from .workloads import chare_tree, mixed_content_tree

E1_SIZES = (256, 512, 1024, 2048, 4096)
CHARE_FACTORS = (125, 250, 500, 1000, 2000)
NUMERIC_E1_SIZES = (64, 128, 256, 512)
ROUNDS = 3
#: slope bound for the stages the paper proves linear
LINEAR_SLOPE = 1.15
#: largest ratio of E1 cost per symbol between the largest and smallest m
E1_PER_SYMBOL_SPREAD = 1.5


def _reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop, the unit of every timing."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i & 7
    return time.perf_counter() - start


def _timed(run, calls: int) -> float:
    """Time per call of *run* over *calls* calls, in reference-loop units.

    The collector is off while timing.
    """
    gc.collect()
    gc.disable()
    try:
        reference = [_reference_loop() for _ in range(3)]
        start = time.perf_counter()
        for _ in range(calls):
            run()
        seconds = (time.perf_counter() - start) / calls
        reference += [_reference_loop() for _ in range(3)]
    finally:
        gc.enable()
    return seconds / statistics.median(reference)


def _best_times(runs, sizes) -> list[float]:
    """The minimum of ``ROUNDS`` interleaved timings of every run.

    ``runs[i]`` processes an input of size ``sizes[i]``; smaller inputs
    are called more often per timing (see the module docstring).
    """
    calls = [max(1, round(max(sizes) / size)) for size in sizes]
    best = [math.inf] * len(runs)
    for _ in range(ROUNDS):
        for i, run in enumerate(runs):
            best[i] = min(best[i], _timed(run, calls[i]))
    return best


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of ``log(time)`` against ``log(size)``."""
    xs = [math.log(size) for size in sizes]
    ys = [math.log(value) for value in times]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return numerator / sum((x - mean_x) ** 2 for x in xs)


def _checker_slope(capsys, label, trees) -> tuple[float, list[float]]:
    """Fit and print the slope of :class:`DeterminismChecker` over *trees*."""
    for tree in trees:
        assert DeterminismChecker(tree).is_deterministic()
    sizes = [len(tree.nodes) for tree in trees]
    times = _best_times(
        [lambda tree=tree: DeterminismChecker(tree).is_deterministic() for tree in trees], sizes
    )
    slope = loglog_slope(sizes, times)
    _report(capsys, label, sizes, times, slope)
    return slope, times


def _report(capsys, label, sizes, times, slope) -> None:
    with capsys.disabled():
        rungs = ", ".join(f"{size} -> {value:.1f}" for size, value in zip(sizes, times))
        print(f"\n{label}: slope {slope:.2f}; |e| -> reference-loop units: {rungs}")


def test_e1_determinism_is_linear(capsys):
    trees = [mixed_content_tree(m) for m in E1_SIZES]
    slope, times = _checker_slope(capsys, "DeterminismChecker E1", trees)
    assert slope <= LINEAR_SLOPE
    per_symbol = [value / m for value, m in zip(times, E1_SIZES)]
    assert per_symbol[-1] <= E1_PER_SYMBOL_SPREAD * per_symbol[0], per_symbol


def test_chare_determinism_is_linear(capsys):
    trees = [chare_tree(factors) for factors in CHARE_FACTORS]
    slope, _times = _checker_slope(capsys, "DeterminismChecker CHARE", trees)
    assert slope <= LINEAR_SLOPE


def test_numeric_e1_slope_is_reported(capsys):
    """Not gated: the counter-aware test still materialises the follow sets."""
    exprs = [mixed_content(m) for m in NUMERIC_E1_SIZES]
    for expr in exprs:
        assert NumericDeterminismChecker(expr).report().deterministic
    sizes = [len(list(expr.iter_nodes())) for expr in exprs]
    times = _best_times([lambda expr=expr: NumericDeterminismChecker(expr) for expr in exprs], sizes)
    _report(capsys, "NumericDeterminismChecker E1", sizes, times, loglog_slope(sizes, times))
