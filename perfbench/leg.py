"""Run one benchmark leg in this (fresh) process, one block at a time.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/leg.py --leg compile --seed 1 --budget 6 --focus 1 --size full --trace 0

The leg talks to ``run.py`` over standard input and output, one JSON
line per message.  After set-up it prints ``{"ready": <blocks>}``; each
``block`` line on standard input runs the next block of measured work
and is answered with ``{"done": <index>}``; ``finish`` ends the
measurement, and the leg prints its result as the last line and exits.
``run.py`` interleaves the blocks of several legs, so every leg's
figures sample the whole run rather than one stretch of it.

A leg's set-up time runs from the start of this script — before
``repro`` is imported — to the end of the leg's ``setup``, so import-time
work counts; the benchmark's own input and reference generation inside
``setup`` (wrapped in ``common.UNTIMED``) is subtracted, and the rest
is scaled to the reference host speed (:mod:`calibrate`) by runs of the
calibration loop before the clock starts and after set-up.  The focus
leg takes the median of :data:`SETUP_REPS` such times: ``SETUP_REPS -
1`` fresh processes run with ``--setup-only`` first, then this one.  The
calibration loop also runs right before and right after every block;
``finish`` receives each block's scale factor.  With
``--trace 1`` the span wrappers of :mod:`spans` are installed before
set-up and the per-layer self times of spans inside the measured blocks
are added to the result; with ``--trace 0`` that module is never
imported.

A leg module provides ``setup(seed, size, traced) -> state``,
``blocks(state, budget) -> int``, ``run_block(state, index)``,
``finish(state, factors) -> result`` (``factors[i]`` turns the measured
seconds of block *i* into seconds at the reference speed) and
``teardown(state)``.
"""

from time import perf_counter

import calibrate

BEFORE_SETUP = calibrate.runs()
STARTED = perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import common  # noqa: E402

LEGS = {
    "compile": "leg_compile",
    "match": "leg_match",
    "validate": "leg_validate",
    "service": "leg_service",
}
SETUP_REPS = 3


def setup_seconds(spawning: float = 0.0) -> float:
    """Scaled seconds from the start of this script to now, less untimed work."""
    elapsed = perf_counter() - STARTED - spawning - common.UNTIMED.seconds
    return elapsed * calibrate.factor(BEFORE_SETUP + calibrate.runs())


def fresh_setup_times(argv: list[str], count: int) -> list[float]:
    """Set-up times of *count* fresh processes running this leg ``--setup-only``."""
    times = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, __file__, *argv, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True, stdin=subprocess.DEVNULL,
        )
        times.append(common.last_json_line(child.stdout)["setup_s"])
    return times


def serve_blocks(leg, state, factors: list) -> tuple[float, float]:
    """Run blocks as ``run.py`` asks, appending each block's scale factor to *factors*.

    Returns the first block's start and the last block's end.
    """
    window = [None, None]
    index = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "finish":
            break
        if command != "block":
            raise RuntimeError(f"unknown command {command!r}")
        before = calibrate.runs()
        start = perf_counter()
        leg.run_block(state, index)
        window = [window[0] if window[0] is not None else start, perf_counter()]
        factors.append(calibrate.factor(before + calibrate.runs()))
        common.emit({"done": index})
        index += 1
    return window[0] or perf_counter(), window[1] or perf_counter()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--leg", choices=sorted(LEGS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--focus", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    args = parser.parse_args(argv)

    leg = importlib.import_module(LEGS[args.leg])
    if args.setup_only:
        state = leg.setup(args.seed, args.size, bool(args.trace))
        elapsed = setup_seconds()
        leg.teardown(state)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    setup_times = []
    spawning = perf_counter()
    if args.focus and args.size == "full":
        setup_times = fresh_setup_times(argv, SETUP_REPS - 1)
    spawning = perf_counter() - spawning
    store = None
    if args.trace:
        import spans

        store = spans.SpanStore()
        spans.install(store)
    state = None
    try:
        state = leg.setup(args.seed, args.size, bool(args.trace))
        setup_times.append(setup_seconds(spawning))
        common.emit({"ready": leg.blocks(state, args.budget)})
        factors = []
        window = serve_blocks(leg, state, factors)
        result = leg.finish(state, factors)
        result["host_factor"] = statistics.median(factors)
    except Exception:  # noqa: BLE001 - a crashed leg reports instead of vanishing
        traceback.print_exc()
        common.emit({"leg": args.leg, "crashed": True})
        return 1
    finally:
        if state is not None:
            leg.teardown(state)
    result["leg"] = args.leg
    result["setup_s"] = statistics.median(setup_times)
    result["setup_samples"] = setup_times
    result.setdefault("peak_rss_mib", common.peak_rss_mib())
    result["wrappers_installed"] = common.wrappers_installed()
    if store is not None:
        start, end = result.pop("window", window)
        inside = [span for span in store.spans if start <= span[2] <= end]
        layers = spans.layer_self_ms(inside, result["ops"])
        layers.update(result.get("layers", {}))
        layers.update(state.get("trace_layers", {}))  # figures a leg reads off its own server
        result["layers"] = layers
        store.dump(common.out_path(f"spans-{args.leg}.jsonl"))
    else:
        result.pop("window", None)
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
