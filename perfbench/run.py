"""The repository benchmark: one command, three workloads, every metric.

Run from the root of a checkout (the program is imported from ``src``)::

    python3 perfbench/run.py --workload schema-compile --seed 1 --seconds 4 --trace 0

A run executes four *legs*, each in a fresh process, because every
end-to-end metric of ``BENCHMARK.json`` is printed on every workload.
The ``compile``, ``match`` and ``validate`` legs each run work in
proportion to ``--seconds``; they are set up one after another and then
run their blocks of measured work interleaved, spread evenly over the
same stretch of time.  The ``service`` leg runs after them on its own,
always the same phases.  The workload names the *focus* leg, whose
set-up time and peak memory are reported and which the traced run
traces.  The compile process is started first and never raises the
recursion limit, so its ladders start from the interpreter's default.

``--trace 1`` runs the focus leg twice — untraced and with the span
wrappers of ``spans.py``, blocks interleaved — and then the service leg
traced, and prints the per-layer metrics: the service layers
(:data:`SERVICE_LAYERS`) from the service leg, every other from the
traced focus leg, and ``trace.overhead`` (traced / untraced cost of the
focus leg's headline figure, minus one).  ``--smoke`` shrinks every leg
to a tiny size (the self-test uses it).

Human-readable rows go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Any wrong
verdict makes the run exit 1; a checkout without ``src/repro`` makes it
exit 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import subprocess
import sys
from time import perf_counter

import common

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {
    "schema-compile": "compile",
    "match-lowdup": "match",
    "validate-repeated": "validate",
}
#: legs whose blocks interleave, in start order, then the legs run alone
INTERLEAVED = ("compile", "match", "validate")
ALONE = ("service",)
#: the leg figure whose traced/untraced ratio is ``trace.overhead``,
#: with True when a larger value means more work done (a throughput)
HEADLINE = {
    "compile": ("compile_models_per_s", True),
    "match": ("match_symbols_per_s", True),
    "validate": ("validate_docs_per_s", True),
}
#: per-layer metrics that only the service leg reaches
SERVICE_LAYERS = (
    "cache.hit_ratio",
    "service.core_ms",
    "service.pool_wait_ms",
    "service.http_overhead_ms",
    "loadgen.late_ms",
)
#: every leg must have finished this long after the run started
RUN_DEADLINE_S = 170


class LegCrashed(RuntimeError):
    pass


class Leg:
    """One leg process, driven line by line (see ``leg.py``)."""

    def __init__(self, name: str, leg: str, seed: int, budget: float, focus: bool,
                 smoke: bool, trace: bool, deadline: float):
        env = dict(os.environ)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        command = [
            sys.executable,
            os.path.join(HERE, "leg.py"),
            "--leg", leg,
            "--seed", str(seed),
            "--budget", str(budget),
            "--focus", str(int(focus)),
            "--size", "smoke" if smoke else "full",
            "--trace", str(int(trace)),
        ]
        self.name = name
        self.deadline = deadline
        self.started = perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            self.blocks = self.read()["ready"]
        except LegCrashed:
            self.kill()
            raise

    def read(self) -> dict:
        """The next JSON line from the leg; a crash, hang or deadline raises LegCrashed."""
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        try:
            ready = selector.select(max(0.0, self.deadline - perf_counter()))
        finally:
            selector.close()
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise LegCrashed(f"leg {self.name} " + ("hung" if not ready else "ended early"))
        message = json.loads(line)
        if message.get("crashed"):
            raise LegCrashed(f"leg {self.name} crashed")
        return message

    def send(self, command: str) -> dict:
        try:
            self.process.stdin.write(command + "\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            raise LegCrashed(f"leg {self.name} ended early") from None
        return self.read()

    def finish(self) -> dict:
        result = self.send("finish")
        self.process.stdin.close()
        try:
            code = self.process.wait(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise LegCrashed(f"leg {self.name} did not exit") from None
        if code != 0:
            raise LegCrashed(f"leg {self.name} exited {code}")
        result["wall_s"] = perf_counter() - self.started
        return result

    def kill(self) -> None:
        if self.process.poll() is None:
            os.killpg(self.process.pid, signal.SIGKILL)
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def run_legs(specs, seed: int, budget: float, smoke: bool, deadline: float) -> dict:
    """Start the legs of *specs* one after another, interleave their blocks, finish them.

    *specs* is a list of ``(name, leg, focus, trace)``.  Block *i* of a leg
    with *n* blocks runs at position ``(i + 0.5) / n`` of the shared
    schedule, so every leg's blocks spread evenly over the same time.
    """
    legs = []
    try:
        for name, leg, focus, trace in specs:
            legs.append(Leg(name, leg, seed, budget, focus, smoke, trace, deadline))
        schedule = sorted(
            ((index + 0.5) / leg.blocks, order, index)
            for order, leg in enumerate(legs)
            for index in range(leg.blocks)
        )
        for _, order, index in schedule:
            if legs[order].send("block").get("done") != index:
                raise LegCrashed(f"leg {legs[order].name} lost block {index}")
        return {leg.name: leg.finish() for leg in legs}
    finally:
        for leg in legs:
            leg.kill()


def end_to_end(results: dict, focus: str) -> dict:
    values = {}
    for result in results.values():
        values.update(result["metrics"])
    values["setup_s"] = results[focus]["setup_s"]
    values["peak_rss_mib"] = results[focus]["peak_rss_mib"]
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(len(result["failures"]) for result in results.values())
    probe = results["compile"]["probe"]
    values["error_rate"] = (failed + (0 if probe["ok"] else 1)) / (attempted + 1)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    args = parser.parse_args(argv)
    # a terminated run still stops its legs (the ``finally`` of run_legs)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a checkout holding src/repro\n")
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    focus = WORKLOADS[args.workload]
    started = perf_counter()
    deadline = started + RUN_DEADLINE_S

    try:
        if args.trace:
            specs = [("untraced", focus, True, False), ("traced", focus, True, True)]
            results = run_legs(specs, args.seed, args.seconds, args.smoke, deadline)
            results.update(
                run_legs([("service", "service", False, True)], args.seed, args.seconds,
                         args.smoke, deadline)
            )
            untraced, traced = results["untraced"], results["traced"]
            declared = spec["per_layer"]
        else:
            specs = [(leg, leg, leg == focus, False) for leg in INTERLEAVED]
            results = run_legs(specs, args.seed, args.seconds, args.smoke, deadline)
            for leg in ALONE:
                results.update(
                    run_legs([(leg, leg, leg == focus, False)], args.seed, args.seconds,
                             args.smoke, deadline)
                )
            declared = spec["end_to_end"]
    except LegCrashed as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 1

    failures = [text for result in results.values() for text in result["failures"]]
    attempted = sum(result["attempted"] for result in results.values())

    if args.trace:
        layers = dict(traced["layers"])
        for name in SERVICE_LAYERS:
            layers[name] = results["service"]["layers"].get(name, 0.0)
        name, more_is_work = HEADLINE[focus]
        ratio = untraced["metrics"][name] / traced["metrics"][name]
        layers["trace.overhead"] = ratio - 1.0 if more_is_work else 1.0 / ratio - 1.0
        values = {entry["name"]: layers.get(entry["name"], 0.0) for entry in declared}
    else:
        values = end_to_end(results, focus)

    for name, result in results.items():
        for row in result.get("rows", []):
            print(json.dumps({"leg": name, **row}, sort_keys=True))
        summary = {
            "leg": name,
            "props": result.get("props", {}),
            "setup_s": result["setup_s"],
            "host_factor": round(result["host_factor"], 4),
            "wrappers_installed": result["wrappers_installed"],
            "wall_s": round(result["wall_s"], 2),
        }
        print(json.dumps(summary, sort_keys=True))
    metrics = {}
    for entry in declared:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<36} {value:>16.6g} {entry['unit']}")
    for text in failures[:20]:
        print(f"WRONG: {text}")
    print(f"workload {args.workload} seed {args.seed}: {perf_counter() - started:.1f} s")
    common.emit(
        {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
