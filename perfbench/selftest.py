"""Self-test of the benchmark: a tiny smoke run of every workload.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --smoke`` untraced and traced and
checks that

* every end-to-end metric of ``BENCHMARK.json`` is printed, with its
  unit, on the untraced run, and every per-layer metric (including
  ``trace.overhead``) on the traced run;
* no leg of the untraced run had a span wrapper installed, and the
  traced legs of the traced run (focus and service) had;
* the run exits non-zero, printing no result, from a directory that
  holds only ``BENCHMARK.json`` and ``perfbench/``.

Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import common

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def smoke(workload: str, trace: int, cwd: str = ".") -> tuple[int, list[dict]]:
    child = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "0.3",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    lines = []
    for line in child.stdout.splitlines():
        if line.startswith("{"):
            lines.append(json.loads(line))
    return child.returncode, lines


def check_metrics(result: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    metrics = result.get("metrics", {})
    if set(metrics) != {entry["name"] for entry in declared}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            continue
        if got.get("unit") != entry["unit"]:
            problems.append(f"{label}: {entry['name']} has unit {got.get('unit')!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or math.isnan(value):
            problems.append(f"{label}: {entry['name']} is not a number ({value!r})")
    return problems


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        code, lines = smoke(workload, 0)
        if code != 0 or not lines or not lines[-1].get("correct"):
            problems.append(f"{workload}: untraced smoke run failed (exit {code})")
            continue
        problems += check_metrics(lines[-1], spec["end_to_end"], f"{workload} untraced")
        installed = [line["leg"] for line in lines if line.get("wrappers_installed")]
        legs = [line for line in lines if "wrappers_installed" in line]
        if installed or len(legs) != 4:
            problems.append(f"{workload}: untraced legs with wrappers: {installed} of {len(legs)}")

        code, lines = smoke(workload, 1)
        if code != 0 or not lines:
            problems.append(f"{workload}: traced smoke run failed (exit {code})")
            continue
        problems += check_metrics(lines[-1], spec["per_layer"], f"{workload} traced")
        if "trace.overhead" not in lines[-1].get("metrics", {}):
            problems.append(f"{workload}: trace.overhead missing")
        flags = {line["leg"]: line["wrappers_installed"] for line in lines
                 if "wrappers_installed" in line}
        if flags != {"untraced": False, "traced": True, "service": True}:
            problems.append(f"{workload}: traced run wrapper flags {flags}")
        print(f"{workload}: ok", flush=True)

    bare = os.path.abspath(common.out_path("bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "schema-compile",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           capture_output=True, text=True, timeout=170, cwd=bare)
    if child.returncode == 0 or child.stdout.strip():
        problems.append("a directory without the program did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
