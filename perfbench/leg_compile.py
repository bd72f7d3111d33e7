"""schema-compile leg: cold ``text -> determinism verdict -> first match``.

The leg's first block compiles, from text, every rung of two ascending
doubling ladders — wide unions ``(u0 | ... | u{m-1})*`` and ``? * +``
CHARE chains, one rung of each in turn — so Theorem 3.5's linear-time
claim becomes a log-log slope measured over a few consecutive seconds.
Every later block compiles a chunk of distinct DTD-like corpus models,
all generated before the ladder, so that no collection the program's
allocations trigger falls in the benchmark's own (untimed) input
generation instead of the timed compiles.
Times are scaled to the reference host speed (:mod:`calibrate`): a
corpus block's by the calibration around the block, a ladder compile's
by calibration runs right before and after the compile.
Every compile uses fresh symbol names: the pattern cache must never hit
(checked).  After the blocks an oversized union is compiled
in a fresh child process (:mod:`probe`); its outcome only feeds
``error_rate``.

The process starts at the interpreter's default recursion limit.  Today
the ladder rungs of 1,024 alternatives and more compile only because
the 512 rung before them raised the process-wide limit
(``repro.regex.ast.ensure_recursion_capacity``); the order and sizes of
the rungs are fixed and this leg never touches the limit itself.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from time import perf_counter

import calibrate
import common
import inputs

UNION_LADDER = (512, 1024, 2048, 4096)  # alternatives
CHAIN_LADDER = (125, 250, 500, 1000)  # factors
#: corpus blocks after the ladder block, per ``--seconds`` (fixed work:
#: a quiet host runs one in about 0.2 s)
CORPUS_BLOCKS_PER_S = 4
PROBE_ALTERNATIVES = 16384
PROBE_TIMEOUT_S = 120

SIZES = {
    # corpus models per block, union rungs, chain rungs
    "full": (250, UNION_LADDER, CHAIN_LADDER),
    "smoke": (20, (64, 128), (16, 32)),
}


def setup(seed: int, size: str, traced: bool) -> dict:
    import repro

    chunk, unions, chains = SIZES[size]
    return {
        "repro": repro,
        "size": size,
        "chunk": chunk,
        "unions": unions,
        "chains": chains,
        "rng": random.Random(seed * 7919 + 1),
        "hits_before": repro.stats()["pattern_cache"]["hits"],
        "blocks": [],  # per corpus block, (None, 1, seconds) per model
        "models": 0,
        "timings": {},  # (family, size, symbols) -> scaled seconds
        "failures": [],
        "ladder_compiles": 0,
        "non_deterministic": 0,
        "positions": [],
    }


def blocks(state: dict, budget: float) -> int:
    """The ladder block, then the corpus blocks."""
    state["corpus_blocks"] = common.block_count(
        budget, CORPUS_BLOCKS_PER_S, state["size"] == "smoke"
    )
    return 1 + state["corpus_blocks"]


def _compile_model(repro, text: str, member):
    """One timed cold compile plus first match; returns (seconds, verdicts)."""
    start = perf_counter()
    pattern = repro.compile(text, dialect="named")
    tree_ok = pattern.tree_report.deterministic
    deterministic = pattern.is_deterministic
    matched = bool(pattern.match(member)) if deterministic else None
    return perf_counter() - start, (tree_ok, deterministic, matched)


def _ladder_rung(state, family: str, size: int):
    """Compile one rung from text; returns (symbols, scaled seconds, verdicts)."""
    repro = state["repro"]
    rng = state["rng"]
    prefix = "r"
    if family == "union":
        text = inputs.union_ladder_text(prefix, size)
        member = [f"{prefix}u{rng.randrange(size)}" for _ in range(8)]
        symbols = size
    else:
        chain = inputs.chain_ladder(prefix, size)
        text = chain.text()
        member = inputs.ChainWords(chain, rng, menu=2).member(rng)
        symbols = chain.positions
    gc.collect()
    before = calibrate.runs()
    seconds, verdicts = _compile_model(repro, text, member)
    return symbols, seconds * calibrate.factor(before + calibrate.runs()), verdicts


def _probe(width: int) -> dict:
    """Compile a *width*-alternative union from text in a fresh child process."""
    text = inputs.union_ladder_text("q", width)
    here = os.path.dirname(os.path.abspath(__file__))
    start = perf_counter()
    try:
        child = subprocess.run(
            [sys.executable, os.path.join(here, "probe.py")],
            input=text,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        code = child.returncode
        outcome = child.stdout.strip().splitlines()[-1] if child.stdout.strip() else ""
    except subprocess.TimeoutExpired:
        code, outcome = None, "timeout"
    if code is not None and code < 0:
        outcome = f"signal {-code}"
    return {
        "alternatives": width,
        "outcome": outcome or f"exit {code}",
        "ok": code == 0 and outcome == "deterministic",
        "seconds": perf_counter() - start,
    }


def run_block(state: dict, index: int) -> None:
    """The corpus and both ladders, rung by rung (block 0), or the next corpus chunk."""
    if index == 0:
        state["corpus"] = inputs.corpus(state["rng"], state["chunk"] * state["corpus_blocks"])
        for union, chain in zip(state["unions"], state["chains"]):
            for family, size in (("union", union), ("chain", chain)):
                symbols, seconds, verdicts = _ladder_rung(state, family, size)
                state["ladder_compiles"] += 1
                state["timings"][(family, size, symbols)] = seconds
                if verdicts != (True, True, True):
                    state["failures"].append(
                        f"{family} {size}: verdicts {verdicts}, expected all True"
                    )
        return
    chunk = state["chunk"]
    models = state["corpus"][state["models"]:state["models"] + chunk]
    state["models"] += chunk
    samples = []
    state["blocks"].append(samples)
    for model in models:
        seconds, verdicts = _compile_model(state["repro"], model.text, model.member)
        samples.append((None, 1, seconds))
        state["non_deterministic"] += not model.deterministic
        state["positions"].append(model.positions)
        expected = (
            model.tree_deterministic,
            model.deterministic,
            True if model.deterministic else None,
        )
        if verdicts != expected:
            state["failures"].append(f"model {model.text!r}: {verdicts} != {expected}")


def finish(state: dict, factors: list) -> dict:
    repro = state["repro"]
    blocks = common.scaled(state["blocks"], factors[1:])  # block 0 is the ladder
    failures = state["failures"]
    hits = repro.stats()["pattern_cache"]["hits"] - state["hits_before"]
    if hits:
        failures.append(f"pattern cache hit {hits} times during cold compiles")
    probe = _probe(PROBE_ALTERNATIVES)

    rows = []
    slopes = {}
    for family in ("union", "chain"):
        points = sorted(item for item in state["timings"].items() if item[0][0] == family)
        slopes[family] = common.loglog_slope(
            [symbols for (_, _, symbols), _ in points], [value for _, value in points]
        )
        for (_, size, symbols), value in points:
            rows.append(
                {
                    "row": f"ladder.{family}.{size}",
                    "compile_ms": round(value * 1e3, 3),
                    "ns_per_symbol": round(value * 1e9 / symbols, 1),
                    "symbols": symbols,
                }
            )
    metrics = {
        "compile_models_per_s": common.throughput([sample for block in blocks for sample in block]),
        "compile_p50_ms": common.block_percentile(blocks, 50.0) * 1e3,
        "compile_p99_ms": common.block_percentile(blocks, 99.0) * 1e3,
        "compile_slope": max(slopes.values()),
    }
    rows.append({"row": "compile.slopes", **{k: round(v, 4) for k, v in slopes.items()}})
    rows.append({
        "row": "compile.p99",
        "percentile": 99.0,
        "samples": state["chunk"],
        "blocks": len(blocks),
    })
    rows.append({"row": "compile.blocks", "models_per_s": common.block_speeds(blocks)})
    rows.append({"row": "probe", **probe})
    operations = state["models"] + state["ladder_compiles"]
    return {
        "metrics": metrics,
        "ops": operations,
        "attempted": operations,
        "failures": failures,
        "probe": probe,
        "rows": rows,
        "props": {
            "corpus_models": state["models"],
            "corpus_non_deterministic_share": round(state["non_deterministic"] / state["models"], 4),
            "corpus_positions_range": [min(state["positions"]), max(state["positions"])],
            "pattern_cache_hits": hits,
            "recursion_limit_after": sys.getrecursionlimit(),
        },
        "layers": {},
    }


def teardown(state: dict) -> None:
    state["repro"].purge()
