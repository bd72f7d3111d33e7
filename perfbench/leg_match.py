"""match-lowdup leg: warm patterns, low-duplication batches of long words.

One warm pattern per batch route of ``Pattern.match_all``:

* ``compiled-kernel`` — a 60-factor CHARE (flat kernel table);
* ``compiled-runtime`` — a 150-factor, 10-wide CHARE whose machine is too
  wide for a kernel table (per-word replay over the lazy-DFA rows);
* ``star-free-multi`` — 120 ``(a|b) c?`` blocks (Theorem 4.12's matcher).

Each batch holds half members and half mutated non-members; 5% of its
slots repeat another word of the same batch and no word recurs across
batches, so the encode memo and dedup cannot carry the load — the scan,
row fills and fallback replay do.  Word labels come from construction
(:class:`inputs.ChainWords`); at set-up a sample of each route's words is
also checked against the uncompiled direct matcher
(``Pattern(..., compiled=False)``), which must agree with the labels.
Each block's times are scaled to the reference host speed by the
calibration around it (:mod:`calibrate`).
"""

from __future__ import annotations

import random
from time import perf_counter

import common
import inputs

BATCH = 128
DUPLICATES = 0.05
REFERENCE_SAMPLE = 32
#: rounds per block; a round is one batch per route
ROUNDS_PER_BLOCK = 5
#: blocks per ``--seconds`` (fixed work: a quiet host runs one in about 0.2 s)
BLOCKS_PER_S = 4

#: occurrence ranges cycled over a chain's factors: once, ?, *, +
RANGES = ((1, 1), (0, 1), (0, None), (1, None))
ROUTES = {
    # route: (chain factory, max repeats of starred factors)
    "compiled-kernel": (lambda: inputs.cycled_chain("k", 60, 3, RANGES), 6),
    "compiled-runtime": (lambda: inputs.cycled_chain("r", 150, 10, RANGES), 2),
    "star-free-multi": (lambda: inputs.star_free_chain("s", 120), 1),
}
SMOKE_ROUTES = {
    "compiled-kernel": (lambda: inputs.cycled_chain("k", 8, 3, RANGES), 3),
    "star-free-multi": (lambda: inputs.star_free_chain("s", 10), 1),
}


def setup(seed: int, size: str, traced: bool) -> dict:
    import repro
    from repro.api import Pattern

    repro.purge()
    routes = {}
    for name, (make, repeat) in (SMOKE_ROUTES if size == "smoke" else ROUTES).items():
        chain = make()
        text = chain.text()
        pattern = repro.compile(text, dialect="named")
        if pattern.plan.route != name:
            raise RuntimeError(f"{name} pattern planned as {pattern.plan.route}")
        rng = random.Random(f"{seed}:{name}")
        with common.UNTIMED:
            words = inputs.ChainWords(chain, rng, max_repeat=repeat)
            sample, labels = inputs.word_batch(words, rng, REFERENCE_SAMPLE, 0.0)
            direct = Pattern(text, dialect="named", compiled=False).match_all(sample)
            if direct != labels:
                raise RuntimeError(f"{name}: direct matcher disagrees with construction labels")
            warm, warm_labels = inputs.word_batch(words, rng, BATCH, DUPLICATES)
        if pattern.match_all(warm) != warm_labels:
            raise RuntimeError(f"{name}: warm-up batch verdicts differ from the labels")
        routes[name] = {"pattern": pattern, "words": words, "rng": rng}
    return {
        "repro": repro,
        "routes": routes,
        "smoke": size == "smoke",
        "kernel_before": repro.stats()["kernel"],
        "fills_before": {name: route["pattern"].stats() or {} for name, route in routes.items()},
        "blocks": [],  # per block, (route, symbols, seconds) per batch
        "lengths": {name: [1 << 30, 0] for name in routes},  # shortest, longest word
        "failures": [],
        "distinct": 0,
        "total": 0,
    }


def blocks(state: dict, budget: float) -> int:
    return common.block_count(budget, BLOCKS_PER_S, state["smoke"])


def run_block(state: dict, index: int) -> None:
    samples = []
    for _ in range(1 if state["smoke"] else ROUNDS_PER_BLOCK):
        for name, route in state["routes"].items():
            words, labels = inputs.word_batch(route["words"], route["rng"], BATCH, DUPLICATES)
            start = perf_counter()
            verdicts = route["pattern"].match_all(words)
            seconds = perf_counter() - start
            lengths = list(map(len, words))
            samples.append((name, sum(lengths), seconds))
            bounds = state["lengths"][name]
            bounds[:] = [min(bounds[0], min(lengths)), max(bounds[1], max(lengths))]
            state["distinct"] += len({tuple(word) for word in words})
            state["total"] += len(words)
            if verdicts != labels:
                wrong = sum(1 for got, want in zip(verdicts, labels) if got != want)
                state["failures"].append(f"{name}: {wrong} wrong verdicts in a batch")
    state["blocks"].append(samples)


def finish(state: dict, factors: list) -> dict:
    repro = state["repro"]
    routes = state["routes"]
    kernel_before = state["kernel_before"]
    kernel_after = repro.stats()["kernel"]
    scanned = kernel_after["kernel_words"] - kernel_before["kernel_words"]
    fallback = kernel_after["fallback_words"] - kernel_before["fallback_words"]
    fills = 0
    for name, route in routes.items():
        after = route["pattern"].stats() or {}
        fills += after.get("misses", 0) - state["fills_before"][name].get("misses", 0)
    blocks = common.scaled(state["blocks"], factors)
    batches = [sample for block in blocks for sample in block]
    batch_tail = common.tail([seconds * 1e3 for _, _, seconds in batches])
    rows = []
    for name in routes:
        mine = [(symbols, seconds) for route, symbols, seconds in batches if route == name]
        symbols = sum(symbols for symbols, _ in mine)
        rows.append({
            "row": f"route.{name}",
            "symbols_per_s": round(symbols / sum(seconds for _, seconds in mine), 1),
            "batches": len(mine),
            "mean_word_symbols": round(symbols / (len(mine) * BATCH), 1),
        })
    rows.append({"row": "match.batch_tail", **batch_tail})
    rows.append({"row": "match.blocks", "symbols_per_s": common.block_speeds(blocks)})
    distinct_ratio = state["distinct"] / state["total"]
    return {
        "metrics": {
            "match_symbols_per_s": common.throughput(batches),
            "match_batch_tail_ms": batch_tail["value"],
        },
        "ops": len(batches),
        "attempted": len(batches),
        "failures": state["failures"],
        "rows": rows,
        "props": {
            "batch_words": BATCH,
            "distinct_word_ratio": round(distinct_ratio, 4),
            "words": state["total"],
            "word_symbols_range": state["lengths"],
            "kernel_backend": kernel_after["backend"],
        },
        "layers": {
            "kernel.fallback_ratio": fallback / max(scanned + fallback, 1),
            "kernel.distinct_ratio": distinct_ratio,
            "runtime.row_fills": fills,
        },
    }


def teardown(state: dict) -> None:
    state["repro"].purge()
