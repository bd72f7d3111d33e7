"""validate-repeated leg: XML text parsed and validated against DTD and XSD.

Documents are catalogs (DTD ``catalog``/``product``) and order lists (XSD
``orders``/``order`` with ``qty`` bounded 1..3), built from small pools
of child sequences, so most sequences repeat — the Li et al. traffic the
acceptance memo and dedup are built for.  About 20% of documents carry
exactly one element with an invalid child sequence, so failures are
diagnosed.  Labels come from construction; each document is parsed with
``parse_document`` and validated with ``DTDValidator.validate`` or
``XSDSchema.validate_element``, and its latency covers both.  Each
block's times are scaled to the reference host speed by the calibration
around it (:mod:`calibrate`).
"""

from __future__ import annotations

import random
from time import perf_counter

import common
import inputs

BATCH = 16
INVALID_SHARE = 0.2
#: batches of documents per block (DTD and XSD batches alternate)
BATCHES_PER_BLOCK = 20
#: blocks per ``--seconds`` (fixed work: a quiet host runs one in about 0.2 s)
BLOCKS_PER_S = 4


def setup(seed: int, size: str, traced: bool) -> dict:
    import repro
    from repro.xml import DTDValidator, parse_document, parse_dtd, schema_from_dict

    repro.purge()
    rng = random.Random(f"{seed}:validate")
    validators = {
        "dtd": DTDValidator(parse_dtd(inputs.CATALOG_DTD)),
        "xsd": schema_from_dict(inputs.ORDERS_XSD),
    }
    with common.UNTIMED:
        pools = inputs.document_pools()
    for kind in ("dtd", "xsd"):  # warm the content models on one valid document each
        with common.UNTIMED:
            text, _ = inputs.document(pools, rng, kind, invalid=False)
        if not _validate(validators[kind], kind, parse_document(text)).valid:
            raise RuntimeError(f"{kind}: warm-up document rejected")
    hits, misses = _memo_totals(validators)
    return {
        "repro": repro,
        "validators": validators,
        "pools": pools,
        "rng": rng,
        "parse": parse_document,
        "smoke": size == "smoke",
        "memo_before": (hits, misses),
        "blocks": [],  # per block, (kind, 1, seconds) per document
        "failures": [],
        "batches": 0,
        "invalid_docs": 0,
        "distinct": 0,
        "total": 0,
    }


def _validate(validator, kind: str, document):
    if kind == "dtd":
        return validator.validate(document)
    return validator.validate_element(document.root)


def _memo_totals(validators) -> tuple[int, int]:
    hits = misses = 0
    for validator in validators.values():
        for memo in validator.stats()["memos"].values():
            hits += memo["hits"]
            misses += memo["misses"]
    return hits, misses


def blocks(state: dict, budget: float) -> int:
    return common.block_count(budget, BLOCKS_PER_S, state["smoke"])


def run_block(state: dict, index: int) -> None:
    validators = state["validators"]
    pools = state["pools"]
    rng = state["rng"]
    parse = state["parse"]
    samples = []
    for _ in range(2 if state["smoke"] else BATCHES_PER_BLOCK):
        kind = "dtd" if state["batches"] % 2 == 0 else "xsd"
        state["batches"] += 1
        documents = []
        fragments = []  # one entry per product/order child sequence in the batch
        for _ in range(BATCH):
            invalid = rng.random() < INVALID_SHARE
            text, sequences = inputs.document(pools, rng, kind, invalid)
            documents.append((text, invalid))
            fragments.extend(sequences)
        state["distinct"] += len(set(fragments))
        state["total"] += len(fragments)
        for text, invalid in documents:
            state["invalid_docs"] += invalid
            start = perf_counter()
            result = _validate(validators[kind], kind, parse(text))
            samples.append((kind, 1, perf_counter() - start))
            if result.valid == invalid or (invalid and not len(result)):
                state["failures"].append(
                    f"{kind} document: valid={result.valid}, expected {not invalid}"
                )
    state["blocks"].append(samples)


def finish(state: dict, factors: list) -> dict:
    blocks = common.scaled(state["blocks"], factors)
    samples = [sample for block in blocks for sample in block]
    documents = len(samples)
    hits, misses = _memo_totals(state["validators"])
    hits -= state["memo_before"][0]
    misses -= state["memo_before"][1]
    docs_tail = common.block_tail(blocks)
    docs_tail["value"] *= 1e3
    distinct_ratio = state["distinct"] / state["total"]
    return {
        "metrics": {
            "validate_docs_per_s": common.throughput(samples),
            "validate_tail_ms": docs_tail["value"],
        },
        "ops": documents,
        "attempted": documents,
        "failures": state["failures"],
        "rows": [
            {"row": "validate.tail", **docs_tail},
            {"row": "validate.blocks", "docs_per_s": common.block_speeds(blocks)},
        ],
        "props": {
            "documents": documents,
            "invalid_share": round(state["invalid_docs"] / documents, 4),
            "distinct_sequence_ratio": round(distinct_ratio, 4),
            "pool_sequences": state["pools"].distinct_sequences,
        },
        "layers": {
            "kernel.distinct_ratio": distinct_ratio,
            "xml.memo_hit_ratio": hits / max(hits + misses, 1),
        },
    }


def teardown(state: dict) -> None:
    state["repro"].purge()
