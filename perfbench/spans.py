"""Per-layer spans for the traced run: wrappers around ``repro``'s public calls.

Imported only when a leg runs with ``--trace 1`` (the untraced run never
loads this module, which the self-test checks).  :func:`install` wraps
each entry of :data:`TARGETS` — a public function or method of one
``repro`` module — so that every call records a span ``(id, name, start,
end, parent, request)``.  Spans nest per thread; a span's self time is
its duration minus the time its child spans cover.  Spans stay in
memory and are written out by :meth:`SpanStore.dump`.

Functions imported by name into other modules (``from .parser import
parse``) are replaced wherever the original object is bound, so every
call site sees the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

from common import MARKER

#: ``(module, attribute path, span name)``; matcher constructors are added
#: per strategy by :func:`install`.
TARGETS = (
    ("repro.regex.parser", "parse", "regex.parse"),
    ("repro.regex.parse_tree", "build_parse_tree", "regex.tree"),
    ("repro.structures.lca", "LCAIndex.__init__", "structures.lca"),
    ("repro.core.follow", "FollowIndex.__init__", "core.follow"),
    ("repro.core.skeleton", "SkeletonIndex.__init__", "core.skeleton"),
    ("repro.core.determinism", "DeterminismChecker.report", "core.determinism"),
    ("repro.core.numeric", "check_deterministic_numeric", "core.numeric"),
    ("repro.matching.plan", "Planner.plan", "matching.plan"),
    ("repro.matching.kernel", "build_program", "kernel.program"),
    ("repro.matching.kernel", "KernelProgram.encode_corpus", "kernel.encode"),
    ("repro.matching.kernel", "KernelProgram.scan", "kernel.scan"),
    ("repro.matching.runtime", "CompiledRuntime.accepts_encoded", "runtime.replay"),
    ("repro.matching.runtime", "CompiledRuntime.accepts", "runtime.replay"),
    ("repro.matching.runtime", "CompiledRuntime.match_many", "runtime.replay"),
    ("repro.matching.star_free", "StarFreeMultiMatcher.match_all_encoded", "star_free.match"),
    ("repro.xml.parser", "parse_document", "xml.parse"),
    ("repro.xml.validator", "DTDValidator.validate", "xml.validate"),
    ("repro.xml.xsd", "XSDSchema.validate_element", "xml.validate"),
    ("repro.diagnostics", "diagnose", "diagnostics.diagnose"),
    ("repro.service.core", "ValidationService.match_batch", "service.core"),
    ("repro.service.core", "ValidationService.validate_document_texts", "service.core"),
)



class SpanStore:
    """In-memory span list plus the per-thread stack and request id."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self.local = threading.local()

    def wrap(self, function, name: str):
        local = self.local
        spans = self.spans
        ids = self._ids

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, getattr(local, "request", None)))

        setattr(wrapper, MARKER, name)
        return wrapper

    def record(self, name: str, start: float, end: float, request=None) -> None:
        self.spans.append((next(self._ids), name, start, end, 0, request))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _replace_everywhere(original, wrapper) -> None:
    """Rebind *original* to *wrapper* in every loaded ``repro`` module."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def install(store: SpanStore) -> list[str]:
    """Wrap every target; returns the span names installed."""
    import repro.service.http  # noqa: F401 - load every module a target lives in
    import repro.xml  # noqa: F401
    from repro.matching.dispatch import STRATEGIES
    from repro.matching.star_free import StarFreeMultiMatcher

    targets = list(TARGETS)
    for matcher in [*STRATEGIES.values(), StarFreeMultiMatcher]:
        name = f"matching.matcher_build.{matcher.name}"
        targets.append((matcher.__module__, f"{matcher.__name__}.__init__", name))
    names = []
    for module_name, path, name in targets:
        owner, attribute = _resolve(module_name, path)
        original = getattr(owner, attribute)
        wrapper = store.wrap(original, name)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
        else:
            _replace_everywhere(original, wrapper)
        names.append(name)
    _install_service_hooks(store)
    return names


def _install_service_hooks(store: SpanStore) -> None:
    """Request ids from ``X-Request-Id`` and pool waits (submit -> work start)."""
    from repro.service.core import ValidationService
    from repro.service.http import ServiceRequestHandler

    local = store.local
    do_post = ServiceRequestHandler.do_POST

    def traced_post(handler):
        local.request = handler.headers.get("X-Request-Id")
        try:
            do_post(handler)
        finally:
            local.request = None

    ServiceRequestHandler.do_POST = store.wrap(traced_post, "service.request")

    init = ValidationService.__init__

    @functools.wraps(init)
    def traced_init(service, *args, **kwargs):
        init(service, *args, **kwargs)
        submit = service._pool.submit

        def traced_submit(work, *work_args, **work_kwargs):
            request = getattr(local, "request", None)
            submitted = perf_counter()

            def run(*run_args, **run_kwargs):
                store.record("service.pool_wait", submitted, perf_counter(), request)
                local.request = request
                try:
                    return work(*run_args, **run_kwargs)
                finally:
                    local.request = None

            return submit(run, *work_args, **work_kwargs)

        service._pool.submit = traced_submit

    setattr(traced_init, MARKER, "service.init")
    ValidationService.__init__ = traced_init


# -- analysis --------------------------------------------------------------------------------


def load(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def self_times(spans) -> dict[str, dict]:
    """``{name: {"self_s", "count"}}`` — duration minus child-covered time."""
    children: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent:
            children[parent] += end - start
    totals: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "count": 0})
    for span_id, name, start, end, _, _ in spans:
        entry = totals[name]
        entry["self_s"] += (end - start) - children.get(span_id, 0.0)
        entry["count"] += 1
    return dict(totals)


def layer_self_ms(spans, ops: int) -> dict[str, float]:
    """Self time per span name as a per-layer metric: ms per measured operation."""
    metrics = {}
    for name, entry in self_times(spans).items():
        if name.startswith("matching.matcher_build."):
            key = "matching.matcher_build_ms." + name.rsplit(".", 1)[1]
        else:
            key = name + "_ms"
        metrics[key] = entry["self_s"] * 1e3 / max(ops, 1)
    metrics["diagnostics.replays"] = sum(1 for span in spans if span[1] == "diagnostics.diagnose")
    return metrics


def per_request(spans, names) -> dict[str, dict[str, float]]:
    """Total duration of spans named in *names*, per request id."""
    result: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for _, name, start, end, _, request in spans:
        if request is not None and name in names:
            result[request][name] += end - start
    return result
