"""Execution planning: one object per pattern that owns its matching strategy.

Historically every surface of the library re-derived "which engine should
this pattern run on?" for itself: ``Pattern.match``/``match_all`` had one
if/elif ladder, ``describe()`` reconstructed the same decision a second
time for its ``batch_path`` field, the diagnostics replay picked its
adapter from ``pattern._compiled``, the lexer rebuilt the kernel-program
export, and the DTD/XSD validators each kept their own
runtime-vs-matcher-vs-memo dispatch.  Adding a new scenario class (a
Section-4 matcher family, the star-free tables, the kernel programs —
or the planned back-reference dialects) meant one cross-cutting edit per
surface.

This module gives the decision exactly one owner:

* :class:`ExecutionPlan` — the per-pattern strategy object.  A plan knows
  its stable ``route`` name (the string ``describe()["batch_path"]``
  reports), answers single matches (:meth:`~ExecutionPlan.match`), batch
  matches (:meth:`~ExecutionPlan.match_all`), streaming runs
  (:meth:`~ExecutionPlan.stream`), validator child-sequence checks
  (:meth:`~ExecutionPlan.accepts_children`), lexer scan programs
  (:meth:`~ExecutionPlan.scan_program` / :meth:`~ExecutionPlan.longest_match`)
  and hands the diagnostics layer its replay adapter
  (:meth:`~ExecutionPlan.replay_for_diagnostics`).
* :class:`Planner` — an ordered strategy registry.  ``plan(pattern)``
  walks the registered strategies and returns the first plan whose
  predicate accepts the pattern; :meth:`Planner.register` is the landing
  seam for future dialect engines (deterministic regex with
  back-references, memoization-based matching) — a new engine is one
  registry entry, not five surface edits.

The four built-in routes (and their unchanged wire names):

``"per-word"``
    The uncompiled path: one direct Section-4 matcher call per word.
    Selected when the pattern (or the calling validator) asked for
    ``compiled=False`` — the per-symbol structure queries stay observable,
    which is what the benchmarks compare against.
``"star-free-multi"``
    Star-free deterministic patterns batch through the Theorem 4.12
    multi-word matcher: the whole corpus is answered during a single scan
    of the expression's positions.
``"compiled-kernel"``
    The runtime's dense rows flatten into one premultiplied kernel table
    (:mod:`repro.matching.kernel`); batches stride over it branch-free,
    with per-word replay as the convergence fallback.
``"compiled-runtime"``
    Per-word replay over the memoized lazy-DFA rows — the terminal
    compiled fallback for machines too large for a kernel table.

Plans are deliberately thin: the pattern keeps owning the lazily built
matcher, runtime and acceptance memo (and their locks), so a plan never
duplicates engine state — it only decides *which* engine runs and keeps
the telemetry accessors (:meth:`built_runtime`, :meth:`built_star_free`,
:meth:`built_memo`) that snapshot persistence reads without forcing
construction.

>>> import repro
>>> repro.compile("ab(a+b)").plan.route      # star-free and deterministic
'star-free-multi'
>>> repro.compile("(ab)*").plan.route
'compiled-kernel'
>>> repro.compile("a", compiled=False).plan.route
'per-word'
>>> from repro.matching.plan import PLANNER
>>> [name for name, _qualifies in PLANNER.strategies()]
['per-word', 'star-free-multi', 'compiled-kernel', 'compiled-runtime']
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Sequence

from ..errors import NotDeterministicError
from . import kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import Pattern


class ExecutionPlan:
    """Base class of all per-pattern strategy objects.

    Subclasses set :attr:`route` (the stable wire name) and implement the
    matching surface; the base class provides the telemetry accessors
    that report "nothing built" so persistence walks need no
    ``isinstance`` checks.
    """

    #: Stable route name — the value ``Pattern.describe()["batch_path"]``
    #: reports and the serving fronts put on the wire.
    route = "abstract"

    __slots__ = ("pattern",)

    def __init__(self, pattern: "Pattern"):
        self.pattern = pattern

    # -- matching surface ---------------------------------------------------------------
    def match(self, symbols: Sequence[str]) -> bool:
        """Verdict for one parsed word."""
        raise NotImplementedError

    def match_all(self, parsed: Sequence[Sequence[str]], detail: str = "verdict"):
        """Verdicts (or full results) for a batch of parsed words."""
        raise NotImplementedError

    def stream(self):
        """Begin a streaming run (``feed`` / ``is_accepting`` / ``consumed``)."""
        raise NotImplementedError

    # ``start()`` aliases ``stream()`` so a plan can stand in anywhere a
    # matcher/runtime was handed out for streaming (StreamingContentChecker).
    def start(self):
        return self.stream()

    def accepts_children(self, children: Sequence[str]) -> bool:
        """Whole-sequence verdict for one validator child sequence."""
        raise NotImplementedError

    def replay_for_diagnostics(self):
        """The :mod:`repro.diagnostics` replay adapter for this strategy."""
        raise NotImplementedError

    # -- lexer surface ------------------------------------------------------------------
    def scan_program(self):
        """The stride-1 kernel program for longest-match scanning.

        Materializes the whole reachable machine, then exports (and
        caches) the flat table.  Returns ``(program, accepting_states)``;
        ``program`` is ``None`` when the machine exceeds the kernel table
        ceiling.  Only compiled plans support scanning.
        """
        raise NotImplementedError(f"route {self.route!r} does not support scan programs")

    def longest_match(self, tags, encoded, start: int):
        """Maximal-munch step over the cached scan program (see the lexer)."""
        raise NotImplementedError(f"route {self.route!r} does not support scanning")

    # -- telemetry accessors (never force construction) ---------------------------------
    def built_runtime(self):
        """The compiled runtime if this plan uses one and it exists, else ``None``."""
        return None

    def built_star_free(self):
        """The star-free multi-matcher if already built, else ``None``."""
        return None

    def built_memo(self):
        """The acceptance memo if already built, else ``None``."""
        return None

    def star_free(self):
        """The (force-built) star-free multi-matcher, or ``None`` off that route."""
        return None

    def prime(self) -> "ExecutionPlan":
        """Force the engines this plan runs on (validator construction path)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} route={self.route!r}>"


class DirectPlan(ExecutionPlan):
    """The uncompiled route: every word runs on the direct Section-4 matcher."""

    route = "per-word"

    __slots__ = ()

    def match(self, symbols: Sequence[str]) -> bool:
        return self.pattern.matcher.accepts(symbols)

    def match_all(self, parsed: Sequence[Sequence[str]], detail: str = "verdict"):
        matcher = self.pattern.matcher
        if detail == "full":
            from ..diagnostics import MatchResult

            return [
                MatchResult(matcher.accepts(word), word, pattern=self.pattern)
                for word in parsed
            ]
        return [bool(matcher.accepts(word)) for word in parsed]

    def stream(self):
        return self.pattern.matcher.start()

    def accepts_children(self, children: Sequence[str]) -> bool:
        return self.pattern.matcher.accepts(list(children))

    def replay_for_diagnostics(self):
        from ..diagnostics import _DirectEngine

        return _DirectEngine(self.pattern.matcher, self.pattern.tree_report.deterministic)

    def prime(self) -> "DirectPlan":
        self.pattern.matcher
        return self


class CompiledPlan(ExecutionPlan):
    """Shared behaviour of every compiled route (runtime-backed).

    Single matches replay the memoized lazy-DFA rows; batches attempt the
    kernel scan (building a composed table costs milliseconds, so tiny
    batches only take it when a program is already cached) and fall back
    to per-word replay; child sequences go through the pattern's
    acceptance memo.  Subclasses only change the *verdict* batch path and
    the route name.
    """

    __slots__ = ("_memo", "_runtime", "_scan")

    def __init__(self, pattern: "Pattern"):
        super().__init__(pattern)
        self._memo = None
        self._runtime = None
        #: lazily exported ``(program, accepting_states)`` for the lexer
        self._scan = None

    @property
    def runtime(self):
        runtime = self._runtime
        if runtime is None:
            runtime = self._runtime = self.pattern.runtime
        return runtime

    def match(self, symbols: Sequence[str]) -> bool:
        return self.runtime.accepts(symbols)

    def stream(self):
        return self.runtime.start()

    def match_all(self, parsed: Sequence[Sequence[str]], detail: str = "verdict"):
        if detail == "full":
            return self._match_all_full(parsed)
        return self._match_verdicts(parsed)

    def _kernel_attempt(self, parsed, replay=None):
        """One kernel pass over the batch, or ``None`` (stay on per-word).

        Returns the verdict list and books the pattern's kernel traffic
        split.  Building a composed table costs milliseconds; tiny batches
        only route through the kernel when a program is already cached.
        """
        runtime = self.runtime
        if len(parsed) >= kernel.MIN_BATCH or runtime._kernel_programs:
            result = kernel.match_words(runtime, parsed, replay=replay)
            if result is not None:
                verdicts, kernel_words, fallback_words = result
                self.pattern._record_kernel_traffic(kernel_words, fallback_words)
                return verdicts
        return None

    def _match_verdicts(self, parsed: Sequence[Sequence[str]]) -> list[bool]:
        verdicts = self._kernel_attempt(parsed)
        if verdicts is not None:
            return verdicts
        runtime = self.runtime
        accepts_encoded = runtime.accepts_encoded
        return [accepts_encoded(runtime.encode(word)) for word in parsed]

    def _match_all_full(self, parsed: Sequence[Sequence[str]]):
        """The ``detail="full"`` batch path: one lazy MatchResult per word.

        Kernel batches route their byte-2 fallback words through a
        :class:`~repro.diagnostics.TraceRecorder`, so the traces those
        replays walk anyway seed the results and no prefix is walked
        twice.  This path is route-independent across the compiled plans:
        full results need per-word traces, which the star-free corpus
        scan does not produce.
        """
        from .. import diagnostics

        runtime = self.runtime
        recorder = diagnostics.TraceRecorder(runtime)
        verdicts = self._kernel_attempt(parsed, replay=recorder)
        if verdicts is not None:
            results = []
            for word, verdict in zip(parsed, verdicts):
                seed = recorder.traces.get(tuple(runtime.encode(word)))
                diagnosis = None
                if seed is not None:
                    diagnosis = diagnostics.complete_from_trace(
                        self.pattern, word, seed[0], seed[1]
                    )
                results.append(
                    diagnostics.MatchResult(
                        verdict, word, pattern=self.pattern, diagnosis=diagnosis
                    )
                )
            return results
        accepts_encoded = runtime.accepts_encoded
        return [
            diagnostics.MatchResult(
                accepts_encoded(runtime.encode(word)), word, pattern=self.pattern
            )
            for word in parsed
        ]

    def accepts_children(self, children: Sequence[str]) -> bool:
        memo = self._memo
        if memo is None:
            memo = self._memo = self.pattern.acceptance_memo()
        # Whole-sequence fast path: repeated child sequences (the Li et
        # al. workload) are answered by one dict probe.
        return memo.accepts(self.runtime, children)

    def replay_for_diagnostics(self):
        from ..diagnostics import _CompiledEngine

        return _CompiledEngine(self.runtime, self.pattern.tree_report.deterministic)

    # -- lexer surface ------------------------------------------------------------------
    def scan_program(self):
        scan = self._scan
        if scan is None:
            runtime = self.runtime
            width = len(runtime.alphabet)
            accepting: list[int] = []
            seen = {runtime._start_state}
            queue = [runtime._start_state]
            step = runtime.step
            while queue:
                state = queue.pop()
                if runtime.state_accepts(state):
                    accepting.append(state)
                for code in range(width):
                    target = step(state, code)
                    if target >= 0 and target not in seen:
                        seen.add(target)
                        queue.append(target)
            program = runtime.export_kernel_program(max_stride=1)
            scan = self._scan = (program, accepting)
        return scan

    def longest_match(self, tags, encoded, start: int):
        program, _accepting = self.scan_program()
        return kernel.longest_match(program, tags, encoded, start)

    # -- telemetry ----------------------------------------------------------------------
    def built_runtime(self):
        return self.pattern._built_runtime()

    def built_memo(self):
        return self.pattern._acceptance_memo

    def prime(self) -> "CompiledPlan":
        self.pattern.matcher
        self._runtime = self.pattern.runtime
        self._memo = self.pattern.acceptance_memo()
        return self


class StarFreePlan(CompiledPlan):
    """Star-free deterministic patterns: Theorem 4.12 corpus batching.

    Single matches, streaming and child sequences still run on the
    compiled runtime (sharing its memoized rows with every other
    surface); *verdict batches* are answered by one encoded-corpus pass
    of the multi-word matcher.
    """

    route = "star-free-multi"

    __slots__ = ("_multi",)

    def __init__(self, pattern: "Pattern"):
        super().__init__(pattern)
        self._multi = None

    def star_free(self):
        """The multi-word matcher, built once under the pattern's init lock."""
        multi = self._multi
        if multi is None:
            with self.pattern._init_lock:
                multi = self._multi
                if multi is None:
                    from .star_free import StarFreeMultiMatcher

                    multi = StarFreeMultiMatcher(
                        self.pattern.tree, verify=False, follow=self.pattern._checker.follow
                    )
                    self._multi = multi
        return multi

    def built_star_free(self):
        return self._multi

    def _match_verdicts(self, parsed: Sequence[Sequence[str]]) -> list[bool]:
        encoded = self.pattern.tree.alphabet.encode_many(iter(parsed))
        return self.star_free().match_all_encoded(encoded)


class KernelPlan(CompiledPlan):
    """Kernel-table batching over the dense rows (per-word replay fallback)."""

    route = "compiled-kernel"

    __slots__ = ()


class RuntimePlan(CompiledPlan):
    """Per-word replay on the memoized rows — the terminal compiled fallback.

    The machine is too large for a kernel table; batch calls still probe
    :func:`kernel.match_words` (which answers ``None`` without a program)
    so a pattern whose rows later become table-eligible needs no re-plan.
    """

    route = "compiled-runtime"

    __slots__ = ()


#: A strategy predicate: ``qualifies(pattern, compiled)`` — *compiled* is
#: the effective execution mode (the pattern's own flag unless the caller
#: overrode it, e.g. a ``compiled=False`` validator sharing a compiled
#: cached pattern).
StrategyPredicate = Callable[["Pattern", bool], bool]


class _Strategy:
    __slots__ = ("name", "qualifies", "build")

    def __init__(self, name: str, qualifies: StrategyPredicate, build):
        self.name = name
        self.qualifies = qualifies
        self.build = build


class Planner:
    """An ordered registry of matching strategies.

    :meth:`plan` returns the first registered strategy whose predicate
    accepts the pattern — registration order *is* the priority order, and
    :meth:`register`'s ``before=`` hook lets a future dialect engine (the
    ROADMAP's back-reference work) slot itself ahead of the built-ins
    without editing any match surface.

    Thread-safety: registration mutates under a lock and `plan` walks an
    immutable snapshot list, so registering at runtime never breaks an
    in-flight plan lookup.  Plans already attached to patterns are not
    re-routed; call :func:`repro.purge` to re-plan cached patterns after
    changing the registry.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._strategies: list[_Strategy] = []

    def register(
        self,
        name: str,
        qualifies: StrategyPredicate,
        build: Callable[["Pattern"], ExecutionPlan],
        before: str | None = None,
    ) -> None:
        """Register strategy *name* (optionally ahead of an existing one).

        *qualifies* is called as ``qualifies(pattern, compiled)`` on
        deterministic patterns only; *build* turns the pattern into an
        :class:`ExecutionPlan`.  Re-registering a name replaces it in
        place.
        """
        with self._lock:
            strategies = [entry for entry in self._strategies if entry.name != name]
            entry = _Strategy(name, qualifies, build)
            if before is None:
                strategies.append(entry)
            else:
                for at, existing in enumerate(strategies):
                    if existing.name == before:
                        strategies.insert(at, entry)
                        break
                else:
                    raise LookupError(f"no strategy named {before!r} to insert before")
            self._strategies = strategies

    def unregister(self, name: str) -> bool:
        """Drop strategy *name*; returns whether it was registered."""
        with self._lock:
            strategies = [entry for entry in self._strategies if entry.name != name]
            changed = len(strategies) != len(self._strategies)
            self._strategies = strategies
            return changed

    def strategies(self) -> list[tuple[str, StrategyPredicate]]:
        """The ``(name, predicate)`` pairs in priority order."""
        return [(entry.name, entry.qualifies) for entry in self._strategies]

    def plan(self, pattern: "Pattern", compiled: bool | None = None) -> ExecutionPlan:
        """The execution plan for *pattern* (raises on non-determinism).

        *compiled* overrides the pattern's own execution mode without
        touching its cache identity — how a ``compiled=False`` validator
        runs the direct route over a pattern other surfaces share in
        compiled form.
        """
        if not pattern.report.deterministic:
            raise NotDeterministicError(
                f"cannot match against a non-deterministic expression: {pattern.explain()}",
                report=pattern.report,
            )
        mode = pattern._compiled if compiled is None else bool(compiled)
        for entry in self._strategies:
            if entry.qualifies(pattern, mode):
                return entry.build(pattern)
        raise LookupError(
            f"no registered strategy plans {pattern!r} (registry emptied?)"
        )


def _qualifies_direct(pattern: "Pattern", compiled: bool) -> bool:
    return not compiled


def _qualifies_star_free(pattern: "Pattern", compiled: bool) -> bool:
    # The rewritten tree must be star-free *and* deterministic under the
    # tree semantics — the +/counter fallback cases run on the
    # k-occurrence matcher, whose transition simulation the multi-matcher
    # does not reproduce.
    return compiled and pattern.tree_report.deterministic and not any(
        node.is_iteration for node in pattern.tree.nodes
    )


def _qualifies_kernel(pattern: "Pattern", compiled: bool) -> bool:
    return compiled and kernel.eligible(pattern.tree)


def _qualifies_runtime(pattern: "Pattern", compiled: bool) -> bool:
    return compiled


#: The process-wide planner every surface consults.  Future dialect
#: engines register here (``PLANNER.register(..., before="star-free-multi")``)
#: and instantly serve ``Pattern.match``/``match_all``, diagnostics
#: replay, the lexer, both XML validators and all three serving fronts.
PLANNER = Planner()
PLANNER.register("per-word", _qualifies_direct, DirectPlan)
PLANNER.register("star-free-multi", _qualifies_star_free, StarFreePlan)
PLANNER.register("compiled-kernel", _qualifies_kernel, KernelPlan)
PLANNER.register("compiled-runtime", _qualifies_runtime, RuntimePlan)


def plan_for(pattern: "Pattern", compiled: bool | None = None) -> ExecutionPlan:
    """Module-level convenience over :data:`PLANNER`."""
    return PLANNER.plan(pattern, compiled=compiled)


__all__ = [
    "CompiledPlan",
    "DirectPlan",
    "ExecutionPlan",
    "KernelPlan",
    "PLANNER",
    "Planner",
    "RuntimePlan",
    "StarFreePlan",
    "plan_for",
]
