"""Locks on the public API surface and the moved-name shims.

The ExecutionPlan refactor split ``repro.api`` into a facade plus
``repro.cache`` and ``repro.matching.plan``, and split the asyncio front
into ``aio`` / ``aio_frames`` / ``aio_run``.  These tests pin down that
none of it changed the published surface:

* ``repro.__all__`` is byte-identical to the pre-split export list;
* the signatures user code calls (``compile``, ``match``, ``Pattern``)
  are unchanged;
* internal names that moved keep their old import paths alive through
  ``DeprecationWarning`` shims resolving to the *same* objects, until
  their grace round ends: the ``repro.service.aio`` entry-point shims are
  retired, and the lock below now pins that the old paths are gone.

The shim tests use :func:`pytest.deprecated_call`, so they still pass
under the CI diagnostics leg's ``-W error::DeprecationWarning`` — while
any first-party use of a moved path fails that leg.
"""

from __future__ import annotations

import inspect

import pytest

import repro
from repro import api, cache

EXPECTED_ALL = [
    "AlphabetError",
    "COMPILE_CACHE_SIZE",
    "CompiledRuntime",
    "DTDSyntaxError",
    "DeterminismConflict",
    "DeterminismReport",
    "DiagnosticsError",
    "FollowIndex",
    "InvalidExpressionError",
    "LexError",
    "Lexer",
    "MatchResult",
    "NotDeterministicError",
    "NumericDeterminismReport",
    "Pattern",
    "Regex",
    "Repair",
    "Token",
    "RegexSyntaxError",
    "ReproError",
    "ValidationError",
    "ValidationResult",
    "XMLSyntaxError",
    "__version__",
    "build_matcher",
    "build_parse_tree",
    "cache_stats",
    "check_deterministic",
    "check_deterministic_numeric",
    "compile",
    "is_deterministic",
    "is_deterministic_numeric",
    "iter_cached_patterns",
    "load_snapshot",
    "match",
    "parse",
    "parse_word",
    "purge",
    "resize_compile_cache",
    "save_snapshot",
    "snapshot_stats",
    "stats",
    "to_text",
]


class TestPublicSurface:
    def test_all_is_locked(self):
        assert repro.__all__ == EXPECTED_ALL

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_compile_signature(self):
        parameters = inspect.signature(repro.compile).parameters
        assert list(parameters) == ["expr", "dialect", "strategy", "compiled"]
        assert parameters["dialect"].default == "paper"
        assert parameters["strategy"].default == "auto"
        assert parameters["compiled"].default is True

    def test_pattern_constructor_signature(self):
        parameters = inspect.signature(repro.Pattern).parameters
        assert list(parameters) == ["expr", "dialect", "strategy", "compiled"]

    def test_match_signature(self):
        parameters = inspect.signature(repro.match).parameters
        assert list(parameters) == ["expr", "word", "dialect"]

    def test_match_all_signature(self):
        parameters = inspect.signature(repro.Pattern.match_all).parameters
        assert list(parameters) == ["self", "words", "detail"]
        assert parameters["detail"].default == "verdict"

    def test_pattern_keeps_its_public_members(self):
        pattern = repro.compile("(ab+b(b?)a)*")
        for member in (
            "match",
            "match_all",
            "stream",
            "describe",
            "stats",
            "runtime_stats",
            "cache_stats",
            "acceptance_memo",
            "is_deterministic",
            "explain",
            "matcher",
            "runtime",
            "plan",
        ):
            assert hasattr(pattern, member), member


class TestMovedNameShims:
    """Old private import paths warn but still resolve to the real objects."""

    @pytest.mark.parametrize(
        ("old_name", "target"),
        sorted(api._MOVED_TO_CACHE.items()),
    )
    def test_api_to_cache_shims(self, old_name, target):
        with pytest.deprecated_call(match=f"moved to repro.cache.{target}"):
            shimmed = getattr(api, old_name)
        assert shimmed is getattr(cache, target)

    def test_aio_entry_points_live_only_in_aio_run(self):
        """The ``repro.service.aio`` shims are retired: the entry points
        resolve from ``aio_run`` alone, and the old paths raise."""
        from repro.service import aio, aio_run

        for name in ("serve", "run_prefork_worker", "_serve_async"):
            assert callable(getattr(aio_run, name))
            with pytest.raises(AttributeError):
                getattr(aio, name)

    def test_unknown_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            api.no_such_name
        from repro.service import aio

        with pytest.raises(AttributeError):
            aio.no_such_name

    def test_deprecated_stats_aliases_delegate(self):
        with pytest.deprecated_call():
            assert repro.cache_stats() == repro.stats()["pattern_cache"]
        with pytest.deprecated_call():
            snapshot = repro.snapshot_stats()
        assert snapshot.keys() == repro.stats()["snapshot"].keys()
