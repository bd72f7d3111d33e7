"""Route stability of the ExecutionPlan layer (``repro.matching.plan``).

Every surface obtains its engine through :data:`~repro.matching.plan.PLANNER`,
so the route a pattern class takes is a contract: ``describe()["batch_path"]``
must name the plan that actually executes, across pattern classes and
across both kernel backends (``REPRO_KERNEL=pure|native`` — the native
backend degrades to pure when the library is absent, but the *route*
never changes with the backend).

The matrix pins:

* which route each pattern class plans (star-free, counted ``Repeat``,
  XSD particles, lexer unions, uncompiled patterns, oversized machines);
* that ``describe()["batch_path"]`` reads the plan actually executed —
  verified against execution telemetry (which engines were built, where
  the batch words were booked) rather than a second copy of the
  selection logic.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.skeleton import SkeletonIndex
from repro.lexer import Lexer
from repro.matching import kernel
from repro.matching.plan import PLANNER
from repro.structures.lca import LCAIndex
from repro.xml.xsd import element_particle, sequence

WORDS = ["ab", "aba", "abb", "ba", "", "abab", "bba", "abba", "b", "a"] * 2

ROUTE_MATRIX = [
    # (label, expression builder, compiled, expected route)
    ("star-free", lambda: "ab(a+b)", True, "star-free-multi"),
    ("starred", lambda: "(ab+b(b?)a)*", True, "compiled-kernel"),
    ("uncompiled", lambda: "ab(a+b)", False, "per-word"),
    (
        "counted-repeat-bounded",
        lambda: sequence(element_particle("b", 1, 4)).to_regex(),
        True,
        "star-free-multi",
    ),
    (
        "counted-repeat-unbounded",
        lambda: sequence(element_particle("b", 1, None)).to_regex(),
        True,
        "compiled-kernel",
    ),
]


@pytest.fixture(params=["pure", "native"])
def forced_backend(request, monkeypatch):
    """Force each kernel backend; routes must be identical under both."""
    monkeypatch.setenv("REPRO_KERNEL", request.param)
    return request.param


class TestRouteMatrix:
    @pytest.mark.parametrize(
        ("label", "build", "compiled", "route"),
        ROUTE_MATRIX,
        ids=[row[0] for row in ROUTE_MATRIX],
    )
    def test_route_is_stable_and_reported(self, forced_backend, label, build, compiled, route):
        pattern = repro.Pattern(build(), compiled=compiled)
        assert pattern.plan.route == route
        assert pattern.describe()["batch_path"] == route
        # The route survives matching (plans are planned once, not per call).
        pattern.match_all(WORDS)
        assert pattern.describe()["batch_path"] == route

    def test_lexer_union_routes_through_the_kernel_plan(self, forced_backend):
        lexer = Lexer([("AB", "ab(ab)*"), ("C", "cc*")])
        assert lexer.pattern.plan.route == "compiled-kernel"
        assert lexer._plan is lexer.pattern.plan
        assert [t.tag for t in lexer.tokens("ababcc")] == ["AB", "C"]

    def test_oversized_machine_routes_to_runtime(self, forced_backend, monkeypatch):
        monkeypatch.setattr(kernel, "TABLE_LIMIT", 1)
        pattern = repro.Pattern("(ab+b(b?)a)*")
        assert pattern.plan.route == "compiled-runtime"
        assert pattern.describe()["batch_path"] == "compiled-runtime"
        assert pattern.match_all(["abba", "bb"]) == [True, False]


class TestRouteMatchesExecution:
    """``batch_path`` names the plan that actually ran, not a prediction."""

    def test_star_free_route_builds_the_multi_not_the_runtime(self, forced_backend):
        pattern = repro.Pattern("ab(a+b)")
        assert pattern.match_all(["aba", "abb", "ab", ""]) == [True, True, False, False]
        assert pattern.plan.built_star_free() is not None
        # The verdict batch ran on the multi-matcher alone: no lazy DFA.
        assert pattern._built_runtime() is None

    def test_kernel_route_books_batch_words_on_the_pattern(self, forced_backend):
        pattern = repro.Pattern("(ab+b(b?)a)*")
        verdicts = pattern.match_all(WORDS)
        assert len(verdicts) == len(WORDS)
        stats = pattern.stats()
        booked = stats["kernel_words"] + stats["kernel_fallback_words"]
        assert booked == len(WORDS)

    def test_runtime_route_books_nothing_on_the_kernel(self, forced_backend, monkeypatch):
        monkeypatch.setattr(kernel, "TABLE_LIMIT", 1)
        pattern = repro.Pattern("(ab+b(b?)a)*")
        pattern.match_all(WORDS)
        stats = pattern.stats()
        assert stats["kernel_words"] == 0
        assert stats["kernel_fallback_words"] == 0

    def test_per_word_route_never_builds_compiled_engines(self, forced_backend):
        pattern = repro.Pattern("ab(a+b)", compiled=False)
        assert pattern.match_all(["aba", "ba"]) == [True, False]
        assert pattern.plan.built_runtime() is None
        assert pattern.plan.built_star_free() is None


class TestOneFollowIndexPerPattern:
    """``compile`` + first ``match`` + ``match_all`` build one LCA index per pattern.

    The determinism test's follow index is handed to every engine the
    pattern builds: the matcher, the star-free multi-matcher and the
    k-occurrence fallback.  Its skeletons go to the matchers that read
    them and are never built a second time.
    """

    KERNEL = "compiled-kernel"
    STARRED = "(ab+b(b?)a)*"
    ROUTES = [
        # (label, expression, Pattern keyword arguments, kernel table limit, route)
        ("star-free-multi", "ab(a+b)", {}, None, "star-free-multi"),
        ("compiled-kernel", STARRED, {}, None, KERNEL),
        ("compiled-runtime", STARRED, {}, 1, "compiled-runtime"),
        ("plus-fallback", "(a | b+)+", {"dialect": "named"}, None, KERNEL),
        ("lowest-colored-ancestor", STARRED, {"strategy": "lowest-colored-ancestor"}, None, KERNEL),
        ("climbing", STARRED, {"strategy": "climbing"}, None, KERNEL),
    ]

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the constructions of the LCA and skeleton indexes."""
        counts = {LCAIndex: 0, SkeletonIndex: 0}
        for cls in counts:
            original = cls.__init__

            def counting_init(index, *args, _cls=cls, _original=original):
                counts[_cls] += 1
                _original(index, *args)

            monkeypatch.setattr(cls, "__init__", counting_init)
        return counts

    @pytest.mark.parametrize(
        ("expr", "options", "table_limit", "route"),
        [row[1:] for row in ROUTES],
        ids=[row[0] for row in ROUTES],
    )
    def test_one_lca_index(self, builds, monkeypatch, expr, options, table_limit, route):
        if table_limit is not None:
            monkeypatch.setattr(kernel, "TABLE_LIMIT", table_limit)
        words = [list(word) for word in WORDS]
        pattern = repro.Pattern(expr, **options)
        pattern.match(words[0])
        verdicts = pattern.match_all(words)
        assert builds == {LCAIndex: 1, SkeletonIndex: 1}
        assert pattern.plan.route == route
        assert verdicts == [bool(pattern.match(word)) for word in words]

    @pytest.mark.parametrize(
        ("strategy", "keeps_skeletons"),
        [
            ("k-occurrence", False),
            ("path-decomposition", False),
            ("lowest-colored-ancestor", True),
            ("climbing", True),
        ],
    )
    def test_skeletons_survive_only_for_matchers_that_read_them(self, strategy, keeps_skeletons):
        pattern = repro.Pattern(self.STARRED, strategy=strategy)
        assert pattern.match("abba")
        assert (pattern._checker._skeletons is not None) is keeps_skeletons
        assert pattern.matcher.follow is pattern._checker.follow


class TestPlannerRegistry:
    def test_registered_strategy_order(self):
        names = [name for name, _qualifies in PLANNER.strategies()]
        assert names == ["per-word", "star-free-multi", "compiled-kernel", "compiled-runtime"]

    def test_dialect_seam_accepts_and_removes_a_strategy(self):
        """The registry is the landing seam for future dialect engines."""
        built = []

        def qualifies(pattern, compiled):
            return compiled and pattern.expression is marker

        class _Probe:
            route = "probe-engine"

            def __init__(self, pattern):
                built.append(pattern)

        PLANNER.register("probe-engine", qualifies, _Probe, before="star-free-multi")
        try:
            marker = repro.Pattern("ab").expression
            probed = repro.Pattern(marker)
            assert probed.plan.route == "probe-engine"
            # Patterns the new strategy declines keep their old routes.
            assert repro.Pattern("ab(a+b)").plan.route == "star-free-multi"
        finally:
            PLANNER.unregister("probe-engine")
        assert built, "the registered builder was never used"
        assert repro.Pattern(marker).plan.route == "star-free-multi"
