"""Unit tests for determinism with numeric occurrence indicators (Section 3.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.numeric import (
    NumericDeterminismChecker,
    check_deterministic_numeric,
    is_deterministic_numeric,
)
from repro.regex.ast import (
    Concat,
    Plus,
    Repeat,
    Star,
    Sym,
    Union,
    concat,
    repeat,
    sym,
    union,
)
from repro.regex.parser import parse


class TestPaperExamples:
    def test_rigid_counter_example_is_deterministic(self):
        """Section 3.3: (ab)^{2..2} a (b+d) is deterministic."""
        assert is_deterministic_numeric("(ab){2}a(b+d)")

    def test_flexible_counter_example_is_not(self):
        """Section 3.3: (ab)^{1..2} a is not deterministic (word aba)."""
        assert not is_deterministic_numeric("(ab){1,2}a")

    def test_nested_interaction_e5(self):
        """Section 3.3 / [19]: ((a^{2..3}+b)^2)^2 b is non-deterministic (word a^8 b)."""
        assert not is_deterministic_numeric("((a{2,3}+b){2}){2}b")

    def test_plain_deterministic_expression(self):
        assert is_deterministic_numeric("(ab+b(b?)a)*")

    def test_plain_non_deterministic_expression(self):
        assert not is_deterministic_numeric("(a*ba+bb)*")


class TestFlexibility:
    def test_star_is_flexible(self):
        checker = NumericDeterminismChecker("(ab)*")
        assert checker.flexibility() == [(0, None, True)]

    def test_range_with_slack_is_flexible(self):
        checker = NumericDeterminismChecker("(ab){1,2}")
        assert checker.flexibility() == [(1, 2, True)]

    def test_exact_counter_on_anchored_body_is_rigid(self):
        checker = NumericDeterminismChecker("(ab){2}")
        assert checker.flexibility() == [(2, 2, False)]

    def test_exact_counter_on_count_ambiguous_body_is_flexible(self):
        checker = NumericDeterminismChecker("(a{2,3}){2}")
        flags = dict(((low, high), flexible) for low, high, flexible in checker.flexibility())
        assert flags[(2, 2)] is True

    def test_exact_counter_on_nullable_body_is_flexible(self):
        checker = NumericDeterminismChecker(Repeat(parse("a?"), 2, 2))
        assert any(flexible for _, _, flexible in checker.flexibility())

    def test_counter_with_anchoring_symbol_stays_rigid_despite_inner_flexibility(self):
        checker = NumericDeterminismChecker("(a{2,3}b){2}")
        flags = {(low, high): flexible for low, high, flexible in checker.flexibility()}
        assert flags[(2, 2)] is False
        assert flags[(2, 3)] is True

    def test_optional_is_not_flexible(self):
        checker = NumericDeterminismChecker("(ab)?")
        assert checker.flexibility() == [(0, 1, False)]


class TestCounterCases:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a{3}a", True),            # the counter forces loop/exit, never a choice
            ("a{2,3}a", False),         # at count 2 both loop and exit read an a
            ("a{2,}a", False),
            ("(a{2,3}b){2}a", True),    # the b anchors the iteration count
            ("(a{2,3}b){2}b", True),    # loop needs an a, exit needs a b
            ("(ab?){3}b", False),       # at the third a both b's are readable
            ("(ab){3}(ab)", True),      # the counter always forces loop or exit
            ("a{0,2}b", True),
            ("(a+b){2}(c+d)", True),
            ("(a+b){1,2}(a+d)", False),
            ("(ab){2}", True),
            ("(a?b){2}a", True),
        ],
    )
    def test_handpicked(self, text, expected):
        assert is_deterministic_numeric(text) is expected

    def test_report_carries_a_conflict(self):
        report = check_deterministic_numeric("(ab){1,2}a")
        assert not report.deterministic
        conflict = report.conflict
        assert conflict is not None
        assert conflict.first.symbol == conflict.second.symbol == "a"
        assert "compete" in report.describe()

    def test_deterministic_report_description(self):
        report = check_deterministic_numeric("(ab){2}c")
        assert report.deterministic
        assert "deterministic" in report.describe()


class TestAgreementWithPlainChecker:
    def test_matches_linear_test_on_plus_free_expressions(self, rng):
        from repro.core.determinism import is_deterministic
        from repro.regex.ast import Plus
        from repro.regex.generators import random_expression

        checked = 0
        for _ in range(200):
            expr = random_expression(rng, rng.randint(1, 9))
            if any(isinstance(node, Plus) for node in expr.iter_nodes()):
                continue  # '+' deliberately uses the native semantics (see api.Pattern)
            checked += 1
            assert is_deterministic_numeric(expr) == is_deterministic(expr), str(expr)
        assert checked > 80

    def test_accepts_ast_input(self):
        particle = concat(repeat(concat(sym("a"), sym("b")), 2, 4), sym("c"))
        assert is_deterministic_numeric(particle)

    def test_shared_ast_subtrees_get_distinct_positions(self):
        shared = Sym("a")
        expr = concat(shared, shared)
        checker = NumericDeterminismChecker(expr)
        assert len(checker.positions) == 2


class TestFollowEdgeProvenance:
    """Regression: conflicts between a counter's loop edge and an enclosing
    iterator's restart edge must be detected.

    ``((d{2,3})+)*`` on ``ddd``: after two d's the inner counter can loop
    (toward 3) or exit and let the enclosing ``+``/``*`` restart it — both
    read a d, so the expression is not deterministic.  The checker once
    collapsed those two follow edges into one (same position pair) and
    missed the conflict; edges now carry their owning-loop provenance.
    """

    def test_flexible_counter_under_an_iterator_is_not_deterministic(self):
        from repro.regex.ast import plus, star

        inner = repeat(sym("d"), 2, 3)
        assert not is_deterministic_numeric(star(plus(inner)))
        assert not is_deterministic_numeric(star(inner))
        assert not is_deterministic_numeric(plus(inner))

    def test_rigid_counter_under_an_iterator_stays_deterministic(self):
        from repro.regex.ast import plus, star

        assert is_deterministic_numeric(star(repeat(sym("d"), 2, 2)))
        assert is_deterministic_numeric(star(plus(concat(sym("d"), sym("d")))))

    def test_plain_iterators_keep_their_native_semantics(self):
        from repro.regex.ast import plus, star

        assert is_deterministic_numeric(star(star(sym("d"))))
        assert is_deterministic_numeric(plus(plus(sym("d"))))
        assert is_deterministic_numeric("d{2,3}")

    def test_conflict_report_names_the_symbol(self):
        from repro.regex.ast import star

        report = check_deterministic_numeric(star(repeat(sym("d"), 2, 3)))
        assert not report.deterministic
        assert report.conflict is not None
        assert report.conflict.first.symbol == report.conflict.second.symbol == "d"


class TestLazyCounts:
    """Multiplicity maps are built only when a rigid ``f{k,k}`` asks for them."""

    @pytest.mark.parametrize(
        "expr",
        [
            parse("(item note?)+ tail*", dialect="named"),
            parse("(a b?)* c"),
            parse("(ab){2,5}c*"),
            repeat(concat(sym("a"), parse("b{2,5}")), 1, None),
        ],
        ids=["plus", "star-optional", "flexible-range", "range-under-plus"],
    )
    def test_no_rigid_counter_builds_no_counts(self, expr):
        checker = NumericDeterminismChecker(expr)
        assert checker.report().deterministic
        assert all(node.counts is None for node in checker._nodes)

    def test_rigid_counter_builds_only_its_body(self):
        checker = NumericDeterminismChecker(parse("(ab){2}c*d"))
        built = [node for node in checker._nodes if node.counts is not None]
        # the body ``ab`` and its two symbols; nothing outside the counter
        assert sorted(node.kind for node in built) == ["concat", "symbol", "symbol"]


class _EagerCounts(NumericDeterminismChecker):
    """The checker with every node's multiplicity map forced up front."""

    def _analyse(self) -> None:
        for node in self._nodes:
            self._counts(node)
        super()._analyse()


_BOUNDS = st.sampled_from([(0, 1), (1, 2), (2, 2), (2, 3), (3, 3), (0, 2), (1, None)])


def _bounded_expressions():
    """Random ASTs with small ``{i,j}`` bounds (rigid ones included) under ``+``/``*``."""

    def extend(children):
        return st.one_of(
            children.map(Star),
            children.map(Plus),
            st.builds(lambda child, bound: Repeat(child, *bound), children, _BOUNDS),
            st.builds(Concat, children, children),
            st.builds(Union, children, children),
        )

    return st.recursive(st.builds(Sym, st.sampled_from("abc")), extend, max_leaves=8)


class TestLazyCountsProperty:
    @settings(max_examples=300, deadline=None)
    @given(_bounded_expressions())
    def test_forcing_counts_changes_no_flag_or_verdict(self, expr):
        lazy = NumericDeterminismChecker(expr)
        eager = _EagerCounts(expr)
        assert all(node.counts is not None for node in eager._nodes)
        assert lazy.flexibility() == eager.flexibility()
        assert lazy.report() == eager.report()
