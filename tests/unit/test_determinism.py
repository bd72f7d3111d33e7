"""Unit tests for the linear-time determinism test (Theorem 3.5)."""

import pytest

from repro.automata.glushkov import GlushkovAutomaton
from repro.core.determinism import DeterminismChecker, check_deterministic, is_deterministic
from repro.core.follow import FollowIndex
from repro.regex.parse_tree import build_parse_tree
from repro.regex.parser import parse


class TestPaperExamples:
    def test_e1_is_deterministic(self):
        assert is_deterministic("(ab+b(b?)a)*")

    def test_e2_is_not_deterministic(self):
        assert not is_deterministic("(a*ba+bb)*")

    def test_intro_example_ab_star_b(self):
        assert not is_deterministic("ab*b")

    def test_figure1_expression_is_deterministic(self):
        assert is_deterministic("(c?((ab*)(a?c)))*(ba)")

    def test_mixed_content_is_deterministic(self):
        from repro.regex.generators import mixed_content

        assert is_deterministic(mixed_content(40))

    def test_mixed_content_with_duplicate_is_not(self):
        assert not is_deterministic("(a+b+a)*")

    # The Section 3.2 walk-through of combinations (1) and (2):
    def test_combination_one_nullable_right_child(self):
        assert not is_deterministic("(c(b?a?))a")

    def test_combination_one_variant_with_swapped_optionals(self):
        assert not is_deterministic("(c(a?b?))a")

    def test_combination_one_variant_with_star(self):
        assert not is_deterministic("(c(b?a)*)a")

    def test_combination_one_non_nullable_right_child_is_fine(self):
        assert is_deterministic("(c(b?a))a")

    def test_combination_two_star_loop(self):
        assert is_deterministic("(a(b?a))*")
        assert not is_deterministic("(a(b?a?))*")


class TestOneOREs:
    def test_one_ore_expressions_are_always_deterministic(self, rng):
        """1-OREs are always deterministic under the native DTD semantics of '+';
        the API-level check applies that semantics (the tree-level check judges
        the E E* rewriting instead, which can differ — see Pattern's docstring)."""
        import repro
        from repro.regex.generators import random_one_ore

        for _ in range(50):
            assert repro.is_deterministic(random_one_ore(rng, rng.randint(1, 15)))


class TestReports:
    def test_report_for_deterministic_expression(self):
        report = check_deterministic("(ab)*c")
        assert report.deterministic
        assert bool(report)
        assert report.conflict is None
        assert report.describe() == "deterministic"

    def test_report_conflict_is_a_real_conflict(self):
        tree = build_parse_tree("(a*ba+bb)*")
        report = check_deterministic(tree)
        assert not report.deterministic
        conflict = report.conflict
        assert conflict is not None
        assert conflict.first.symbol == conflict.second.symbol == conflict.symbol
        assert conflict.first is not conflict.second
        follow = FollowIndex(tree)
        assert follow.follows(conflict.source, conflict.first)
        assert follow.follows(conflict.source, conflict.second)

    def test_report_reason_is_one_of_the_rules(self, rng):
        from repro.regex.generators import random_expression

        reasons = set()
        for _ in range(300):
            expr = random_expression(rng, rng.randint(1, 10))
            report = check_deterministic(expr)
            if not report.deterministic:
                assert report.reason in {"P1", "P2", "overflow", "witness-next", "witness-first"}
                reasons.add(report.reason)
        assert "P1" in reasons  # the most common rule should certainly appear

    def test_describe_mentions_positions(self):
        report = check_deterministic("ab*b")
        assert "non-deterministic" in report.describe()
        assert "'b'" in report.describe()

    def test_checker_reuses_cached_report(self):
        checker = DeterminismChecker(build_parse_tree("(ab)*"))
        assert checker.report() is checker.report()
        assert checker.is_deterministic()


class TestAgainstGlushkovBaseline:
    def test_agreement_on_random_expressions(self, rng):
        from repro.regex.generators import random_expression

        for _ in range(400):
            expr = random_expression(rng, rng.randint(1, 12))
            tree = build_parse_tree(expr)
            baseline = GlushkovAutomaton(tree).is_deterministic()
            assert check_deterministic(tree).deterministic == baseline, str(expr)

    def test_agreement_on_dtd_like_corpus(self, rng):
        from repro.regex.generators import dtd_corpus

        for expr in dtd_corpus(rng, 150):
            tree = build_parse_tree(expr)
            glushkov_verdict = GlushkovAutomaton(tree).is_deterministic()
            assert check_deterministic(tree).deterministic == glushkov_verdict

    def test_agreement_on_families(self):
        from tests.conftest import deterministic_family_samples

        for expr in deterministic_family_samples():
            tree = build_parse_tree(expr)
            assert check_deterministic(tree).deterministic
            assert GlushkovAutomaton(tree).is_deterministic()


class TestInputKinds:
    def test_accepts_text_ast_and_tree(self):
        assert is_deterministic("ab")
        assert is_deterministic(parse("ab"))
        assert is_deterministic(build_parse_tree("ab"))

    def test_empty_language_of_epsilon_only(self):
        from repro.regex.ast import Epsilon

        assert is_deterministic(Epsilon())

    def test_single_symbol(self):
        assert is_deterministic("a")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a?a", False),          # both a's follow the start
            ("a*a", False),
            ("(a?b)*a", False),
            ("(ab?)*", True),
            ("(a+b)(a+c)", True),
            ("(a+b)?(a+c)", False),
            ("b?(ab)*a?", False),  # a2 and a4 are both first positions
            ("b(ab)*c?", True),
            ("((a+b)c)*a", False),
            ("((a+b)c)*d", True),
        ],
    )
    def test_handpicked_cases(self, text, expected):
        assert is_deterministic(text) is expected


class TestReleasedSkeletons:
    @pytest.mark.parametrize("text", ["(ab+b(b?)a)*", "(a*ba+bb)*"])
    def test_release_keeps_the_report_and_rebuilds_on_demand(self, text):
        checker = DeterminismChecker(build_parse_tree(text))
        report = checker.report()
        size = checker.skeletons.total_skeleton_size()
        checker.release_skeletons()
        assert checker._skeletons is None
        assert checker.report() is report
        assert checker.skeletons.total_skeleton_size() == size
