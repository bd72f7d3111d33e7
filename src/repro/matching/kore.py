"""Matching k-occurrence expressions (Section 4.2, Theorem 4.3).

A k-occurrence expression (k-ORE) uses every symbol at most ``k`` times,
and real-world schemas are overwhelmingly 1-OREs (Bex et al., cited in
the paper).  Transition simulation is then trivial: gather the a-labelled
positions during preprocessing and probe each with the constant-time
``checkIfFollow`` test — at most ``k`` probes per consumed symbol, hence
``O(|e| + k|w|)`` matching.

The module also provides the non-deterministic variant sketched after
Theorem 4.3: for a (possibly non-deterministic) k-ORE, maintain the *set*
of reachable positions; each step costs ``O(k^2)`` follow probes.
"""

from __future__ import annotations

from typing import Iterable

from ..core.follow import FollowIndex
from ..regex.ast import Regex
from ..regex.parse_tree import ParseTree, TreeNode, build_parse_tree
from .base import DeterministicMatcher


class KOccurrenceMatcher(DeterministicMatcher):
    """Theorem 4.3: deterministic k-ORE matching in O(|e| + k|w|)."""

    name = "k-occurrence"

    def _prepare(self) -> None:
        # The tree's per-symbol position table; the list for symbol a has
        # length <= k by definition of k-ORE.
        self._positions_by_symbol = self.tree.symbol_positions

    @property
    def occurrence_bound(self) -> int:
        """The ``k`` of the expression (maximum positions sharing a symbol)."""
        return self.tree.occurrence_count()

    def next_position(self, position: TreeNode, symbol: str) -> TreeNode | None:
        """Probe the (at most k) candidate positions labelled *symbol*."""
        follows = self.follow.follows
        for candidate in self._positions_by_symbol.get(symbol, ()):
            if follows(position, candidate):
                return candidate
        return None


class SubsetKOccurrenceMatcher:
    """The non-deterministic variant: subset simulation over follow probes.

    Works for *any* expression (deterministic or not); each consumed symbol
    costs ``O(k * |current set|)`` follow probes, i.e. ``O(k^2)`` for a
    k-ORE, giving the ``O(|e| + k^2 |w|)`` bound mentioned in the paper.
    Unlike the Glushkov baseline it never materialises the transition
    relation, so preprocessing stays O(|e|).
    """

    name = "k-occurrence-subset"

    def __init__(self, expr: Regex | ParseTree | str):
        self.tree = expr if isinstance(expr, ParseTree) else build_parse_tree(expr)
        self.follow = FollowIndex(self.tree)

    def step(self, current: list[TreeNode], symbol: str) -> list[TreeNode]:
        """All *symbol*-labelled positions following any position of *current*."""
        follows = self.follow.follows
        return [
            candidate
            for candidate in self.tree.positions_by_symbol(symbol)
            if any(follows(position, candidate) for position in current)
        ]

    def accepts(self, word: Iterable[str]) -> bool:
        """Membership test by subset simulation of follow probes."""
        current = [self.tree.start]
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        end = self.tree.end
        follows = self.follow.follows
        return any(follows(position, end) for position in current)
