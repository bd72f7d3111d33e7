"""The lowest-colored-ancestor matcher (Section 4.1, Theorem 4.2).

The linear-time determinism construction colors the parent of every
``pSupFirst`` node with the labels of the positions it announces.  By
Lemma 3.3, the a-labelled follower of a position ``p`` (if any) is one of
``Witness(n,a)``, ``FirstPos(n,a)``, ``Next(n,a)`` where ``n`` is the
*lowest ancestor of p carrying color a* — so transition simulation is one
lowest-colored-ancestor query plus at most three constant-time
``checkIfFollow`` probes.

Lowest colored ancestor queries are answered by
:class:`~repro.structures.colored_ancestor.ColoredAncestorIndex`
(heavy paths + van Emde Boas predecessor search), giving the
``O(|e| + |w| log log |e|)``-style bound of Theorem 4.2 (see DESIGN.md for
the precise query cost of our substitute structure).
"""

from __future__ import annotations

from ..regex.parse_tree import TreeNode
from ..structures.colored_ancestor import ColoredAncestorIndex
from .base import DeterministicMatcher


class LowestColoredAncestorMatcher(DeterministicMatcher):
    """Theorem 4.2: matching arbitrary deterministic expressions."""

    name = "lowest-colored-ancestor"
    reads_skeletons = True

    def _prepare(self) -> None:
        skeletons = self.checker.skeletons
        self._skeletons = skeletons
        self._ancestors: ColoredAncestorIndex[TreeNode] = ColoredAncestorIndex(
            self.tree.root, self.tree.nodes
        )
        for node, symbol in skeletons.color_assignments():
            self._ancestors.assign_color(node, symbol)

    def next_position(self, position: TreeNode, symbol: str) -> TreeNode | None:
        """Example 4.1's procedure: one ancestor query, three candidate probes."""
        node = self._ancestors.lowest_colored_ancestor(position, symbol)
        if node is None:
            return None
        skeletons = self._skeletons
        follows_maybe = self.follow.follows_maybe

        witness = skeletons.witness(node, symbol)
        if follows_maybe(position, witness):
            return witness
        first_pos = skeletons.first_pos(node, symbol)
        if first_pos is not None and follows_maybe(position, first_pos):
            return first_pos
        next_position = skeletons.next_position(node, symbol)
        if next_position is not None and follows_maybe(position, next_position):
            return next_position
        return None

    # -- instrumentation -----------------------------------------------------------
    def color_assignment_count(self) -> int:
        """Number of (node, color) assignments (the ``C`` of the preprocessing bound)."""
        return self._ancestors.total_assignments
