"""The climbing matcher: O(depth(e)) transition simulation.

Section 4.3 introduces the path-decomposition algorithm as a speed-up of
a "naïve" climbing procedure: starting from the current position, walk up
the parse tree until an ancestor is found through which an a-labelled
follow position is reachable.  By Lemma 3.3 it is enough to climb to the
*lowest ancestor carrying color a* and examine its three candidate
positions (witness, FirstPos, Next); checkIfFollow picks the right one.

The climbing matcher is therefore the lowest-colored-ancestor matcher of
Theorem 4.2 with the O(log log |e|) ancestor query replaced by a plain
parent walk: O(depth(e)) per consumed symbol, O(|e| + depth(e)·|w|) per
word.  It is kept as a baseline for experiments E4/E5 and as a reference
implementation against which the cleverer matchers are tested.
"""

from __future__ import annotations

from ..regex.parse_tree import TreeNode
from .base import DeterministicMatcher


class ClimbingMatcher(DeterministicMatcher):
    """Transition simulation by climbing to the lowest colored ancestor."""

    name = "climbing"
    reads_skeletons = True

    def _prepare(self) -> None:
        self._skeletons = self.checker.skeletons

    def next_position(self, position: TreeNode, symbol: str) -> TreeNode | None:
        """Walk up from *position* until a node colored *symbol* resolves the move."""
        skeletons = self._skeletons
        follows_maybe = self.follow.follows_maybe
        node: TreeNode | None = position
        while node is not None:
            by_symbol = skeletons.colors.get(node.index)
            if by_symbol is not None and symbol in by_symbol:
                witness = by_symbol[symbol]
                if follows_maybe(position, witness):
                    return witness
                first_pos = skeletons.first_pos(node, symbol)
                if first_pos is not None and follows_maybe(position, first_pos):
                    return first_pos
                next_position = skeletons.next_position(node, symbol)
                if next_position is not None and follows_maybe(position, next_position):
                    return next_position
                # Lemma 3.3: the lowest colored ancestor already carries every
                # possible a-labelled follower of `position`.
                return None
            node = node.parent
        return None
