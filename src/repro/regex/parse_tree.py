"""The pointer-based parse tree on which all paper algorithms operate.

Section 2 of the paper identifies an expression with its parse tree and
requires three restrictions:

(R1) ``e = (# e') $`` where the sentinels ``#`` and ``$`` do not occur in
     ``e'``;
(R2) no directly nested unbounded iterations;
(R3) ``(f)?`` only for non-nullable ``f``.

:func:`build_parse_tree` takes an AST, normalises it
(:mod:`repro.regex.normalize`), wraps it per (R1) and produces a
:class:`ParseTree` of :class:`TreeNode` objects carrying every derived
annotation the paper's algorithms need:

* ``nullable`` per node (syntax-directed, Section 2),
* ``sup_first`` / ``sup_last`` flags and the ``p_sup_first`` /
  ``p_sup_last`` pointers (lowest reflexive ancestor with the flag),
* ``p_star`` — the lowest reflexive ancestor labelled with an unbounded
  iteration (star or plus),
* pre/post order numbers giving O(1) (reflexive) ancestor tests,
* ``depth`` and a left-to-right numbering of the positions (leaves).

All annotations are computed in O(|e|).  The marked expression of the
paper (positions subscripted left to right) corresponds to
``ParseTree.positions``: position ``i`` is ``positions[i]``.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Sequence

from ..errors import InvalidExpressionError
from .alphabet import Alphabet, END_SENTINEL, START_SENTINEL, SENTINELS
from .ast import (
    Concat,
    ensure_recursion_capacity,
    Epsilon,
    Optional as OptionalNode,
    Plus,
    Regex,
    Repeat,
    Star,
    Sym,
    Union,
)
from .normalize import normalize
from .parser import parse


class NodeKind(str, Enum):
    """Label of a parse-tree node (the ``lab`` function of the paper)."""

    SYMBOL = "symbol"
    CONCAT = "concat"
    UNION = "union"
    STAR = "star"
    PLUS = "plus"
    OPTIONAL = "optional"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Kinds that denote an unbounded iteration; the paper only has ``*`` but a
#: ``+`` node follows the same Lemma 2.2 case (2) semantics.
ITERATION_KINDS = (NodeKind.STAR, NodeKind.PLUS)


class TreeNode:
    """A single node of the parse tree with all derived annotations.

    Instances are created by :func:`build_parse_tree`; user code treats
    them as read-only.  ``symbol`` is only meaningful for ``SYMBOL``
    leaves, ``position_index`` is the left-to-right index of a leaf and
    ``-1`` for internal nodes.
    """

    __slots__ = (
        "kind",
        "symbol",
        "parent",
        "left",
        "right",
        "index",
        "position_index",
        "depth",
        "pre",
        "post",
        "nullable",
        "sup_first",
        "sup_last",
        "p_sup_first",
        "p_sup_last",
        "p_star",
    )

    def __init__(self, kind: NodeKind, symbol: str | None = None):
        self.kind = kind
        self.symbol = symbol
        self.parent: TreeNode | None = None
        self.left: TreeNode | None = None
        self.right: TreeNode | None = None
        self.index = -1
        self.position_index = -1
        self.depth = 0
        self.pre = -1
        self.post = -1
        self.nullable = False
        self.sup_first = False
        self.sup_last = False
        self.p_sup_first: TreeNode | None = None
        self.p_sup_last: TreeNode | None = None
        self.p_star: TreeNode | None = None

    # -- structure ----------------------------------------------------------
    @property
    def is_position(self) -> bool:
        """True for leaves (positions of the expression, sentinels included)."""
        return self.kind is NodeKind.SYMBOL

    @property
    def is_iteration(self) -> bool:
        """True for star/plus nodes (the ``*``-labelled nodes of the paper)."""
        return self.kind in ITERATION_KINDS

    def children(self) -> tuple["TreeNode", ...]:
        if self.left is None:
            return ()
        if self.right is None:
            return (self.left,)
        return (self.left, self.right)

    def is_ancestor_of(self, other: "TreeNode") -> bool:
        """Reflexive ancestor test (the paper's ``n ≼ m``), O(1)."""
        return self.pre <= other.pre and other.post <= self.post

    def is_strict_ancestor_of(self, other: "TreeNode") -> bool:
        """Strict ancestor test, O(1)."""
        return self is not other and self.is_ancestor_of(other)

    def subtree(self) -> Iterator["TreeNode"]:
        """Yield the nodes of this subtree in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_position:
            return f"<pos {self.position_index} {self.symbol!r}>"
        return f"<{self.kind.value} #{self.index}>"


class ParseTree:
    """A fully annotated, R1-wrapped parse tree.

    Attributes
    ----------
    root:
        The outermost concatenation node ``((# e') $)``.
    inner_root:
        The root of the user expression ``e'`` (``None`` when the user
        expression denotes only the empty word).
    nodes:
        All nodes in pre-order; ``nodes[i].index == i``.
    positions:
        All leaves in left-to-right order (sentinels included);
        ``positions[i].position_index == i``.
    start / end:
        The ``#`` and ``$`` sentinel positions.
    alphabet:
        The user symbols (sentinels excluded) with dense integer codes.
    source:
        The normalised AST the tree was built from (without sentinels).
    """

    __slots__ = (
        "root",
        "inner_root",
        "nodes",
        "positions",
        "start",
        "end",
        "alphabet",
        "source",
        "_positions_by_symbol",
    )

    def __init__(
        self,
        root: TreeNode,
        inner_root: TreeNode | None,
        nodes: list[TreeNode],
        positions: list[TreeNode],
        alphabet: Alphabet,
        source: Regex,
    ):
        self.root = root
        self.inner_root = inner_root
        self.nodes = nodes
        self.positions = positions
        self.start = positions[0]
        self.end = positions[-1]
        self.alphabet = alphabet
        self.source = source
        self._positions_by_symbol: dict[str, list[TreeNode]] | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[TreeNode]:
        return iter(self.nodes)

    @property
    def size(self) -> int:
        """Number of nodes, the ``|e|`` of the complexity statements."""
        return len(self.nodes)

    @property
    def num_positions(self) -> int:
        """Number of positions including the two sentinels."""
        return len(self.positions)

    @property
    def symbol_positions(self) -> dict[str, list[TreeNode]]:
        """Symbol → its positions in left-to-right order (built once; read-only)."""
        if self._positions_by_symbol is None:
            table: dict[str, list[TreeNode]] = {}
            for position in self.positions:
                table.setdefault(position.symbol, []).append(position)
            self._positions_by_symbol = table
        return self._positions_by_symbol

    def positions_by_symbol(self, symbol: str) -> list[TreeNode]:
        """Return the positions labelled *symbol*, in left-to-right order."""
        return self.symbol_positions.get(symbol, [])

    def occurrence_count(self) -> int:
        """Maximum occurrences of any user symbol (the ``k`` of k-ORE)."""
        best = 0
        for symbol in self.alphabet:
            best = max(best, len(self.positions_by_symbol(symbol)))
        return best

    def subexpression_positions(self, node: TreeNode) -> list[TreeNode]:
        """Return the positions below *node* in left-to-right order."""
        return [n for n in node.subtree() if n.is_position]

    def depth(self) -> int:
        """Length of the longest root-to-node path."""
        return max(node.depth for node in self.nodes)

    def lca_naive(self, a: TreeNode, b: TreeNode) -> TreeNode:
        """Lowest common ancestor by pointer chasing (O(depth)); used by
        tests and by code paths that only need a handful of queries.  The
        constant-time version lives in :mod:`repro.structures.lca`."""
        if a.is_ancestor_of(b):
            return a
        node = a
        while node is not None and not node.is_ancestor_of(b):
            node = node.parent
        if node is None:  # pragma: no cover - both nodes share the root
            raise InvalidExpressionError("nodes do not belong to the same tree")
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParseTree(size={self.size}, positions={self.num_positions})"


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_parse_tree(expr: Regex | str, dialect: str = "paper") -> ParseTree:
    """Normalise *expr*, wrap it per (R1) and return the annotated tree.

    *expr* may be an AST or a textual expression (parsed with *dialect*).
    Numeric repetitions are expanded (see :mod:`repro.regex.normalize`);
    use :mod:`repro.core.numeric` for counter-aware determinism checking.
    """
    if isinstance(expr, str):
        expr = parse(expr, dialect=dialect)
    _reject_sentinel_symbols(expr)
    ensure_recursion_capacity(expr, multiplier=3)
    normalised = normalize(expr, expand_numeric=True)

    start_leaf = TreeNode(NodeKind.SYMBOL, START_SENTINEL)
    end_leaf = TreeNode(NodeKind.SYMBOL, END_SENTINEL)

    if isinstance(normalised, Epsilon):
        inner: TreeNode | None = None
        left_part: TreeNode = start_leaf
    else:
        inner = _convert(normalised)
        left_part = _make_internal(NodeKind.CONCAT, start_leaf, inner)
    root = _make_internal(NodeKind.CONCAT, left_part, end_leaf)

    nodes, positions = _number(root)
    alphabet = Alphabet(
        position.symbol for position in positions if position.symbol not in SENTINELS
    ).freeze()
    _annotate_nullable(nodes)
    _annotate_pointers(root, nodes)
    return ParseTree(root, inner, nodes, positions, alphabet, normalised)


def tree_from_text(text: str, dialect: str = "paper") -> ParseTree:
    """Convenience wrapper: parse *text* and build its parse tree."""
    return build_parse_tree(parse(text, dialect=dialect))


def _reject_sentinel_symbols(expr: Regex) -> None:
    used = expr.symbols() & set(SENTINELS)
    if used:
        raise InvalidExpressionError(
            f"symbols {sorted(used)!r} are reserved for the R1 sentinels"
        )


def _convert(expr: Regex) -> TreeNode:
    """Recursively convert a normalised AST into fresh tree nodes."""
    if isinstance(expr, Sym):
        return TreeNode(NodeKind.SYMBOL, expr.symbol)
    if isinstance(expr, Concat):
        return _make_internal(NodeKind.CONCAT, _convert(expr.left), _convert(expr.right))
    if isinstance(expr, Union):
        return _make_internal(NodeKind.UNION, _convert(expr.left), _convert(expr.right))
    if isinstance(expr, Star):
        return _make_internal(NodeKind.STAR, _convert(expr.child), None)
    if isinstance(expr, Plus):
        return _make_internal(NodeKind.PLUS, _convert(expr.child), None)
    if isinstance(expr, OptionalNode):
        return _make_internal(NodeKind.OPTIONAL, _convert(expr.child), None)
    if isinstance(expr, (Repeat, Epsilon)):
        raise InvalidExpressionError(
            f"{type(expr).__name__} nodes must be removed by normalisation before "
            "building the parse tree"
        )
    raise TypeError(f"unknown AST node: {expr!r}")


def _make_internal(kind: NodeKind, left: TreeNode, right: TreeNode | None) -> TreeNode:
    node = TreeNode(kind)
    node.left = left
    node.right = right
    left.parent = node
    if right is not None:
        right.parent = node
    return node


def _number(root: TreeNode) -> tuple[list[TreeNode], list[TreeNode]]:
    """Assign pre/post numbers, depths and position indices in one traversal."""
    nodes: list[TreeNode] = []
    positions: list[TreeNode] = []
    counter = 0
    # Iterative pre/post traversal: (node, entering) pairs.
    stack: list[tuple[TreeNode, bool]] = [(root, True)]
    while stack:
        node, entering = stack.pop()
        if entering:
            node.index = len(nodes)
            node.pre = counter
            counter += 1
            node.depth = 0 if node.parent is None else node.parent.depth + 1
            nodes.append(node)
            if node.is_position:
                node.position_index = len(positions)
                positions.append(node)
            stack.append((node, False))
            if node.right is not None:
                stack.append((node.right, True))
            if node.left is not None:
                stack.append((node.left, True))
        else:
            node.post = counter
            counter += 1
    return nodes, positions


def _annotate_nullable(nodes: Sequence[TreeNode]) -> None:
    """Syntax-directed nullability, computed bottom-up (reverse pre-order)."""
    for node in reversed(nodes):
        if node.kind is NodeKind.SYMBOL:
            node.nullable = False
        elif node.kind is NodeKind.CONCAT:
            node.nullable = node.left.nullable and node.right.nullable
        elif node.kind is NodeKind.UNION:
            node.nullable = node.left.nullable or node.right.nullable
        elif node.kind is NodeKind.STAR or node.kind is NodeKind.OPTIONAL:
            node.nullable = True
        elif node.kind is NodeKind.PLUS:
            node.nullable = node.left.nullable
        else:  # pragma: no cover - enum is exhaustive
            raise InvalidExpressionError(f"unexpected node kind {node.kind}")


def _annotate_pointers(root: TreeNode, nodes: Sequence[TreeNode]) -> None:
    """Compute SupFirst/SupLast flags and the pSupFirst/pSupLast/pStar pointers.

    Nodes are visited in pre-order so every node's parent is already fully
    annotated, making each pointer a constant-time combination of the
    parent's pointer and the node's own flag (lowest *reflexive* ancestor
    with the property, ``None`` when there is none).
    """
    for node in nodes:
        parent = node.parent
        if parent is not None and parent.kind is NodeKind.CONCAT:
            if node is parent.right:
                node.sup_first = not parent.left.nullable
            if node is parent.left:
                node.sup_last = not parent.right.nullable

        inherited_first = parent.p_sup_first if parent is not None else None
        inherited_last = parent.p_sup_last if parent is not None else None
        inherited_star = parent.p_star if parent is not None else None
        node.p_sup_first = node if node.sup_first else inherited_first
        node.p_sup_last = node if node.sup_last else inherited_last
        node.p_star = node if node.is_iteration else inherited_star
