"""Seeded inputs for every benchmark leg, each with its reference verdict.

Everything here is a pure function of a ``random.Random`` stream, so one
``--seed`` always yields the same inputs.  The program under test only
ever sees the generated text, words and documents; the verdicts stored
beside them come from construction (factor chains, documents with known
mutations) or from reference code that does not share the paths being
timed (the Glushkov construction, a local native-``+`` Glushkov check).

Nothing in this module raises the interpreter's recursion limit: the
``repro.regex.words`` samplers do, so they are not used here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

#: occurrence range -> postfix operator in the ``named`` dialect
DECORATION = {(1, 1): "", (0, 1): "?", (0, None): "*", (1, None): "+"}


# -- factor chains: CHARE-shaped expressions with by-construction verdicts ----------------


@dataclass
class Chain:
    """A concatenation of factors ``(s1 | ... | sk)`` with occurrence ranges.

    Every symbol belongs to exactly one factor, so a word is a member iff
    its symbols visit the factors in order and each factor occurs within
    its ``[lo, hi]`` range.  That makes member and non-member words
    checkable by construction, without running any matcher.
    """

    factors: list[tuple[tuple[str, ...], int, int | None]]

    def text(self) -> str:
        parts = []
        for symbols, lo, hi in self.factors:
            body = symbols[0] if len(symbols) == 1 else "(" + " | ".join(symbols) + ")"
            parts.append(body + DECORATION[(lo, hi)])
        return " ".join(parts)

    @property
    def positions(self) -> int:
        return sum(len(symbols) for symbols, _, _ in self.factors)


def cycled_chain(prefix: str, factors: int, width: int, ranges) -> Chain:
    """A chain of *factors* factors of *width* fresh symbols, ranges cycled."""
    ranges = list(ranges)
    return Chain(
        [
            (tuple(f"{prefix}{i}x{j}" for j in range(width)), *ranges[i % len(ranges)])
            for i in range(factors)
        ]
    )


def star_free_chain(prefix: str, blocks: int) -> Chain:
    """``(a_i | b_i) c_i?`` blocks: star-free, deterministic, Theorem 4.12's shape."""
    factors = []
    for i in range(blocks):
        factors.append(((f"{prefix}a{i}", f"{prefix}b{i}"), 1, 1))
        factors.append(((f"{prefix}c{i}",), 0, 1))
    return Chain(factors)


class ChainWords:
    """Distinct member and mutated non-member words of one :class:`Chain`.

    Each factor gets a small menu of distinct member fragments; a word is
    one menu choice per factor, concatenated.  Factor alphabets are
    disjoint, so distinct choice vectors give distinct words.  A
    non-member is a fresh member with one edit that breaks the chain by
    construction: a symbol of an earlier factor inserted after a later
    one, a second symbol in an at-most-once factor, or the only symbol
    of an exactly-once factor removed.  With ``distinct=False`` words may
    repeat (small chains whose word space is tiny).
    """

    def __init__(
        self,
        chain: Chain,
        rng: random.Random,
        menu: int = 6,
        max_repeat: int = 4,
        distinct: bool = True,
    ):
        self.chain = chain
        self.distinct = distinct
        self.menus: list[list[tuple[str, ...]]] = []
        for symbols, lo, hi in chain.factors:
            top = max_repeat if hi is None else hi
            options = set()
            for _ in range(menu * 3):
                count = rng.randint(lo, max(lo, top))
                options.add(tuple(rng.choice(symbols) for _ in range(count)))
                if len(options) >= menu:
                    break
            self.menus.append(sorted(options))
        # Distinct words without remembering them: the menu choices of the
        # first factors spell a counter in mixed radix, permuted by a
        # multiplier coprime to the radices; the other factors are random.
        self._digits: list[int] = []
        self._space = 1
        for index, options in enumerate(self.menus):
            if self._space >= 1 << 24:
                break
            if len(options) > 1:
                self._digits.append(index)
                self._space *= len(options)
        self._issued = 0

    def _fresh_choice(self, rng: random.Random) -> list[int]:
        draw = rng.random
        choice = [int(draw() * len(options)) for options in self.menus]
        if self.distinct:
            if self._issued >= self._space:
                raise RuntimeError("the chain has run out of distinct words")
            code = self._issued * 1_000_003 % self._space  # prime: a bijection
            self._issued += 1
            for index in self._digits:
                code, choice[index] = divmod(code, len(self.menus[index]))
        return choice

    def _fragments(self, choice: list[int]) -> list[tuple[str, ...]]:
        return [menu[slot] for menu, slot in zip(self.menus, choice)]

    def member(self, rng: random.Random) -> list[str]:
        return list(itertools.chain.from_iterable(self._fragments(self._fresh_choice(rng))))

    def non_member(self, rng: random.Random) -> list[str]:
        fragments = self._fragments(self._fresh_choice(rng))
        factors = self.chain.factors
        while True:  # a random factor that admits an edit
            index = int(rng.random() * len(fragments))
            if not fragments[index]:
                continue
            _, lo, hi = factors[index]
            kinds = ["order"] if index > 0 else []
            if hi == 1:
                kinds.append("twice")
            if lo == 1 and len(fragments[index]) == 1:
                kinds.append("drop")
            if kinds:
                break
        kind = rng.choice(kinds)
        fragment = fragments[index]
        if kind == "order":
            earlier = rng.randrange(index)
            fragments[index] = fragment + (rng.choice(factors[earlier][0]),)
        elif kind == "twice":
            fragments[index] = fragment + fragment[-1:]
        else:
            fragments[index] = ()
        return list(itertools.chain.from_iterable(fragments))


def word_batch(words: ChainWords, rng: random.Random, size: int, duplicates: float):
    """*size* words, half members and half non-members, shuffled.

    A *duplicates* share of the slots repeats another word of the same
    batch; no word is shared with any other batch of the same
    :class:`ChainWords`.  Returns ``(words, labels)``.
    """
    half = size // 2
    entries = [(words.member(rng), True) for _ in range(half)]
    entries += [(words.non_member(rng), False) for _ in range(size - half)]
    rng.shuffle(entries)
    for _ in range(int(size * duplicates)):
        entries[rng.randrange(size)] = entries[rng.randrange(size)]
    return [word for word, _ in entries], [label for _, label in entries]


# -- schema-compile: DTD-like corpus, non-deterministic models, ladders -------------------


#: templates of non-deterministic models: the first symbol is ambiguous
NON_DETERMINISTIC = (
    "({a} {b} | {a} {c})",
    "{a}* {a}",
    "({a} | {b})* {a} {c}",
    "({a} {b}?)* {b}",
    "({a} | {b} {c})+ {b} {a}?",
)


@dataclass
class Model:
    """One corpus content model with its reference verdicts."""

    text: str
    tree_deterministic: bool  # Glushkov on the normalised tree (Theorem 3.5's input)
    deterministic: bool  # native-'+' Glushkov (the verdict Pattern reports)
    positions: int
    member: list[str] = field(default_factory=list)


def corpus(
    rng: random.Random, count: int, start: int = 0, non_deterministic_every: int = 50
) -> list[Model]:
    """Models ``start .. start+count-1``: distinct DTD-like, a few non-deterministic.

    Model shapes come from ``repro.regex.generators.dtd_like`` (CHAREs
    with a simple and a nested tail, the Li et al. distribution); every
    model gets its own element names, so no two texts are equal and the
    compile cache can never hit.
    """
    from repro.automata.glushkov import GlushkovAutomaton
    from repro.regex.ast import Sym
    from repro.regex.generators import dtd_like
    from repro.regex.parse_tree import build_parse_tree
    from repro.regex.parser import parse
    from repro.regex.printer import to_text

    models = []
    every = non_deterministic_every
    for index in range(start, start + count):
        if every and index % every == every - 1:
            template = NON_DETERMINISTIC[(index // every) % len(NON_DETERMINISTIC)]
            expr = parse(
                template.format(a=f"n{index}a", b=f"n{index}b", c=f"n{index}c"), dialect="named"
            )
        else:
            names = [f"m{index}e{slot}" for slot in range(rng.randint(3, 12))]
            expr = dtd_like(rng, names)
        tree_ok = GlushkovAutomaton(build_parse_tree(expr)).is_deterministic()
        native_ok = native_glushkov_deterministic(expr)
        models.append(
            Model(
                to_text(expr, dialect="named"),
                tree_ok,
                native_ok,
                sum(isinstance(node, Sym) for node in expr.iter_nodes()),
                sample_member(expr, rng),
            )
        )
    return models


def union_ladder_text(prefix: str, width: int) -> str:
    """``(u0 | ... | u{m-1})*`` — the paper's E1 family, deterministic."""
    return "(" + " | ".join(f"{prefix}u{i}" for i in range(width)) + ")*"


def chain_ladder(prefix: str, factors: int) -> Chain:
    """A CHARE of *factors* three-symbol factors decorated ``?``, ``*``, ``+`` in turn."""
    return cycled_chain(prefix, factors, 3, [(0, 1), (0, None), (1, None)])


# -- references ----------------------------------------------------------------------------


def native_glushkov_deterministic(expr) -> bool:
    """Brüggemann-Klein determinism with ``+`` kept native (no ``E E*`` rewrite).

    Positions are the AST's symbol occurrences; the expression is
    deterministic iff the first set and every follow set name each
    symbol at most once.  Only for the small corpus models (recursive).
    """
    from repro.regex.ast import Concat, Epsilon, Optional, Plus, Star, Sym, Union

    symbols: list[str] = []
    follow: list[set[int]] = []

    def walk(node):
        if isinstance(node, Sym):
            symbols.append(node.symbol)
            follow.append(set())
            index = len(symbols) - 1
            return False, {index}, {index}
        if isinstance(node, Epsilon):
            return True, set(), set()
        if isinstance(node, Concat):
            n1, f1, l1 = walk(node.left)
            n2, f2, l2 = walk(node.right)
            for position in l1:
                follow[position] |= f2
            return n1 and n2, f1 | f2 if n1 else f1, l2 | l1 if n2 else l2
        if isinstance(node, Union):
            n1, f1, l1 = walk(node.left)
            n2, f2, l2 = walk(node.right)
            return n1 or n2, f1 | f2, l1 | l2
        if isinstance(node, (Star, Plus)):
            nullable, first, last = walk(node.child)
            for position in last:
                follow[position] |= first
            return isinstance(node, Star) or nullable, first, last
        if isinstance(node, Optional):
            _, first, last = walk(node.child)
            return True, first, last
        raise TypeError(f"unsupported node in a corpus model: {node!r}")

    _, first, _ = walk(expr)

    def unambiguous(positions: set[int]) -> bool:
        return len({symbols[position] for position in positions}) == len(positions)

    return unambiguous(first) and all(unambiguous(entry) for entry in follow)


def sample_member(expr, rng: random.Random) -> list[str]:
    """One member word of a small model (recursive walk, at most 2 iterations)."""
    from repro.regex.ast import Concat, Epsilon, Optional, Plus, Star, Sym, Union

    out: list[str] = []

    def walk(node):
        if isinstance(node, Sym):
            out.append(node.symbol)
        elif isinstance(node, Concat):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Union):
            walk(node.left if rng.random() < 0.5 else node.right)
        elif isinstance(node, Optional):
            if rng.random() < 0.5:
                walk(node.child)
        elif isinstance(node, (Star, Plus)):
            for _ in range(rng.randint(1 if isinstance(node, Plus) else 0, 2)):
                walk(node.child)
        elif not isinstance(node, Epsilon):
            raise TypeError(f"unsupported node in a corpus model: {node!r}")

    walk(expr)
    return out


# -- validate-repeated: documents drawn from small pools of child sequences ----------------

CATALOG_DTD = """
<!ELEMENT catalog (product+)>
<!ELEMENT product (name, price, (description | summary)?, tag*)>
<!ELEMENT name (#PCDATA)> <!ELEMENT price (#PCDATA)>
<!ELEMENT description (#PCDATA)> <!ELEMENT summary (#PCDATA)> <!ELEMENT tag (#PCDATA)>
"""

#: the XSD orders schema in its ``POST /validate`` wire shape
ORDERS_XSD = {
    "root": "orders",
    "elements": {
        "orders": {
            "kind": "sequence",
            "min": 1,
            "max": 1,
            "children": [
                {"kind": "element", "name": "vendor", "min": 0, "max": 1},
                {"kind": "element", "name": "order", "min": 1, "max": None},
            ],
        },
        "order": {
            "kind": "sequence",
            "min": 1,
            "max": 1,
            "children": [
                {"kind": "element", "name": "sku", "min": 1, "max": 1},
                {"kind": "element", "name": "qty", "min": 1, "max": 3},
                {
                    "kind": "choice",
                    "min": 0,
                    "max": 1,
                    "children": [
                        {"kind": "element", "name": "description", "min": 1, "max": 1},
                        {"kind": "element", "name": "summary", "min": 1, "max": 1},
                    ],
                },
                {"kind": "element", "name": "tag", "min": 0, "max": None},
            ],
        },
    },
}

_TEXT = {"name": "n", "price": "9", "sku": "s", "qty": "1"}


def _children_xml(children) -> str:
    return "".join(
        f"<{child}>{_TEXT[child]}</{child}>" if child in _TEXT else f"<{child}/>"
        for child in children
    )


@dataclass
class DocumentPools:
    """Valid and invalid child-sequence pools for ``product`` and ``order``."""

    product_valid: list[str]
    product_invalid: list[str]
    order_valid: list[str]
    order_invalid: list[str]
    distinct_sequences: int


def document_pools() -> DocumentPools:
    """The fixed pools; seeds only choose which pooled sequences a document uses.

    Fixed shapes keep the cost of the largest documents (the validation
    tail) the same from seed to seed.
    """
    products = [
        ("name", "price", *extra, *["tag"] * tags)
        for extra in ((), ("description",), ("summary",))
        for tags in range(4)
    ]
    orders = [
        ("sku", *["qty"] * qty, *extra, *["tag"] * tags)
        for qty in (1, 2, 3)
        for extra, tags in (((), 0), (("description",), 2), (("summary",), 4), ((), 6))
    ]
    bad_products = [
        ("price", "name"),
        ("name",),
        ("name", "price", "tag", "description"),
        ("name", "price", "description", "summary", "tag"),
    ]
    bad_orders = [
        ("sku", "qty", "qty", "qty", "qty"),
        ("qty", "tag"),
        ("sku", "qty", "tag", "sku"),
        ("sku", "qty", "tag", "summary"),
    ]
    return DocumentPools(
        [f"<product>{_children_xml(c)}</product>" for c in products],
        [f"<product>{_children_xml(c)}</product>" for c in bad_products],
        [f"<order>{_children_xml(c)}</order>" for c in orders],
        [f"<order>{_children_xml(c)}</order>" for c in bad_orders],
        len(products) + len(orders) + len(bad_products) + len(bad_orders),
    )


def document(pools: DocumentPools, rng: random.Random, kind: str, invalid: bool):
    """One XML document (``kind`` ``"dtd"`` or ``"xsd"``) and its child-sequence keys.

    An invalid document has exactly one element whose child sequence
    comes from the invalid pool.  Returns ``(text, sequences)`` where
    *sequences* lists the element fragments used (the benchmark's own
    distinct-sequence count reads them).
    """
    count = rng.randint(4, 16)
    if kind == "dtd":
        items = [rng.choice(pools.product_valid) for _ in range(count)]
        if invalid:
            items[rng.randrange(count)] = rng.choice(pools.product_invalid)
        return "<catalog>" + "".join(items) + "</catalog>", items
    items = [rng.choice(pools.order_valid) for _ in range(count)]
    if invalid:
        items[rng.randrange(count)] = rng.choice(pools.order_invalid)
    vendor = "<vendor/>" if rng.random() < 0.5 else ""
    return "<orders>" + vendor + "".join(items) + "</orders>", items
