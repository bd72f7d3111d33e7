"""The star-free multi-word matcher (Section 4.4, Theorem 4.12).

For star-free deterministic expressions, ``N`` words can be matched
simultaneously in ``O(|e| + |w_1| + ... + |w_N|)``: the expression is
traversed *once* in position order, and every word advances whenever the
traversal reaches the position it is waiting to read.

The paper maintains, for every symbol ``a``, a *dynamic a-skeleton*: the
set of positions at which some word currently waits for an ``a``, closed
under LCAs, with insertions always happening to the right of previous
ones.  Our implementation exploits exactly that insertion order: because
words only ever advance to the position currently being scanned, the
per-symbol store receives positions in pre-order, so the "all stored
positions inside the subtree of ``parent(pSupFirst(p))``" extraction that
the paper performs by climbing the skeleton is simply a *suffix* of a
per-symbol stack.  Each popped entry either

* advances (the scanned position follows it through the concatenation at
  their LCA — in star-free expressions Lemma 2.2's star case cannot fire),
* is dead (the LCA is a concatenation but the entry is not in the Last set
  of its left child, hence no later position can follow it either), or
* is retained (the LCA is a union node: the paper's skeleton climb never
  descends into union branches, so these entries must stay; property (P1)
  bounds how often a retained entry can be re-examined for a fixed
  symbol).

The deviation from the paper's explicit skeleton data structure — and why
it preserves the linear behaviour on the star-free workloads measured in
experiment E6 — is discussed in DESIGN.md.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.determinism import DeterminismChecker
from ..core.follow import FollowIndex
from ..errors import NotDeterministicError
from ..regex.ast import Regex
from ..regex.parse_tree import NodeKind, ParseTree, TreeNode, build_parse_tree
from .snapshot import SnapshotError

#: Decision codes for one ``(waiting entry, scanned position)`` pair —
#: what happens when the scan examines the entry.  Pure functions of the
#: parse tree, so they are memoized per pair and can be persisted in the
#: ``SFTB`` snapshot section (see :meth:`StarFreeMultiMatcher.export_tables`).
DECISION_DEAD = 0
DECISION_ADVANCE = 1
DECISION_RETAIN = 2

_DECISIONS = (DECISION_DEAD, DECISION_ADVANCE, DECISION_RETAIN)


class _WaitingEntry:
    """Words waiting at one position for one symbol."""

    __slots__ = ("position", "word_ids")

    def __init__(self, position: TreeNode, word_ids: list[int]):
        self.position = position
        self.word_ids = word_ids


class StarFreeMultiMatcher:
    """Theorem 4.12: batch matching against a star-free deterministic expression."""

    name = "star-free-multi"

    def __init__(
        self,
        expr: Regex | ParseTree | str,
        verify: bool = True,
        follow: FollowIndex | None = None,
    ):
        self.tree = expr if isinstance(expr, ParseTree) else build_parse_tree(expr)
        if any(node.is_iteration for node in self.tree.nodes):
            raise ValueError("StarFreeMultiMatcher requires a star-free expression")
        if follow is not None and follow.tree is not self.tree:
            raise ValueError("the supplied follow index was built for a different parse tree")
        self.follow = follow if follow is not None else FollowIndex(self.tree)
        if verify:
            report = DeterminismChecker(self.tree, self.follow).report()
            if not report.deterministic:
                raise NotDeterministicError(
                    "StarFreeMultiMatcher requires a deterministic expression: "
                    f"{report.describe()}",
                    report=report,
                )
        #: number of entries examined during the last match_all call (instrumentation)
        self.examined_entries = 0
        #: memoized ``(entry_pre, scanned_pre) → decision`` table.  The
        #: decision is a pure function of the parse tree, so concurrent
        #: writers racing on one key store the same value — dict stores
        #: are atomic under the GIL, hence no lock on the hot path.
        self._decisions: dict[tuple[int, int], int] = {}
        #: memoized ``position_pre → 0/1`` acceptance table (same contract).
        self._accepts_memo: dict[int, int] = {}
        #: largest pre-order number any node of this tree carries; the
        #: bound :meth:`adopt_tables` validates persisted keys against.
        self._pre_limit = max(node.pre for node in self.tree.nodes)
        #: entries installed from a persisted snapshot (telemetry).
        self._adopted_decisions = 0
        self._adopted_accepts = 0

    # ------------------------------------------------------------------------------
    def match_all(self, words: Sequence[Sequence[str]]) -> list[bool]:
        """Return, for every word, whether it belongs to the language.

        All words are matched during a single scan of the expression's
        positions in document order.  Words are interned through the
        tree's alphabet first; see :meth:`match_all_encoded` for callers
        (``Pattern.match_all``, the validation service) that already hold
        encoded corpora.
        """
        return self.match_all_encoded(self.tree.alphabet.encode_many(words))

    def match_all_encoded(self, words: Sequence[Sequence[int]]) -> list[bool]:
        """The single-scan batch matcher over alphabet-encoded words.

        Identical to :meth:`match_all` but the per-symbol waiting stacks
        are keyed by dense integer codes instead of symbol strings, so the
        scan shares the interned alphabet with the compiled runtime: a
        corpus is encoded once (``Alphabet.encode_many``) and every
        dictionary probe in the hot loop hashes a small int.  Symbols
        outside the alphabet encode to a negative code no scanned position
        can carry, so such words simply never advance — the same verdict
        the string-keyed scan produced.

        Repeated words are deduplicated up front — the same corpus-level
        optimization the batch kernel applies: the scan's waiting-stack
        work is per *distinct* word, and verdicts fan back out through an
        index, so log-like streams that re-match the same few lines cost
        one scanned copy each.
        """
        seen: dict[tuple[int, ...], int] = {}
        index: list[int] = []
        distinct: list[Sequence[int]] = []
        for word in words:
            key = tuple(word)
            slot = seen.get(key)
            if slot is None:
                slot = seen[key] = len(distinct)
                distinct.append(word)
            index.append(slot)
        if len(distinct) < len(words):
            verdicts = self._match_all_encoded_distinct(distinct)
            return [verdicts[slot] for slot in index]
        return self._match_all_encoded_distinct(words)

    def _match_all_encoded_distinct(self, words: Sequence[Sequence[int]]) -> list[bool]:
        """One waiting-stack scan over an already-distinct encoded corpus."""
        follow = self.follow
        tree = self.tree
        symbol_codes = tree.alphabet.codes
        decisions = self._decisions
        results = [False] * len(words)
        # Index of the next symbol each word expects.
        cursors = [0] * len(words)
        # Position at which each fully-consumed word stopped (None = not finished).
        finished_at: list[TreeNode | None] = [None] * len(words)
        # Per-code stacks of waiting entries, kept sorted by pre-order of position.
        waiting: dict[int, list[_WaitingEntry]] = {}
        self.examined_entries = 0

        start = tree.start
        empty_accepts = self._accepts_at(start)
        initial: dict[int, list[int]] = {}
        for word_id, word in enumerate(words):
            if len(word) == 0:
                results[word_id] = empty_accepts
            else:
                initial.setdefault(word[0], []).append(word_id)
        for code, word_ids in initial.items():
            waiting[code] = [_WaitingEntry(start, word_ids)]

        for scanned in tree.positions[1:-1]:  # every position of e', in document order
            stack = waiting.get(symbol_codes[scanned.symbol])
            if not stack:
                continue
            boundary = scanned.p_sup_first.parent if scanned.p_sup_first is not None else None
            if boundary is None:
                continue
            scanned_pre = scanned.pre
            advanced: list[int] = []
            retained: list[_WaitingEntry] = []
            # Entries whose position lies inside the subtree of `boundary` form
            # a suffix of the stack (insertions happen in pre-order).
            while stack and stack[-1].position.pre >= boundary.pre:
                entry = stack.pop()
                self.examined_entries += 1
                key = (entry.position.pre, scanned_pre)
                decision = decisions.get(key)
                if decision is None:
                    if follow.follows_via_concat(entry.position, scanned):
                        decision = DECISION_ADVANCE
                    elif follow.lca(entry.position, scanned).kind is NodeKind.CONCAT:
                        # Not in Last(Lchild(meeting)): no later position can
                        # follow this entry either — dead, simply dropped.
                        decision = DECISION_DEAD
                    else:
                        decision = DECISION_RETAIN
                    decisions[key] = decision
                if decision == DECISION_ADVANCE:
                    advanced.extend(entry.word_ids)
                elif decision == DECISION_RETAIN:
                    retained.append(entry)
            # Retained entries keep their original (pre-order) relative order.
            stack.extend(reversed(retained))

            if not advanced:
                continue
            newly_waiting: list[int] = []
            for word_id in advanced:
                cursors[word_id] += 1
                word = words[word_id]
                if cursors[word_id] >= len(word):
                    finished_at[word_id] = scanned
                else:
                    newly_waiting.append(word_id)
            by_code: dict[int, list[int]] = {}
            for word_id in newly_waiting:
                by_code.setdefault(words[word_id][cursors[word_id]], []).append(word_id)
            for code, word_ids in by_code.items():
                waiting.setdefault(code, []).append(_WaitingEntry(scanned, word_ids))

        for word_id, stopped_at in enumerate(finished_at):
            if stopped_at is not None:
                results[word_id] = self._accepts_at(stopped_at)
        return results

    def _accepts_at(self, position: TreeNode) -> bool:
        """Memoized ``$ ∈ Follow(position)`` (persisted in the SFTB tables)."""
        verdict = self._accepts_memo.get(position.pre)
        if verdict is None:
            verdict = 1 if self.follow.accepts_at(position) else 0
            self._accepts_memo[position.pre] = verdict
        return verdict == 1

    def accepts(self, word: Sequence[str]) -> bool:
        """Single-word convenience wrapper around :meth:`match_all`."""
        return self.match_all([list(word)])[0]

    # -- snapshot export / adoption -----------------------------------------------------
    def export_tables(self) -> dict:
        """Exportable view of the memoized tables (for snapshots).

        Returns ``{"accepts": {position_pre: 0/1}, "decisions":
        {(entry_pre, scanned_pre): code}, "pre_limit": int}`` — the shape
        :func:`repro.matching.snapshot.write` persists in the ``SFTB``
        section.  Mirrors the compiled runtime's
        :meth:`~repro.matching.runtime.CompiledRuntime.export_rows` row
        contract: everything exported was either computed locally from
        the parse tree or adopted from a fingerprint-matched snapshot,
        so re-exporting an adopted matcher is a fixpoint.
        """
        return {
            "accepts": dict(self._accepts_memo),
            "decisions": dict(self._decisions),
            "pre_limit": self._pre_limit,
        }

    def adopt_tables(
        self,
        accepts: Mapping[int, int],
        decisions: Mapping[tuple[int, int], int],
    ) -> int:
        """Install persisted tables into this matcher; returns entries adopted.

        Validation is strict and happens *before* any mutation (the
        :meth:`CompiledRuntime.adopt_rows` contract), so a rejected
        snapshot leaves the matcher exactly as it was: every pre-order
        key must fall inside this tree's numbering and every value must
        be a known decision/verdict code.  A violation raises
        :class:`~repro.matching.snapshot.SnapshotError` — the API layer
        counts it as ``snapshot_rejected`` and carries on with the lazy
        computation.  Entries are installed only for keys this matcher
        has not computed locally; local results always win.
        """
        limit = self._pre_limit
        for pre, verdict in accepts.items():
            if not (isinstance(pre, int) and 0 <= pre <= limit):
                raise SnapshotError(
                    "table-bounds", f"acceptance key {pre!r} outside pre-order range 0..{limit}"
                )
            if verdict not in (0, 1):
                raise SnapshotError("malformed", f"invalid acceptance verdict {verdict!r}")
        for key, decision in decisions.items():
            try:
                entry_pre, scanned_pre = key
            except (TypeError, ValueError):
                raise SnapshotError("malformed", f"invalid decision key {key!r}") from None
            for pre in (entry_pre, scanned_pre):
                if not (isinstance(pre, int) and 0 <= pre <= limit):
                    raise SnapshotError(
                        "table-bounds",
                        f"decision key {key!r} outside pre-order range 0..{limit}",
                    )
            if decision not in _DECISIONS:
                raise SnapshotError("malformed", f"invalid decision code {decision!r}")
        adopted = 0
        accepts_memo = self._accepts_memo
        for pre, verdict in accepts.items():
            if pre not in accepts_memo:
                accepts_memo[pre] = verdict
                adopted += 1
                self._adopted_accepts += 1
        decision_memo = self._decisions
        for key, decision in decisions.items():
            if key not in decision_memo:
                decision_memo[key] = decision
                adopted += 1
                self._adopted_decisions += 1
        return adopted

    def table_stats(self) -> dict[str, int]:
        """How much of the decision/acceptance tables is materialized."""
        return {
            "decisions": len(self._decisions),
            "accepts": len(self._accepts_memo),
            "adopted_decisions": self._adopted_decisions,
            "adopted_accepts": self._adopted_accepts,
        }
