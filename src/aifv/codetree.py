"""Code-tree sets and the decodability checks that govern them.

A code-tree set is a dense list of trees T_0..T_{K-1} over a shared
alphabet of M symbols.  Tree k assigns each symbol a codeword
Cword_k(a), a successor tree Point_k(a), and carries a mode: the word
set describing how every bit stream emitted from tree k can begin.

Encoding starts at tree 0, emits Cword_k(a) for each symbol, and hops
to tree Point_k(a).  Decodability of that scheme is equivalent to two
conditions, checked per tree over the expanded codewords
Expand_k(a) = {Cword_k(a) + q : q in Mode_{Point_k(a)}}:

  overlap   expanded codewords of distinct symbols must be mutually
            incomparable, so a long enough lookahead always separates
            any two symbols;
  coverage  every expanded codeword must have some member of the
            tree's own mode as a prefix, so the mode really describes
            every stream the tree can emit.

Both conditions ask which words are prefixes of which.  The interval
of a bit string is dyadic, so any two such intervals are nested or
disjoint, and a word's prefixes among a tree's words are exactly the
entries still open on a stack when the words are swept in interval
order.  ``validate`` therefore finds every comparable pair in one
sorted sweep per tree, in O(E log E + violations) for E expanded
codewords.  The sort key is each word's bits left-aligned to whole
bytes, then its length, so memory stays linear in the words' own
bits.  The innermost mode member open at an expanded word is the
lookahead the decoder needs for it, so the same sweep yields the
decoding delay.  The sweep runs on the set's integer rows
(``CodeTreeSet.rows``), where every word is a (length, value) pair.
A set is built from its rows (``CodeTreeSet.from_pairs``); its
``CodeTree``s are a view, made from the rows on first access, that
the validator, the codec and the document layer never read.  Each
tree's sweep order is sorted once per set,
by whichever method runs first, and kept with the set for its life, so
both methods sweep the same entries and differ only in the
containment test: "direct" tests prefixes on those pairs, "interval"
compares both ends of their integer intervals on the inner word's
scale.  The two agree on every input and produce identical reports.
The encoder and decoder read the same rows.

A report is a named tuple, ``ValidationReport(method, violations,
delay)``, that is ``ok`` when it holds no violations; each violation
is a named tuple ``Violation(rule, tree, symbols, words, message)``.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitstring import BitString, pair_text
from .errors import (DimensionMismatch, IndexOutOfRange, InvalidSet,
                     Unvalidated)

VALIDATION_METHODS = ("direct", "interval")


class CodeTree:
    """One tree of a code-tree set: codewords, successors, and a mode."""

    __slots__ = ("cwords", "points", "mode")

    def __init__(self, cwords, points, mode):
        cwords = tuple(cwords)
        points = tuple(points)
        mode = frozenset(mode)
        if len(cwords) != len(points):
            raise DimensionMismatch(
                f"{len(cwords)} codewords but {len(points)} successors")
        if not cwords:
            raise DimensionMismatch("a tree needs at least one symbol")
        if not mode:
            raise InvalidSet("a tree's mode must be non-empty")
        self.cwords = cwords
        self.points = points
        self.mode = mode


def _default_names(m):
    names = []
    for i in range(m):
        names.append(chr(ord("a") + i) if i < 26 else f"s{i}")
    return tuple(names)


class CodeTreeSet:
    """A dense, closed family of code trees sharing one alphabet.

    The set is built from its integer rows, shared by the validator and
    the codec.  ``queries[k]`` lists tree k's mode members as
    ``(len, value)`` pairs sorted as tuples, so shortest first and the
    longest last.
    ``rows[k][a]`` is ``(a, clen, cval, point, queries[point])``:
    Cword_k(a) as an integer of ``clen`` bits, the tree it hops to, and
    that tree's mode members.  Expanded word i of symbol a at tree k is
    ``(clen + qlen, cval << qlen | qval)`` for
    ``(qlen, qval) = queries[point][i]``.  The validator sorts these
    pairs by their bits left-aligned to whole bytes and compares two
    of them at the longer one's length, never at the tree's longest,
    so its memory is linear in the words' bits.

    ``CodeTreeSet(trees, ...)`` reads its ``CodeTree``s once into
    pairs and builds the rows as ``from_pairs`` does, which the
    document parser and ``transform.to_basic`` call directly.
    ``trees`` is a view: the given trees, or ``CodeTree``s made from
    the rows on first access; nothing in the codec, the validator or
    the document writer reads it.

    Three private slots cache what is derived from the rows:
    ``_reports`` maps a validation method to its last report;
    ``_sweep`` holds each tree's sorted sweep entries, built by the
    first ``validate`` call of either method and swept by both for the
    set's life; ``_codec`` is the codec's tables, written only there.
    """

    __slots__ = ("_trees", "symbols", "tree_names", "queries", "rows",
                 "_reports", "_sweep", "_codec")

    def __init__(self, trees, symbols=None, tree_names=None):
        trees = tuple(trees)
        self._build([([(w.length, w.value) for w in tree.cwords],
                      tree.points, [(q.length, q.value) for q in tree.mode])
                     for tree in trees], symbols, tree_names)
        self._trees = trees

    @classmethod
    def from_pairs(cls, tables, symbols=None, tree_names=None):
        """The set whose tree k is ``tables[k] = (cwords, points, mode)``.

        ``cwords`` holds one ``(length, value)`` pair per symbol,
        ``points`` one successor per symbol and ``mode`` the tree's
        members as pairs, in any order and possibly repeated; each list
        is as ``CodeTree`` accepts it.  The set's dimensions and
        successors are checked as ``CodeTreeSet(trees)`` checks them.
        """
        tree_set = cls.__new__(cls)
        tree_set._build(tables, symbols, tree_names)
        return tree_set

    def _build(self, tables, symbols, tree_names):
        if not tables:
            raise InvalidSet("a code-tree set needs at least one tree")
        m = len(tables[0][0])
        count = len(tables)
        for k, (cwords, points, _) in enumerate(tables):
            if len(cwords) != m:
                raise DimensionMismatch(
                    f"tree {k} has {len(cwords)} symbols, tree 0 has {m}")
            for a, point in enumerate(points):
                if not 0 <= point < count:
                    raise IndexOutOfRange(
                        f"tree {k} sends symbol {a} to missing tree {point}")
        if symbols is None:
            symbols = _default_names(m)
        else:
            symbols = tuple(symbols)
            if len(symbols) != m:
                raise DimensionMismatch(
                    f"{len(symbols)} symbol names for {m} symbols")
        if tree_names is not None:
            tree_names = tuple(tree_names)
            if len(tree_names) != count:
                raise DimensionMismatch(
                    f"{len(tree_names)} tree names for {count} trees")
        self.symbols = symbols
        self.tree_names = tree_names
        self.queries = queries = [tuple(sorted(set(mode)))
                                  for _, _, mode in tables]
        self.rows = [
            tuple([(a, clen, cval, point, queries[point])
                   for a, ((clen, cval), point) in enumerate(zip(cwords,
                                                                 points))])
            for cwords, points, _ in tables]
        self._trees = None
        self._reports = {}
        self._sweep = None
        self._codec = None

    @property
    def trees(self):
        """The set's ``CodeTree``s, made from the rows on first access."""
        if self._trees is None:
            self._trees = tuple(CodeTree(
                [BitString(v, n) for _, n, v, _, _ in row],
                [point for _, _, _, point, _ in row],
                [BitString(v, n) for n, v in members])
                for row, members in zip(self.rows, self.queries))
        return self._trees

    @property
    def tree_count(self):
        return len(self.rows)

    @property
    def symbol_count(self):
        return len(self.symbols)

    def ensure_valid(self):
        """Validate on first use; raise Unvalidated if the set is broken."""
        report = self._reports.get("direct")
        if report is None:
            report = validate(self, "direct")
        if not report.ok:
            raise Unvalidated(
                _failure("code-tree set fails the decodability checks",
                         report), report=report)
        return report


class Violation(NamedTuple):
    """One decodability failure, located as precisely as possible."""

    rule: str                 # "overlap", "coverage", or "unreachable"
    tree: int
    symbols: tuple            # symbol names involved
    words: tuple              # offending bit strings, in text form
    message: str


class ValidationReport(NamedTuple):
    """The outcome of one validation run; ``delay`` holds only if ok."""

    method: str
    violations: tuple         # Violation records, in report order
    delay: int

    @property
    def ok(self):
        return not self.violations


def _failure(head, report):
    """A failed report's message: ``head``, then its first three violations."""
    return f"{head}: " + "; ".join(v.message for v in report.violations[:3])


def reachable_trees(tree_set):
    """Ids of every tree reachable from tree 0 via successor hops."""
    seen = {0}
    stack = [0]
    while stack:
        k = stack.pop()
        for _, _, _, point, _ in tree_set.rows[k]:
            if point not in seen:
                seen.add(point)
                stack.append(point)
    return seen


def _sweep_order(tree_set):
    """Each tree's sweep entries in interval order, sorted once per set.

    An entry is (left-aligned bytes, length, symbol, index, value):
    mode member i of the tree, as symbol -1, or expanded word i of
    symbol a, ``(clen + qlen, cval << qlen | qval)`` for member i
    ``(qlen, qval)`` of its successor's mode.  The order is kept in
    the set's ``_sweep`` slot, so whichever method runs first builds
    it and both sweep it.
    """
    order = tree_set._sweep
    if order is None:
        queries = tree_set.queries
        # a symbol's expansions share its codeword, so index order is
        # (length, value) order; bytes compare as zero-padded numbers,
        # the shorter word first on equal bytes, and as symbol -1 mode
        # members sort ahead of equal expanded words
        order = tree_set._sweep = [
            sorted(((value << (-length & 7)).to_bytes((length + 7) >> 3,
                                                     "big"),
                    length, a, i, value)
                   for a, clen, cval, _, follow in [(-1, 0, 0, k, queries[k]),
                                                    *row]
                   for i, (qlen, qval) in enumerate(follow)
                   for length, value in ((clen + qlen, cval << qlen | qval),))
            for k, row in enumerate(tree_set.rows)]
    return order


def validate(tree_set, method="direct"):
    """Check decodability; the report lists every violation found.

    Runs on the set's integer rows, where every word is a
    (length, value) pair.  Each tree's mode members and expanded
    codewords are swept once in interval order, by left end and then
    longest interval first: the key is a word's bits left-aligned to
    whole bytes, which compare as zero-padded numbers, then its length,
    so a word comes before its extensions and mode members ahead of
    equal expanded words.  That order is sorted once per set, by
    whichever method runs first, and kept with the set for its life;
    both methods sweep it.  Dyadic intervals are nested or disjoint, so
    the entries left on a stack that contain the current one are
    exactly its prefixes: each expanded word of another symbol among
    them is an overlap, and the current word is covered iff a mode
    member is among them.  The longest open one is the lookahead that
    confirms the word, and the most over all trees is ``delay``.
    The methods differ only in the containment test, made inline on
    every compare: "direct" tests the prefix relation on
    (length, value) pairs; "interval" checks that the outer word is no
    longer and that both ends of its interval, shifted to the inner
    word's scale, enclose the inner one.  The reports are identical
    either way.  A comparison shifts a word at most to its partner's
    length, so memory is linear in the words' bits.  Words become text
    only when a violation is written.

    Cost per tree is O(E log E + V) for E expanded words and V
    violations, plus, per word, the depth to which the modes nest.
    Overlaps come in (symbol, other symbol, word, other word) order,
    words by (length, value), then coverage failures by
    (symbol, word).
    """
    if method not in VALIDATION_METHODS:
        raise ValueError(f"unknown validation method {method!r}")
    direct = method == "direct"
    violations = []
    seen = reachable_trees(tree_set)
    for k in range(tree_set.tree_count):
        if k not in seen:
            violations.append(Violation(
                "unreachable", k, (), (),
                f"tree {k} cannot be reached from tree 0"))
    delay = 0
    names = tree_set.symbols
    for k, entries in enumerate(_sweep_order(tree_set)):
        overlaps = []
        uncovered = []
        stack = []
        modes = []  # lengths of the mode members open on the stack
        for entry in entries:
            _, n, a, i, v = entry
            while stack:
                _, on, _, _, ov = stack[-1]
                if on <= n and (v >> (n - on) == ov if direct else
                                ov << (n - on) <= v < (ov + 1) << (n - on)):
                    break
                if stack.pop()[2] < 0:
                    modes.pop()
            if a < 0:
                modes.append(n)
            else:
                for outer in stack:
                    b = outer[2]
                    if b > a:
                        overlaps.append((a, b, i, outer[3], entry, outer))
                    elif 0 <= b < a:
                        overlaps.append((b, a, outer[3], i, outer, entry))
                if not modes:
                    uncovered.append((a, i, entry))
                elif modes[-1] > delay:
                    delay = modes[-1]
            stack.append(entry)
        overlaps.sort()
        for a, b, _, _, e1, e2 in overlaps:
            w1, w2 = pair_text(e1[1], e1[4]), pair_text(e2[1], e2[4])
            na, nb = names[a], names[b]
            violations.append(Violation(
                "overlap", k, (na, nb), (w1, w2),
                f"tree {k}: expanded codewords {w1!r} ({na}) and "
                f"{w2!r} ({nb}) are comparable"))
        uncovered.sort()
        for a, _, entry in uncovered:
            w = pair_text(entry[1], entry[4])
            na = names[a]
            violations.append(Violation(
                "coverage", k, (na,), (w,),
                f"tree {k}: expanded codeword {w!r} ({na}) "
                f"has no prefix in the tree's mode"))
    report = ValidationReport(method, tuple(violations), delay)
    tree_set._reports[method] = report
    return report


def decoding_delay(tree_set):
    """Worst-case lookahead, in bits, the decoder ever needs.

    This is the longest mode member that actually occurs as a prefix of
    some expanded codeword of its own tree.  The decoder confirms a
    symbol as soon as such a member is seen, so no decision ever waits
    for more bits than this.  ``validate`` reads it off its sweep, so
    this is the ``delay`` of the set's validation report.
    """
    return tree_set.ensure_valid().delay


def is_full(tree_set):
    """True when every mode exactly matches what its tree can emit.

    A full set wastes no code space: tree 0 can start with any bit
    pattern, and each tree's mode reduces to the same frontier as the
    set of streams actually leaving that tree.  Those streams begin
    with the tree's expanded words, read off the set's integer rows
    as ``validate`` reads them.
    """
    from .wordset import reduce_pairs
    tree_set.ensure_valid()
    return tree_set.queries[0] == ((0, 0),) and all(
        reduce_pairs(members) == reduce_pairs(
            [(clen + qlen, cval << qlen | qval)
             for _, clen, cval, _, follow in row for qlen, qval in follow])
        for row, members in zip(tree_set.rows, tree_set.queries))


def check_delay_budget(tree_set, n):
    """True when every mode member fits in n bits."""
    if n < 0:
        raise ValueError("delay budget must be non-negative")
    # each tree's members are sorted shortest first
    return all(members[-1][0] <= n for members in tree_set.queries)
