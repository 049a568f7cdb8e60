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
codewords, testing containment either directly on bit strings or
through their integer interval images; the two methods agree on every
input and produce identical reports.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitstring import EMPTY, interval, is_prefix, sort_key
from .errors import (DimensionMismatch, IndexOutOfRange, InvalidSet,
                     Unvalidated)
from .wordset import reduce as reduce_words

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

    @property
    def symbol_count(self):
        return len(self.cwords)


def _default_names(m):
    names = []
    for i in range(m):
        names.append(chr(ord("a") + i) if i < 26 else f"s{i}")
    return tuple(names)


class CodeTreeSet:
    """A dense, closed family of code trees sharing one alphabet."""

    __slots__ = ("trees", "symbols", "tree_names", "_reports", "_codec")

    def __init__(self, trees, symbols=None, tree_names=None):
        trees = tuple(trees)
        if not trees:
            raise InvalidSet("a code-tree set needs at least one tree")
        m = trees[0].symbol_count
        for k, tree in enumerate(trees):
            if tree.symbol_count != m:
                raise DimensionMismatch(
                    f"tree {k} has {tree.symbol_count} symbols, tree 0 has {m}")
            for a, point in enumerate(tree.points):
                if not 0 <= point < len(trees):
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
            if len(tree_names) != len(trees):
                raise DimensionMismatch(
                    f"{len(tree_names)} tree names for {len(trees)} trees")
        self.trees = trees
        self.symbols = symbols
        self.tree_names = tree_names
        self._reports = {}
        self._codec = None

    @property
    def tree_count(self):
        return len(self.trees)

    @property
    def symbol_count(self):
        return len(self.symbols)

    def symbol_name(self, a):
        return self.symbols[a]

    def ensure_valid(self):
        """Validate on first use; raise Unvalidated if the set is broken."""
        report = self._reports.get("direct")
        if report is None:
            report = validate(self, "direct")
        if not report.ok:
            raise Unvalidated(
                "code-tree set fails the decodability checks: "
                + "; ".join(v.message for v in report.violations[:3]),
                report=report)
        return report


class Violation(NamedTuple):
    """One decodability failure, located as precisely as possible."""

    rule: str                 # "overlap", "coverage", or "unreachable"
    tree: int
    symbols: tuple            # symbol names involved
    words: tuple              # offending bit strings, in text form
    message: str


class ValidationReport:
    """The outcome of one validation run."""

    __slots__ = ("method", "violations")

    def __init__(self, method, violations):
        self.method = method
        self.violations = tuple(violations)

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"ValidationReport({self.method}, {state})"


def expand(tree_set, k, a):
    """Expanded codewords of symbol a at tree k."""
    tree = tree_set.trees[k]
    if not 0 <= a < tree.symbol_count:
        raise IndexOutOfRange(f"symbol id {a} out of range")
    cword = tree.cwords[a]
    return frozenset(cword + q for q in tree_set.trees[tree.points[a]].mode)


def expands(tree_set, k):
    """Expanded codewords of every symbol at tree k, indexed by symbol."""
    if not 0 <= k < tree_set.tree_count:
        raise IndexOutOfRange(f"tree id {k} out of range")
    return [expand(tree_set, k, a)
            for a in range(tree_set.symbol_count)]


def flatten_expands(tree_set, k):
    """All expanded codewords of tree k, merged across symbols."""
    out = set()
    for words in expands(tree_set, k):
        out |= words
    return frozenset(out)


def reachable_trees(tree_set):
    """Ids of every tree reachable from tree 0 via successor hops."""
    seen = {0}
    stack = [0]
    while stack:
        k = stack.pop()
        for point in tree_set.trees[k].points:
            if point not in seen:
                seen.add(point)
                stack.append(point)
    return seen


def validate(tree_set, method="direct"):
    """Check decodability; the report lists every violation found.

    Each tree's mode members and expanded codewords are swept once in
    order of their intervals (lo, -hi) on the scale 2**n of the tree's
    longest word, mode members ahead of equal expanded words.  Dyadic
    intervals are nested or disjoint, so the entries left on a stack
    that contain the current one are exactly its prefixes: each
    expanded word of another symbol among them is an overlap, and the
    current word is covered iff a mode member is among them.  "direct"
    tests containment with ``is_prefix`` on bit strings, "interval" on
    the integer pairs; the reports are identical either way.

    Cost per tree is O(E log E + V) for E expanded words and V
    violations, plus, per word, the depth to which the modes nest.
    Overlaps come in (symbol, other symbol, word, other word) order,
    words by ``sort_key``, then coverage failures by (symbol, word).
    """
    if method not in VALIDATION_METHODS:
        raise ValueError(f"unknown validation method {method!r}")
    # entries are (lo, -hi, symbol or -1 for a mode member, index, word)
    if method == "direct":
        def contains(outer, inner):
            return is_prefix(outer[4], inner[4])
    else:
        def contains(outer, inner):
            return outer[0] <= inner[0] and outer[1] <= inner[1]

    violations = []
    seen = reachable_trees(tree_set)
    for k in range(tree_set.tree_count):
        if k not in seen:
            violations.append(Violation(
                "unreachable", k, (), (),
                f"tree {k} cannot be reached from tree 0"))
    for k in range(tree_set.tree_count):
        tree = tree_set.trees[k]
        exp = [sorted(words, key=sort_key) for words in expands(tree_set, k)]
        n = max(w.length for words in exp + [tree.mode] for w in words)
        entries = []
        for q in tree.mode:
            lo, hi = interval(q, n)
            entries.append((lo, -hi, -1, 0, q))
        for a, words in enumerate(exp):
            for i, w in enumerate(words):
                lo, hi = interval(w, n)
                entries.append((lo, -hi, a, i, w))
        # the first four fields are unique, so words are never compared
        entries.sort()
        overlaps = []
        uncovered = []
        stack = []
        open_modes = 0
        for entry in entries:
            while stack and not contains(stack[-1], entry):
                if stack.pop()[2] < 0:
                    open_modes -= 1
            a, i = entry[2], entry[3]
            if a < 0:
                open_modes += 1
            else:
                for outer in stack:
                    b, j = outer[2], outer[3]
                    if b > a:
                        overlaps.append((a, b, i, j))
                    elif 0 <= b < a:
                        overlaps.append((b, a, j, i))
                if not open_modes:
                    uncovered.append((a, i))
            stack.append(entry)
        overlaps.sort()
        for a, b, i, j in overlaps:
            w1, w2 = exp[a][i].text(), exp[b][j].text()
            na, nb = tree_set.symbol_name(a), tree_set.symbol_name(b)
            violations.append(Violation(
                "overlap", k, (na, nb), (w1, w2),
                f"tree {k}: expanded codewords {w1!r} ({na}) and "
                f"{w2!r} ({nb}) are comparable"))
        uncovered.sort()
        for a, i in uncovered:
            w = exp[a][i].text()
            na = tree_set.symbol_name(a)
            violations.append(Violation(
                "coverage", k, (na,), (w,),
                f"tree {k}: expanded codeword {w!r} ({na}) "
                f"has no prefix in the tree's mode"))
    report = ValidationReport(method, violations)
    tree_set._reports[method] = report
    return report


def decoding_delay(tree_set):
    """Worst-case lookahead, in bits, the decoder ever needs.

    This is the longest mode member that actually occurs as a prefix of
    some expanded codeword of its own tree.  The decoder confirms a
    symbol as soon as such a member is seen, so no decision ever waits
    for more bits than this.
    """
    tree_set.ensure_valid()
    worst = 0
    for k in range(tree_set.tree_count):
        mode = tree_set.trees[k].mode
        lengths = {q.length for q in mode}
        for w in flatten_expands(tree_set, k):
            for n in lengths:
                if worst < n <= w.length and w.prefix(n) in mode:
                    worst = n
    return worst


def is_full(tree_set):
    """True when every mode exactly matches what its tree can emit.

    A full set wastes no code space: tree 0 can start with any bit
    pattern, and each tree's mode reduces to the same frontier as the
    set of streams actually leaving that tree.
    """
    tree_set.ensure_valid()
    if tree_set.trees[0].mode != frozenset([EMPTY]):
        return False
    for k in range(tree_set.tree_count):
        flat = flatten_expands(tree_set, k)
        if reduce_words(tree_set.trees[k].mode) != reduce_words(flat):
            return False
    return True


def check_delay_budget(tree_set, n):
    """True when every mode member fits in n bits."""
    if n < 0:
        raise ValueError("delay budget must be non-negative")
    return all(q.length <= n
               for tree in tree_set.trees for q in tree.mode)
