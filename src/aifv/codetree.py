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

``validate`` evaluates both conditions either directly on bit strings
or through their integer interval images; the two methods agree on
every input and produce identical reports.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitstring import EMPTY, comparable, interval, is_prefix, sort_key
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

    Both methods evaluate the same two conditions.  "direct" compares
    bit strings; "interval" maps each tree's strings to their intervals
    on the scale 2**n of the tree's longest string and uses overlap for
    comparability and containment for the prefix relation.  The reports
    are identical either way.
    """
    if method not in VALIDATION_METHODS:
        raise ValueError(f"unknown validation method {method!r}")
    if method == "direct":
        crosses, covers = comparable, is_prefix
    else:
        def crosses(i1, i2):
            return i1[0] < i2[1] and i2[0] < i1[1]

        def covers(iq, iw):
            return iq[0] <= iw[0] and iw[1] <= iq[1]

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
        mode = sorted(tree.mode, key=sort_key)
        if method == "direct":
            keys, mode_keys = exp, mode
        else:
            n = max(w.length for words in exp + [mode] for w in words)
            keys = [[interval(w, n) for w in words] for words in exp]
            mode_keys = [interval(q, n) for q in mode]
        for a in range(tree.symbol_count):
            for b in range(a + 1, tree.symbol_count):
                for w1, i1 in zip(exp[a], keys[a]):
                    for w2, i2 in zip(exp[b], keys[b]):
                        if crosses(i1, i2):
                            na = tree_set.symbol_name(a)
                            nb = tree_set.symbol_name(b)
                            violations.append(Violation(
                                "overlap", k, (na, nb),
                                (w1.text(), w2.text()),
                                f"tree {k}: expanded codewords "
                                f"{w1.text()!r} ({na}) and {w2.text()!r} "
                                f"({nb}) are comparable"))
        for a in range(tree.symbol_count):
            for w, iw in zip(exp[a], keys[a]):
                if not any(covers(iq, iw) for iq in mode_keys):
                    na = tree_set.symbol_name(a)
                    violations.append(Violation(
                        "coverage", k, (na,), (w.text(),),
                        f"tree {k}: expanded codeword {w.text()!r} ({na}) "
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
        flat = flatten_expands(tree_set, k)
        for q in tree_set.trees[k].mode:
            if q.length > worst and any(is_prefix(q, w) for w in flat):
                worst = q.length
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
