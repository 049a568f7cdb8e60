"""Conversions that produce code-tree sets from other code descriptions.

Three sources are covered:

* ``to_basic`` rewrites a validated set so every mode is basic (empty
  common prefix).  The rewrite moves each mode's common prefix across
  the tree boundary: the bits every stream from tree k must start with
  are emitted by the predecessor instead, which shortens the encoded
  stream without changing what can be decoded.

* ``vv_to_tree_set`` turns a variable-to-variable code table (parse
  tree plus per-sequence codewords) into a code-tree set with one tree
  per internal parse state.  The construction needs each state's
  longest-guaranteed prefix to extend along every edge; where it does
  not, the table is rewritten by shifting bits between a state's
  codeword contribution and its follow set until the condition holds,
  or NormalizationFailed is raised.

* ``import_aifv2`` / ``import_aifvm`` accept conventional code trees
  given purely as lists of codewords, one per symbol, check their
  structural rules, recover the tree-switching behaviour from each
  symbol node's chain, and infer every tree's mode from the set of bit
  patterns the trees can actually emit.  A chain is the path from a
  symbol's node down to the next symbol or branch node; one sweep over
  a tree's codewords in '0'/'1' text order reads every chain, in memory
  linear in the codeword bits.
"""

from __future__ import annotations

import bisect
import itertools

from .bitstring import (EMPTY, BitString, is_prefix,
                        longest_common_prefix, strip_prefix)
from .codec import encode
from .codetree import CodeTree, CodeTreeSet, _failure, validate
from .errors import DepthExceeded, NormalizationFailed, StructureViolation
from .wordset import common_prefix, reduce as reduce_words, to_basic_mode


def to_basic(tree_set):
    """An equivalent set in which every tree's mode is basic.

    Each tree k emits Cword_k(a) followed, eventually, by the common
    prefix of the successor's mode; the rewrite moves those guaranteed
    bits into the codeword.  When the start tree's mode already has an
    empty common prefix the converted set encodes every sequence to the
    same body bits up to termination; otherwise that constant prefix is
    dropped from the front of every encoding, since it carries no
    information.
    """
    tree_set.ensure_valid()
    heads = [common_prefix(tree.mode) for tree in tree_set.trees]
    new_trees = []
    for k, tree in enumerate(tree_set.trees):
        mode = to_basic_mode(tree.mode)
        # coverage makes every stream from tree k start with heads[k]
        cwords = [strip_prefix(heads[k], w + heads[point])
                  for w, point in zip(tree.cwords, tree.points)]
        new_trees.append(CodeTree(cwords, tree.points, mode))
    return CodeTreeSet(new_trees, tree_set.symbols, tree_set.tree_names)


def equivalent_up_to_termination(set_a, set_b, max_len=5):
    """Compare two sets' encodings over all sequences up to max_len.

    Two encodings of one sequence count as equal when truncating each
    side's termination word (possibly to nothing) can make the full
    outputs identical; bodies must agree wherever both are defined.
    Returns False as soon as any sequence separates the two sets.
    """
    set_a.ensure_valid()
    set_b.ensure_valid()
    if set_a.symbol_count != set_b.symbol_count:
        return False
    m = set_a.symbol_count
    for n in range(1, max_len + 1):
        for seq in itertools.product(range(m), repeat=n):
            ra = encode(set_a, seq)
            rb = encode(set_b, seq)
            if ra.body_len >= rb.body_len:
                ok = is_prefix(ra.body, rb.bits)
            else:
                ok = is_prefix(rb.body, ra.bits)
            if not ok:
                return False
    return True


class VVCodeTable:
    """A variable-to-variable code: parse tree, codewords, follow sets.

    States are proper prefixes of parse sequences and are keyed by
    tuples of symbol ids (the root is the empty tuple).  Each state
    carries the longest bit prefix guaranteed once the parser is in it
    (``lcwords``) and the set of ways the remaining stream may continue
    (``follows``).  Complete parse blocks map to their full codeword in
    ``blocks`` and optionally name the state the encoder returns to in
    ``recurrences`` (the root by default).
    """

    __slots__ = ("depth", "symbols", "lcwords", "follows", "blocks",
                 "recurrences")

    def __init__(self, depth, symbols, lcwords, follows, blocks,
                 recurrences=None):
        self.depth = depth
        self.symbols = tuple(symbols)
        self.lcwords = dict(lcwords)
        self.follows = {s: frozenset(f) for s, f in follows.items()}
        self.blocks = dict(blocks)
        self.recurrences = dict(recurrences or {})
        self._check()

    def _check(self):
        m = len(self.symbols)
        if m < 1:
            raise StructureViolation("a VV code needs at least one symbol")
        if self.depth < 1:
            raise StructureViolation("parse depth must be at least 1")
        states = set(self.lcwords)
        if set(self.follows) != states:
            raise StructureViolation("states with codewords and states "
                                     "with follow sets differ")
        if () not in states:
            raise StructureViolation("the root state is missing")
        if self.lcwords[()] != EMPTY:
            raise StructureViolation("the root state must carry no bits")
        for s in states:
            if len(s) >= self.depth:
                raise DepthExceeded(
                    f"state {s} is as long as the parse depth {self.depth}")
            if any(not 0 <= a < m for a in s):
                raise StructureViolation(f"state {s} uses unknown symbols")
            if s and s[:-1] not in states:
                raise StructureViolation(f"state {s} has no parent state")
            if not self.follows[s]:
                raise StructureViolation(f"state {s} has an empty follow set")
        for b in self.blocks:
            if len(b) > self.depth:
                raise DepthExceeded(
                    f"block {b} is longer than the parse depth {self.depth}")
            if not b or b[:-1] not in states:
                raise StructureViolation(f"block {b} has no parent state")
            if b in states:
                raise StructureViolation(f"{b} is both a state and a block")
        for s in states:
            for a in range(m):
                child = s + (a,)
                if child not in states and child not in self.blocks:
                    raise StructureViolation(
                        f"state {s} has no entry for symbol {a}")
        for b, target in self.recurrences.items():
            if b not in self.blocks:
                raise StructureViolation(f"recurrence on unknown block {b}")
            if target not in states:
                raise StructureViolation(
                    f"block {b} recurs to unknown state {target}")


def _normalize_vv(table):
    # every edge out of a state must extend that state's guaranteed
    # prefix; shift bits between lcwords and follow sets until it does
    lcwords = dict(table.lcwords)
    follows = {s: set(f) for s, f in table.follows.items()}
    states = sorted(lcwords, key=len)
    cap = 10 * (len(states) + len(table.blocks)) + 10

    def lower_parent(s, target):
        # move the bits of lcword[s] past ``target`` into the follow set;
        # an earlier child of s may already have lowered it that far
        if is_prefix(lcwords[s], target):
            return
        tail = strip_prefix(target, lcwords[s])
        follows[s] = {tail + f for f in follows[s]}
        lcwords[s] = target

    for _ in range(cap):
        changed = False
        for s in states:
            base = lcwords[s]
            for a in range(len(table.symbols)):
                child = s + (a,)
                if child in lcwords:
                    word = lcwords[child]
                    if is_prefix(base, word):
                        continue
                    # base is no prefix of word, so this prefix is proper
                    if is_prefix(word, base):
                        # prefer raising the child onto the parent's prefix
                        if all(is_prefix(base, word + f)
                               for f in follows[child]):
                            follows[child] = {
                                strip_prefix(base, word + f)
                                for f in follows[child]}
                            lcwords[child] = base
                        else:
                            lower_parent(s, word)
                        changed = True
                    else:
                        raise NormalizationFailed(
                            f"state {child}: guaranteed bits "
                            f"{word.text()!r} conflict with {base.text()!r}")
                elif child in table.blocks:
                    word = table.blocks[child]
                    if is_prefix(base, word):
                        continue
                    if is_prefix(word, base):
                        lower_parent(s, word)
                        changed = True
                    else:
                        raise NormalizationFailed(
                            f"block {child}: codeword {word.text()!r} "
                            f"conflicts with {base.text()!r}")
            if changed:
                break
        if not changed:
            return lcwords, {s: frozenset(f) for s, f in follows.items()}
    raise NormalizationFailed("table rewriting did not settle")


def _state_name(table, s):
    return "".join(table.symbols[a] for a in s)


def vv_to_tree_set(table):
    """Build the code-tree set that mimics a VV code symbol by symbol.

    One tree per parse state; entering a state emits the bits newly
    guaranteed beyond its parent, a complete block emits the rest of
    its codeword and hops to the recurrence state's tree.  Raises
    NormalizationFailed when no rewriting of the table supports this.
    """
    lcwords, follows = _normalize_vv(table)
    states = sorted(lcwords, key=lambda s: (len(s), s))
    ids = {s: k for k, s in enumerate(states)}
    trees = []
    for s in states:
        cwords = []
        points = []
        for a in range(len(table.symbols)):
            child = s + (a,)
            if child in lcwords:
                cwords.append(strip_prefix(lcwords[s], lcwords[child]))
                points.append(ids[child])
            else:
                cwords.append(strip_prefix(lcwords[s], table.blocks[child]))
                points.append(ids[table.recurrences.get(child, ())])
        trees.append(CodeTree(cwords, points, follows[s]))
    result = CodeTreeSet(trees, table.symbols,
                         tuple(_state_name(table, s) for s in states))
    report = validate(result)
    if not report.ok:
        raise NormalizationFailed(
            _failure("normalized table is not decodable", report))
    return result


def _chains(t, cwords):
    # each symbol's chain: the edges from its node down to the next
    # symbol or branch node, empty for a leaf.  In '0'/'1' text order
    # the words extending w follow it as one block, ending before
    # w + '2'; the block's first and last word share exactly w + chain.
    if not cwords:
        raise StructureViolation(
            f"tree {t}: leaf at depth 0 carries no symbol")
    owner = {}
    for a, w in enumerate(cwords):
        b = owner.setdefault(w, a)
        if b != a:
            raise StructureViolation(
                f"symbols {b} and {a} share the node {w.text()!r}")
    keys = sorted((w.text(), a) for a, w in enumerate(cwords))
    chains = [EMPTY] * len(cwords)
    for i, (text, a) in enumerate(keys):
        end = bisect.bisect_left(keys, (text + "2",), i + 1)
        if end > i + 1:
            head = longest_common_prefix(cwords[keys[i + 1][1]],
                                         cwords[keys[end - 1][1]])
            chains[a] = strip_prefix(cwords[a], head)
            if not chains[a]:
                raise StructureViolation(
                    f"tree {t}: symbol on a node with both children")
    return chains


def _infer_modes(tables, n_bits):
    # tables[k] lists tree k's (codeword, successor) pairs; its mode is
    # the reduced set of n-bit patterns its streams can start with.  An
    # empty codeword hands the stream on without a bit, so each tree
    # first takes the non-empty codewords of every tree it so reaches.
    rows = []
    for k in range(len(tables)):
        reach, todo = {k}, [k]
        while todo:
            for w, point in tables[todo.pop()]:
                if not w and point not in reach:
                    reach.add(point)
                    todo.append(point)
        rows.append({c for j in reach for c in tables[j] if c[0]})
    # heads[r][k] is the reduced set of r-bit beginnings of tree k's
    # streams; reducing each level keeps it small where the r-bit
    # patterns number up to 2**r
    heads = [None]
    for r in range(1, n_bits + 1):
        level = []
        for row in rows:
            found = {w.prefix(r) for w, _ in row if len(w) >= r}
            found.update(w + h for w, point in row if len(w) < r
                         for h in heads[r - len(w)][point])
            level.append(reduce_words(found) if found else found)
        heads.append(level)
    return [mode or frozenset([EMPTY]) for mode in heads[n_bits]]


def _assemble(conventional, points_per_tree, n_bits, symbols):
    modes = _infer_modes([list(zip(cwords, points)) for cwords, points
                          in zip(conventional, points_per_tree)], n_bits)
    trees = [CodeTree(cwords, points, mode)
             for cwords, points, mode in
             zip(conventional, points_per_tree, modes)]
    result = CodeTreeSet(trees, symbols)
    report = validate(result)
    if not report.ok:
        raise StructureViolation(
            _failure("imported trees are not decodable", report))
    return result


def import_aifv2(trees, symbols=None):
    """Convert a conventional two-tree code into a code-tree set.

    The trees follow the classic structure: symbols sit on leaves or on
    incomplete internal nodes whose child hangs two '0' edges below
    them, and the second tree's root starts with a bare '1'-linked node
    on its '0' side.  A leaf symbol keeps the encoder on tree 0; a
    symbol on an internal node switches it to tree 1.
    """
    trees = [list(tree) for tree in trees]
    if len(trees) != 2:
        raise StructureViolation("expected exactly two trees")
    points_per_tree = []
    for t, tree in enumerate(trees):
        points = []
        for a, chain in enumerate(_chains(t, tree)):
            if not chain:
                points.append(0)
            elif not is_prefix(BitString(0, 1), chain):
                raise StructureViolation(
                    f"tree {t}: symbol {a} sits on an internal node "
                    f"without a single '0' child")
            elif not is_prefix(BitString(0, 2), chain):
                raise StructureViolation(
                    f"tree {t}: symbol {a} is not two '0' edges above "
                    f"its subtree")
            else:
                points.append(1)
        if t == 1:
            # the root's two sides, and what hangs under its '0' side
            heads = {w.prefix(min(2, len(w))).text() for w in tree}
            if not {"0", "1"} <= {h[:1] for h in heads}:
                raise StructureViolation(
                    "tree 1: the root must have both children")
            if not heads.isdisjoint({"0", "00"}):
                raise StructureViolation(
                    "tree 1: the root's '0' child must be a bare node "
                    "linked by '1' to its child")
        points_per_tree.append(points)
    return _assemble(trees, points_per_tree, 2, symbols)


def import_aifvm(trees, m, symbols=None, convention="degree"):
    """Convert a conventional m-tree code into a code-tree set.

    Each symbol node's successor is selected by its chain degree: the
    number of bare single-'0'-child nodes hanging directly under it.
    ``convention`` maps a degree k to the next tree: "degree" uses
    T_k, "complement" uses T_{m-k} (leaves always return to T_0); both
    conventions appear in published tree drawings.
    """
    if convention not in ("degree", "complement"):
        raise ValueError(f"unknown switching convention {convention!r}")
    trees = [list(tree) for tree in trees]
    if m < 2:
        raise StructureViolation("m must be at least 2")
    if len(trees) != m:
        raise StructureViolation(f"expected {m} trees, got {len(trees)}")
    points_per_tree = []
    for t, tree in enumerate(trees):
        points = []
        for a, chain in enumerate(_chains(t, tree)):
            # the degree is the run of '0's after the chain's first bit
            rest = chain.text()[1:]
            degree = len(rest) - len(rest.lstrip("0"))
            if degree >= m:
                raise StructureViolation(
                    f"tree {t}: symbol {a} has chain degree {degree}, "
                    f"needs less than {m}")
            if degree == 0:
                points.append(0)
            elif convention == "degree":
                points.append(degree)
            else:
                points.append(m - degree)
        points_per_tree.append(points)
    return _assemble(trees, points_per_tree, m, symbols)
