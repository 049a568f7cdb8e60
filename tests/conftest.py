"""Shared test helpers: random generators and independent oracles.

The oracles deliberately avoid the library's own integer tricks: they
re-derive prefix-closure facts from exact Fraction interval covering,
so a bug in the fast paths cannot hide behind itself.
"""

import functools
import struct
from fractions import Fraction

from hypothesis import strategies as st

from aifv import examples
from aifv.bitstring import BitString, longest_common_prefix, strip_prefix
from aifv.codec import DecodeTrace
from aifv.codetree import CodeTree, CodeTreeSet, Violation, reachable_trees
from aifv.errors import FormatError, NoMatch, StructureViolation, Truncated
from aifv.formats import parse_conventional, tree_set_to_doc
from aifv.transform import _assemble, import_aifv2, import_aifvm
from aifv.wordset import reduce

# modes used by the random set generator; all prefix-free, members <= 3 bits
MODE_POOL = [
    [""],
    ["0", "10"], ["0", "11"], ["00", "1"], ["00", "10"], ["00", "11"],
    ["01", "1"], ["01", "10"], ["01", "11"],
    ["011", "100"], ["1", "011"], ["10", "11"], ["000", "001", "01"],
]

# keys the three document parsers read, so that generated documents get
# past the first checks; any other string is a key too
PARSER_KEYS = ["alphabet", "trees", "name", "mode", "codewords", "next",
               "kind", "m", "convention", "symbols", "depth", "states",
               "blocks", "lcword", "follow", "codeword", "recurrence"]

# arbitrary JSON values, as json.loads could return them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text("01", max_size=4) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(PARSER_KEYS) | st.text(), inner, max_size=5),
    max_leaves=30)

# a version-1 stream header whose bit count is small, so the bytes after
# it can be a well-formed payload
small_headers = st.builds(
    lambda count, nbits: b"AIFV\x01" + struct.pack("<QQ", count, nbits),
    st.integers(0, 2 ** 64 - 1), st.integers(0, 40))


def bits(text):
    return BitString.from_text(text)


def word_key(w):
    """Canonical member order: by length, then numerically."""
    return (w.length, w.value)


ZERO, ONE = BitString(0, 1), BitString(1, 1)


def words(*texts):
    return frozenset(BitString.from_text(t) for t in texts)


def texts(word_set):
    return sorted(w.text() for w in word_set)


def random_word_set(rng, max_len=6, max_words=8):
    count = rng.randint(1, max_words)
    out = set()
    while len(out) < count:
        n = 0 if rng.random() < 0.03 else rng.randint(1, max_len)
        out.add(BitString(rng.getrandbits(n) if n else 0, n))
    return frozenset(out)


def interval(w):
    return (Fraction(w.value, 1 << w.length),
            Fraction(w.value + 1, 1 << w.length))


def closure_oracle(word_set, prefix):
    # prefix is in the closure iff the members' intervals cover its own
    lo, hi = interval(prefix)
    spans = []
    for w in word_set:
        wlo, whi = interval(w)
        a, b = max(lo, wlo), min(hi, whi)
        if a < b:
            spans.append((a, b))
    spans.sort()
    reach = lo
    for a, b in spans:
        if a > reach:
            return False
        if b > reach:
            reach = b
        if reach >= hi:
            return True
    return reach >= hi


def reduce_oracle(word_set):
    maxlen = max(w.length for w in word_set)
    out = set()

    def walk(v):
        if closure_oracle(word_set, v):
            out.add(v)
            return
        if v.length < maxlen:
            walk(v + ZERO)
            walk(v + ONE)

    walk(BitString())
    return frozenset(out)


def expands(tree_set, k):
    """Expanded codewords of every symbol at tree k, by the definition.

    Symbol a's set is {Cword_k(a) + q : q in Mode_{Point_k(a)}}, built
    by concatenating bit strings, without the library's integer table.
    """
    tree = tree_set.trees[k]
    return [frozenset(cword + q for q in tree_set.trees[point].mode)
            for cword, point in zip(tree.cwords, tree.points)]


def validate_oracle(tree_set):
    """The violations ``validate`` must report, from an all-pairs loop.

    Every pair of expanded words of distinct symbols is compared, and
    every expanded word against every mode member, on text prefixes;
    the order is the one ``validate`` promises.
    """
    def comparable(t1, t2):
        return t1.startswith(t2) or t2.startswith(t1)

    violations = []
    seen = reachable_trees(tree_set)
    for k in range(tree_set.tree_count):
        if k not in seen:
            violations.append(Violation(
                "unreachable", k, (), (),
                f"tree {k} cannot be reached from tree 0"))
    for k in range(tree_set.tree_count):
        exp = [[w.text() for w in sorted(words, key=word_key)]
               for words in expands(tree_set, k)]
        mode = [q.text() for q in tree_set.trees[k].mode]
        names = tree_set.symbols
        for a in range(len(exp)):
            for b in range(a + 1, len(exp)):
                for w1 in exp[a]:
                    for w2 in exp[b]:
                        if comparable(w1, w2):
                            violations.append(Violation(
                                "overlap", k, (names[a], names[b]),
                                (w1, w2),
                                f"tree {k}: expanded codewords {w1!r} "
                                f"({names[a]}) and {w2!r} ({names[b]}) "
                                f"are comparable"))
        for a in range(len(exp)):
            for w in exp[a]:
                if not any(w.startswith(q) for q in mode):
                    violations.append(Violation(
                        "coverage", k, (names[a],), (w,),
                        f"tree {k}: expanded codeword {w!r} ({names[a]}) "
                        f"has no prefix in the tree's mode"))
    return violations


def doc_oracle(tree_set):
    """The document ``tree_set_to_doc`` must write, read off ``trees``.

    Each tree's mode is written in canonical member order, by length
    and then numerically, and its codewords and successors by symbol.
    """
    trees = []
    for k, tree in enumerate(tree_set.trees):
        entry = {
            "mode": [w.text() for w in sorted(tree.mode, key=word_key)],
            "codewords": [w.text() for w in tree.cwords],
            "next": list(tree.points),
        }
        if tree_set.tree_names is not None:
            entry["name"] = tree_set.tree_names[k]
        trees.append(entry)
    return {"alphabet": list(tree_set.symbols), "trees": trees}


def encode_oracle(tree_set, symbols):
    """The text ``encode`` must return: codewords, then termination.

    The codeword texts along the tree path are joined, and the shortest
    member of the final tree's mode, ties broken toward 0, ends them.
    """
    words = []
    k = 0
    for x in symbols:
        words.append(tree_set.trees[k].cwords[x].text())
        k = tree_set.trees[k].points[x]
    return "".join(words) + min(tree_set.trees[k].mode, key=word_key).text()


def decode_oracle(tree_set, bits, length):
    """What ``decode`` must return or raise, from a whole-stream scan.

    Every decision looks at the entire rest of the stream as text: a
    symbol matches when its codeword and then some member of its next
    tree's mode start there, and the shortest such member is its
    lookahead.  With no match, the stream is truncated when what is
    left is a proper prefix of some codeword + member.  Each symbol's
    lookahead is kept, and the trace holds the largest of them, 0 for
    no symbols.
    """
    text = bits.text()
    cwords = [[w.text() for w in tree.cwords] for tree in tree_set.trees]
    modes = [sorted((q.text() for q in tree.mode), key=lambda q: (len(q), q))
             for tree in tree_set.trees]
    pos = 0
    out = []
    lookaheads = []
    k = 0
    for i in range(length):
        rest = text[pos:]
        matches = [(a, next(q for q in modes[point]
                            if rest.startswith(w + q)))
                   for a, (w, point) in enumerate(
                       zip(cwords[k], tree_set.trees[k].points))
                   if any(rest.startswith(w + q) for q in modes[point])]
        # a valid set never lets two symbols match
        assert len(matches) <= 1, f"{len(matches)} symbols match at bit {pos}"
        if not matches:
            if any(len(w + q) > len(rest) and (w + q).startswith(rest)
                   for w, point in zip(cwords[k], tree_set.trees[k].points)
                   for q in modes[point]):
                raise Truncated(
                    f"stream ends inside symbol {i} at bit {pos}",
                    symbol_index=i, bit_position=pos)
            raise NoMatch(f"no symbol matches at bit {pos}",
                          symbol_index=i, bit_position=pos)
        a, q = matches[0]
        out.append(a)
        lookaheads.append(len(q))
        pos += len(cwords[k][a])
        k = tree_set.trees[k].points[a]
    return DecodeTrace(tuple(out), max(lookaheads, default=0), pos)


def steps_inside(tree_set, k, bits):
    """The decoding steps from tree k that stay inside ``bits``.

    Starting at any tree, a plain per-symbol walk over the text of
    ``bits`` yields ``(symbol, lookahead, codeword length, next tree)``
    for as long as a symbol's codeword and then some member of its next
    tree's mode lie inside the text; the shortest such member is the
    lookahead.  It stops at the first step that would read past the
    end.  A cycle of empty codewords never stops, so callers bound it.
    """
    text = bits.text()
    modes = [sorted((q.text() for q in tree.mode), key=len)
             for tree in tree_set.trees]
    pos = 0
    while True:
        rest = text[pos:]
        tree = tree_set.trees[k]
        matches = [(a, w, point) for a, (w, point) in enumerate(
                       zip((w.text() for w in tree.cwords), tree.points))
                   if any(rest.startswith(w + q) for q in modes[point])]
        # a valid set never lets two symbols match
        assert len(matches) <= 1, f"{len(matches)} symbols match at bit {pos}"
        if not matches:
            return
        a, w, point = matches[0]
        q = next(q for q in modes[point] if rest.startswith(w + q))
        yield a, len(q), len(w), point
        pos += len(w)
        k = point


def symbol_text_oracle(text, names):
    """The ids ``cli._parse_symbol_text`` must return, or its error.

    The text is split on whitespace; when every name is one character,
    the tokens are joined and read a character at a time.  The first
    token that is not a name raises FormatError.
    """
    index = {name: a for a, name in enumerate(names)}
    tokens = text.split()
    if all(len(name) == 1 for name in names):
        tokens = "".join(tokens)
    try:
        return [index[token] for token in tokens]
    except KeyError as exc:
        raise FormatError(f"unknown symbol {exc.args[0]!r}") from None


def random_valid_tree_set(rng, max_trees=4, max_symbols=3,
                          symbol_count=None):
    """A random set that is valid by construction.

    Every codeword extends a distinct member of its own tree's mode
    (splitting members into incomparable slots as needed), which forces
    both decodability conditions no matter where the trees point; a
    fixed hop to tree k+1 keeps every tree reachable.  The alphabet has
    ``symbol_count`` symbols if given, else 1 to ``max_symbols`` (at
    most 3).
    """
    tree_count = rng.randint(1, max_trees)
    if symbol_count is None:
        symbol_count = min(rng.choice([1] + [2, 3] * 3), max_symbols)
    trees = []
    for k in range(tree_count):
        mode = frozenset(BitString.from_text(t)
                         for t in rng.choice(MODE_POOL))
        slots = sorted(mode, key=word_key)
        while len(slots) < symbol_count:
            s = slots.pop(rng.randrange(len(slots)))
            slots.extend([s + ZERO, s + ONE])
        rng.shuffle(slots)
        cwords = []
        points = []
        for a in range(symbol_count):
            w = slots[a]
            for _ in range(rng.randint(0, 2)):
                w = w + BitString(rng.getrandbits(1), 1)
            cwords.append(w)
            points.append((k + 1) % tree_count if a == 0
                          else rng.randrange(tree_count))
        trees.append(CodeTree(cwords, points, mode))
    return CodeTreeSet(trees)


def imported_examples():
    """The package's three conventional example codes, imported."""
    sets = []
    for doc in (examples.quaternary_aifv2_doc(),
                examples.quaternary_aifv3_doc(), examples.skewed_aifv3_doc()):
        kind, m, convention, symbols, trees = parse_conventional(doc)
        sets.append(import_aifv2(trees, symbols) if kind == "aifv2"
                    else import_aifvm(trees, m, symbols, convention))
    return sets


def mutate_tree_set(rng, tree_set):
    """A random small edit; the result may or may not stay valid."""
    trees = list(tree_set.trees)
    k = rng.randrange(len(trees))
    tree = trees[k]
    cwords = list(tree.cwords)
    points = list(tree.points)
    mode = set(tree.mode)
    a = rng.randrange(len(cwords))
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(0, 3)
        cwords[a] = BitString(rng.getrandbits(n) if n else 0, n)
    elif kind == 1:
        points[a] = rng.randrange(len(trees))
    else:
        n = rng.randint(1, 3)
        mode.add(BitString(rng.getrandbits(n), n))
    trees[k] = CodeTree(cwords, points, mode)
    return CodeTreeSet(trees, tree_set.symbols)


def varied_doc(rng, tree_set):
    """``tree_set``'s document, spelled as a hand-written one may be.

    Mode members come in random order with one repeated; half the time
    the trees carry names that some 'next' entries use, and half the
    time the alphabet is a bare symbol count (the sets here use the
    default names).
    """
    doc = tree_set_to_doc(tree_set)
    named = rng.random() < 0.5
    for k, entry in enumerate(doc["trees"]):
        rng.shuffle(entry["mode"])
        entry["mode"].append(rng.choice(entry["mode"]))
        if named:
            entry["name"] = f"T{k}"
            entry["next"] = [f"T{p}" if rng.random() < 0.5 else p
                             for p in entry["next"]]
    if rng.random() < 0.5:
        doc["alphabet"] = len(doc["alphabet"])
    return doc


def parse_oracle(doc):
    """The set a well-formed document names, built through ``CodeTree``s.

    Every word goes through ``BitString.from_text``, each 'next' name
    to its tree's index, and the trees into ``CodeTreeSet(trees, ...)``.
    """
    names = [entry.get("name") for entry in doc["trees"]]
    by_name = {name: k for k, name in enumerate(names)}
    alphabet = doc["alphabet"]
    trees = [CodeTree([bits(w) for w in entry["codewords"]],
                      [by_name.get(p, p) for p in entry["next"]],
                      [bits(q) for q in entry["mode"]])
             for entry in doc["trees"]]
    return CodeTreeSet(trees, None if isinstance(alphabet, int) else alphabet,
                       None if names[0] is None else names)


def to_basic_oracle(tree_set):
    """``transform.to_basic`` as written on ``CodeTree``s and bit strings.

    Tree k's head is the common prefix of its mode.  Each codeword gets
    its successor's head appended and its own tree's head stripped,
    and each mode is reduced (by ``reduce_oracle``) and loses the
    common prefix of what is left.
    """
    tree_set.ensure_valid()
    trees = tree_set.trees
    heads = [functools.reduce(longest_common_prefix, tree.mode)
             for tree in trees]
    new_trees = []
    for k, tree in enumerate(trees):
        reduced = reduce_oracle(tree.mode)
        head = functools.reduce(longest_common_prefix, reduced)
        new_trees.append(CodeTree(
            [strip_prefix(heads[k], w + heads[point])
             for w, point in zip(tree.cwords, tree.points)],
            tree.points, [strip_prefix(head, w) for w in reduced]))
    return CodeTreeSet(new_trees, tree_set.symbols, tree_set.tree_names)


def _solve_exact(a, b):
    """x with a x = b for a nonsingular Fraction matrix (Gauss-Jordan)."""
    n = len(b)
    rows = [list(row) + [v] for row, v in zip(a, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def closed_classes_oracle(matrix):
    """The closed classes of a chain, as sorted lists of states.

    A depth-first search from every state gives its reach; a state lies
    in a closed class iff every state it reaches reaches it back, and
    then its reach is that class.
    """
    n = len(matrix)
    reach = []
    for s in range(n):
        seen, todo = {s}, [s]
        while todo:
            v = todo.pop()
            for w in range(n):
                if matrix[v][w] > 0 and w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return sorted({tuple(sorted(reach[s])) for s in range(n)
                   if all(s in reach[w] for w in reach[s])})


def stationary_oracle(matrix):
    """The Cesaro limit of a chain started in state 0, as Fractions.

    Exact: every float is a dyadic rational, so ``Fraction(float)``
    loses nothing.  Expected visits to the transient states come from
    one elimination; each closed class gets its own stationary vector
    (balance equations with one replaced by a sum of 1), times the
    probability of entering that class from state 0.
    """
    P = [[Fraction(x) for x in row] for row in matrix]
    n = len(P)
    classes = closed_classes_oracle(matrix)
    transient = sorted(set(range(n)).difference(*classes))
    visits = dict(zip(transient, _solve_exact(
        [[Fraction(t == u) - P[u][t] for u in transient] for t in transient],
        [Fraction(t == 0) for t in transient])))
    pi = [Fraction(0)] * n
    for members in classes:
        mass = Fraction(0 in members) + sum(
            visits[t] * P[t][j] for t in transient for j in members)
        a = [[P[i][j] - (i == j) for i in members] for j in members]
        a[-1] = [Fraction(1)] * len(members)
        b = [Fraction(0)] * (len(members) - 1) + [Fraction(1)]
        for s, p in zip(members, _solve_exact(a, b)):
            pi[s] = mass * p
    return pi


def transition_matrix_oracle(tree_set, dist):
    """The matrix ``transition_matrix`` must return, one numpy entry at
    a time: each symbol's probability is added into the entry of its
    tree and successor, in symbol order, by numpy's own ``+=``.
    """
    import numpy as np
    n = tree_set.tree_count
    matrix = np.zeros((n, n))
    for k, tree in enumerate(tree_set.trees):
        for a, point in enumerate(tree.points):
            matrix[k, point] += float(dist[a])
    return matrix


def mc_oracle(tree_set, dist, n_symbols, seed=0):
    """The rate ``monte_carlo_rate`` must return, one symbol at a time.

    The same draws, 2**16 symbols per ``rng.choice`` call as in the
    library, are walked through the trees' codewords and successors,
    adding each codeword's length, and the total is divided by the
    sample size.
    """
    import numpy as np
    block = 1 << 16
    if n_symbols == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    trees = tree_set.trees
    total = 0
    k = 0
    for start in range(0, n_symbols, block):
        size = min(block, n_symbols - start)
        for x in rng.choice(len(dist), size=size, p=dist).tolist():
            total += trees[k].cwords[x].length
            k = trees[k].points[x]
    return total / n_symbols


def infer_modes_oracle(tables, n_bits):
    """The modes ``transform._infer_modes`` must infer, by a full walk.

    ``tables[k]`` lists tree k's (codeword, successor) pairs.  From each
    start tree, every state (tree, bits so far) reachable by appending
    codewords is visited once; each stream that reaches n_bits gives its
    first n_bits bits, and the mode is the reduced set of those
    patterns, or {''} when no stream gets that far.
    """
    modes = []
    for start in range(len(tables)):
        found = set()
        seen = set()
        stack = [(start, 0, 0)]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            k, blen, bval = state
            for w, point in tables[k]:
                nlen = blen + w.length
                nval = (bval << w.length) | w.value
                if nlen >= n_bits:
                    found.add(BitString(nval >> (nlen - n_bits), n_bits))
                else:
                    stack.append((point, nlen, nval))
        modes.append(reduce(found) if found else frozenset([BitString()]))
    return modes


def long_codeword_doc():
    """Conventional trees with one 200,000-bit all-ones codeword each.

    No symbol switches trees, so an import ends in the refusal that
    tree 1 cannot be reached.  The prefix closure of that codeword
    holds 200,000 nodes whose values run up to 200,000 bits.
    """
    ones = "1" * 200_000
    return {"kind": "aifv2",
            "trees": [{"codewords": ["0", "10", ones]},
                      {"codewords": ["01", "10", ones]}]}


def _closure_nodes(cwords):
    # nodes are (depth, path-value) pairs: the prefix closure of the
    # codeword paths, with each node's children keyed by their edge bit
    children = {}
    symbol_at = {}
    nodes = {(0, 0)}
    for a, w in enumerate(cwords):
        node = (w.length, w.value)
        if node in symbol_at:
            raise StructureViolation(
                f"symbols {symbol_at[node]} and {a} share the node "
                f"{w.text()!r}")
        symbol_at[node] = a
        nodes.add(node)
        for i in range(w.length):
            parent = (i, w.value >> (w.length - i))
            bit = (w.value >> (w.length - i - 1)) & 1
            child = (i + 1, w.value >> (w.length - i - 1))
            children.setdefault(parent, {})[bit] = child
            nodes.add(parent)
            nodes.add(child)
    return nodes, children, symbol_at


def _single_child(children, node):
    ch = children.get(node)
    if ch is not None and len(ch) == 1:
        return next(iter(ch.items()))
    return None


def _chain_degree(children, symbol_at, node):
    # the run of bare single-'0'-child nodes hanging under a symbol node
    degree = 0
    edge = _single_child(children, node)
    down = edge[1] if edge else None
    while down is not None and down not in symbol_at:
        edge = _single_child(children, down)
        if edge is None or edge[0] != 0:
            break
        degree += 1
        down = edge[1]
    return degree


def _check_closure(tree_index, nodes, children, symbol_at):
    for node in nodes:
        ch = children.get(node, {})
        if not ch and node not in symbol_at:
            raise StructureViolation(
                f"tree {tree_index}: leaf at depth {node[0]} carries "
                f"no symbol")
        if len(ch) == 2 and node in symbol_at:
            raise StructureViolation(
                f"tree {tree_index}: symbol on a node with both children")


def import_oracle(kind, trees, m=None, symbols=None, convention="degree"):
    """What ``import_aifv2`` (kind "aifv2") or ``import_aifvm`` must do.

    Every tree's prefix closure is built as (depth, value) nodes with a
    children dict, and each symbol's successor is read by walking the
    nodes under it edge by edge.  The modes and the final decodability
    check come from the library's ``_assemble``.
    """
    if kind != "aifv2" and convention not in ("degree", "complement"):
        raise ValueError(f"unknown switching convention {convention!r}")
    trees = [list(tree) for tree in trees]
    if kind == "aifv2":
        m = 2
        if len(trees) != 2:
            raise StructureViolation("expected exactly two trees")
    elif m < 2:
        raise StructureViolation("m must be at least 2")
    elif len(trees) != m:
        raise StructureViolation(f"expected {m} trees, got {len(trees)}")
    points_per_tree = []
    for t, tree in enumerate(trees):
        nodes, children, symbol_at = _closure_nodes(tree)
        _check_closure(t, nodes, children, symbol_at)
        points = []
        for a, w in enumerate(tree):
            node = (w.length, w.value)
            if kind != "aifv2":
                degree = _chain_degree(children, symbol_at, node) \
                    if children.get(node) else 0
                if degree >= m:
                    raise StructureViolation(
                        f"tree {t}: symbol {a} has chain degree {degree}, "
                        f"needs less than {m}")
                points.append(degree if convention == "degree" or not degree
                              else m - degree)
                continue
            if not children.get(node):
                points.append(0)
                continue
            edge = _single_child(children, node)
            if edge is None or edge[0] != 0:
                raise StructureViolation(
                    f"tree {t}: symbol {a} sits on an internal node "
                    f"without a single '0' child")
            down = edge[1]
            below = _single_child(children, down)
            if down in symbol_at or below is None or below[0] != 0:
                raise StructureViolation(
                    f"tree {t}: symbol {a} is not two '0' edges above "
                    f"its subtree")
            points.append(1)
        if kind == "aifv2" and t == 1:
            root_kids = children.get((0, 0), {})
            if set(root_kids) != {0, 1}:
                raise StructureViolation(
                    "tree 1: the root must have both children")
            side = root_kids[0]
            link = _single_child(children, side)
            if side in symbol_at or link is None or link[0] != 1:
                raise StructureViolation(
                    "tree 1: the root's '0' child must be a bare node "
                    "linked by '1' to its child")
        points_per_tree.append(points)
    return _assemble(trees, points_per_tree, m, symbols)
